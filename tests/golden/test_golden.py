"""Results lock: the reproduction's text exhibits, pinned byte for byte.

Each case runs one ``sophon-repro`` command (or example script) in a
fresh interpreter and compares its stdout with the checked-in file next
to this module.  Everything these commands print is seeded, so any
difference is a moved number: a failure prints the unified diff.

The frontier runs at 200 samples rather than 2,000: it encodes real
progressive images per sample, and 2,000 samples take over a minute.

Regenerate (only for a deliberate change of results, named in the
change's notes) with ``make golden``, i.e.::

    PYTHONPATH=src python tests/golden/test_golden.py
"""

import difflib
import os
import pathlib
import subprocess
import sys
from typing import Dict, List

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

_CLI = [sys.executable, "-m", "repro.cli", "--seed", "7"]

#: Golden file name -> the command whose stdout it pins.
CASES: Dict[str, List[str]] = {
    "all.txt": [*_CLI, "--samples", "2000", "all"],
    "adaptive.txt": [*_CLI, "--samples", "2000", "adaptive"],
    "plan.txt": [*_CLI, "--samples", "2000", "plan"],
    "frontier.txt": [*_CLI, "--samples", "200", "frontier", "--bandwidth", "50"],
    "audit.txt": [*_CLI, "--samples", "2000", "audit", "42"],
    "full_training_run.txt": [sys.executable, "examples/full_training_run.py"],
}


def run_case(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        CASES[name], cwd=ROOT, env=env, capture_output=True, text=True, check=True
    )
    return completed.stdout


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    expected = (HERE / name).read_text()
    actual = run_case(name)
    if actual != expected:
        diff = "".join(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                actual.splitlines(keepends=True),
                fromfile=f"tests/golden/{name}",
                tofile=" ".join(CASES[name][1:]),
            )
        )
        pytest.fail(f"{name} moved:\n{diff}", pytrace=False)


if __name__ == "__main__":
    for case in sorted(CASES):
        (HERE / case).write_text(run_case(case))
        print(f"wrote tests/golden/{case}")
