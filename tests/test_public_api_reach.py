"""Every public function and class in ``src/repro`` has a caller outside tests.

A name that only tests reach is API nobody uses: it costs review and
upkeep and shows up in the docs as if it were load-bearing.  This scan
finds each module-level public ``def``/``class`` in ``src/repro`` and
requires a reference to it from ``src/``, ``examples/``, ``benchmarks/``,
``scripts/`` or ``sophon_bench/``: an ``ast.Name``, an attribute of that
name, or a ``from ... import`` outside a package ``__init__`` (re-exports
alone do not count).  References inside the definition itself do not
count either.  Matching is by name, so an unrelated attribute of the same
name counts as a caller: the scan can miss dead code, never invent it.

The frozen sophon-lint package (``repro.analysis``) is out of scope; the
seed kernel kept as an identity oracle (``repro.cluster.refsim``) is
scanned like the rest, so API its launcher never reaches shows up too.
A name with no caller that should stay goes in ``KEPT`` with the reason.
"""

import ast
import functools
import pathlib
from typing import FrozenSet, Set

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_TREES = ("src", "examples", "benchmarks", "scripts", "sophon_bench")
OUT_OF_SCOPE = ("analysis/",)

#: Public names with no caller that stay, each with where it is documented.
KEPT = {
    "StorageSpeedProbe": "EXPERIMENTS.md cites it as an extension result",
    "CompressedChannel": "EXPERIMENTS.md cites it as an extension result",
    "RetryingClient": "docs/robustness.md: the retrying transport",
    "FaultInjector": "docs/robustness.md: channel-side fault injection",
    "DegradedModeFetcher": "docs/robustness.md: degraded-mode offloading",
    "CachingFetcher": "README and DESIGN: the raw-only caching fetcher",
    "calibrate": "README and docs/simulation.md: cost-model calibration",
    "trace_from_size_listing": "docs/tutorial.md teaches it",
    "ManualClock": "the injectable clock tests substitute for virtual time",
    "parse_trace_id": "docs/observability.md: reads a span's trace id back",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions() -> Set[str]:
    names = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.relative_to(PACKAGE).as_posix().startswith(OUT_OF_SCOPE):
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, _DEFS) and not node.name.startswith("_"):
                names.add(node.name)
    return names


def _references(module: ast.Module, is_init: bool):
    """(name, line) for every Name, attribute and non-re-export import."""
    for node in ast.walk(module):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom) and not is_init:
            for alias in node.names:
                yield alias.name, node.lineno


def callers(names: Set[str]) -> Set[str]:
    found: Set[str] = set()
    for tree in CALLER_TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            module = ast.parse(path.read_text())
            # Lines of each definition's own body, where self-references live.
            own = {
                (node.name, line)
                for node in ast.walk(module)
                if isinstance(node, _DEFS) and node.name in names
                for line in range(node.lineno, node.end_lineno + 1)
            }
            found.update(
                name
                for name, line in _references(module, path.name == "__init__.py")
                if name in names and (name, line) not in own
            )
    return found


@functools.lru_cache(maxsize=None)
def unreached() -> FrozenSet[str]:
    names = public_definitions()
    return frozenset(names - callers(names))


def test_every_public_name_has_a_caller():
    orphans = sorted(unreached() - set(KEPT))
    assert not orphans, (
        f"only tests reach {orphans}: delete them, move test helpers into "
        "tests/, or add each to KEPT with its reason"
    )


def test_kept_names_are_still_defined_and_unreached():
    # A KEPT name that gained a caller, or was deleted, leaves the list.
    stale = sorted(set(KEPT) - unreached())
    assert not stale, f"KEPT lists {stale}, which no longer need an exemption"
