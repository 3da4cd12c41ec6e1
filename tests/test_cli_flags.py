"""Each invalid flag value exits 2 with argparse's usage error, never a traceback.

One case per flag: the value is outside the flag's range, not a number,
or not a choice.  Every command line here ran past its parser before the
flags were typed, and ended in a traceback, a silent wrong answer, or a
clean message with exit 1.
"""

import pytest

from repro.bench import main as bench_main
from repro.cli import main as cli_main
from repro.harness.chaos import main as chaos_main
from repro.harness.service_chaos import main as service_chaos_main
from repro.service.loadgen import main as loadgen_main

#: (entry point, argv, the flag argparse must name).  ``OUT`` becomes a
#: path under the test's tmp_path, so a parent that runs anyway writes
#: nothing into the working directory.
CASES = [
    (cli_main, ["--samples", "-5", "plan"], "--samples"),
    (cli_main, ["--samples", "0", "plan"], "--samples"),
    (cli_main, ["--samples", "100000000000000000000", "plan"], "--samples"),
    (cli_main, ["--seed", "-1", "--samples", "20", "plan"], "--seed"),
    (cli_main, ["--samples", "20", "plan", "--model", "foo"], "--model"),
    (cli_main, ["--samples", "20", "fig3", "--storage-cores", "-1"], "--storage-cores"),
    (cli_main, ["--samples", "20", "fig4", "--cores", "-2"], "--cores"),
    (cli_main, ["--samples", "20", "sweep", "--cores", "-1"], "--cores"),
    (cli_main, ["--samples", "20", "adaptive", "--epochs", "1"], "--epochs"),
    (cli_main, ["--samples", "20", "adaptive", "--batch-size", "0"], "--batch-size"),
    (cli_main, ["--samples", "20", "audit", "3", "--epoch", "-1"], "--epoch"),
    (cli_main, ["--samples", "8", "frontier", "--floors", "nan"], "--floors"),
    (cli_main, ["replay", "OUT", "--spans", "-1"], "--spans"),
    (cli_main, ["slo", "OUT", "--max", "plan_p50=nan"], "--max"),
    (cli_main, ["serve", "--workers", "0"], "--workers"),
    (cli_main, ["serve", "--port", "99999"], "--port"),
    (cli_main, ["serve", "--token", ""], "--token"),
    (cli_main, ["loadgen", "--clients", "0", "--out", "OUT"], "--clients"),
    (cli_main, ["loadgen", "--mean-think-s", "nan", "--out", "OUT"], "--mean-think-s"),
    (cli_main, ["loadgen", "--deadline-s", "inf", "--out", "OUT"], "--deadline-s"),
    (cli_main, ["loadgen", "--address", "localhost", "--out", "OUT"], "--address"),
    (loadgen_main, ["--deadline-s", "inf", "--out", "OUT"], "--deadline-s"),
    (loadgen_main, ["--seed", "-3", "--requests", "1", "--out", "OUT"], "--seed"),
    (chaos_main, ["--samples", "0"], "--samples"),
    (chaos_main, ["--samples", "20", "--batch-size", "0"], "--batch-size"),
    (bench_main, ["--scales", "0", "--out", "OUT"], "--scales"),
    (bench_main, ["--scales", "20", "--repeats", "0", "--out", "OUT"], "--repeats"),
    (service_chaos_main, ["--requests", "0"], "--requests"),
]


@pytest.mark.parametrize(
    "main, argv, flag",
    CASES,
    ids=[f"{main.__module__}:{' '.join(argv)}" for main, argv, _ in CASES],
)
def test_invalid_value_is_a_usage_error(main, argv, flag, capsys, tmp_path):
    out = str(tmp_path / "out.json")
    with pytest.raises(SystemExit) as exited:
        main([out if arg == "OUT" else arg for arg in argv])
    err = capsys.readouterr().err
    assert exited.value.code == 2
    assert f"argument {flag}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["--samples", "10", "audit", "10"], ["--samples", "10", "sweep"],
     ["--samples", "1", "fig1a"]],
    ids=["audit sample past the dataset", "sweep without an axis",
         "fig1a on too few samples"],
)
def test_checks_only_the_command_can_make_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exited:
        cli_main(argv)
    assert exited.value.code == 2
    assert "usage:" in capsys.readouterr().err
