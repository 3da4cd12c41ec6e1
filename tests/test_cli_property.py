"""Property: any command line on the cheap subcommands exits 0 or 2, never a traceback.

Valid values come from small ranges, so one run takes tens of
milliseconds (``frontier`` stays at <= 8 samples: it encodes real
pixels).  Invalid values are drawn freely: below the flag's bound, NaN,
infinities, huge numbers, fractions for integer flags, and non-numbers.
``loadgen`` and ``serve`` stop once their configs are built: stubs stand
in for the service and the load run, so no thread or socket starts.
Every output file lands under tmp_path.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import DATASETS, MAX_SAMPLES, main
from repro.service import loadgen, server
from repro.workloads.models import MODEL_REGISTRY
from tests.identity_profile import draws

NOT_A_NUMBER = st.sampled_from(["nan", "inf", "-inf", "1e999", "", "x", "0x10", "1,5"])


def count(low, high, *, huge_is_bad=False):
    """(valid, invalid) text draws of an integer flag whose bound is ``low``."""
    invalid = [
        st.integers(max_value=low - 1).map(str),
        st.floats(allow_nan=True).map(str),  # "2.0" is no integer either
        NOT_A_NUMBER,
    ]
    if huge_is_bad:
        invalid.append(st.integers(min_value=10**12).map(str))
    return st.integers(low, high).map(str), st.one_of(invalid)


def number(low, high, *, open_low=False):
    """(valid, invalid) text draws of a float flag whose bound is ``low``."""
    below = st.floats(max_value=low, exclude_max=not open_low)
    return st.floats(low, high, exclude_min=open_low).map(str), st.one_of(
        below.map(str), NOT_A_NUMBER
    )


def choice(names):
    return st.sampled_from(sorted(names)), st.sampled_from(["", "mnist", "ALEXNET", "1"])


def path(name):
    """An output path: always valid, so it has no invalid draws."""
    return st.just(name), st.nothing()


DATASET = choice(DATASETS)
MODEL = choice({model for model, _gpu in MODEL_REGISTRY})
STORAGE_CORES = count(0, 64)
SHARDS = count(1, 4)
CORE_LIST = count(0, 6)
BANDWIDTH = number(1.0, 5000.0, open_low=True)
WORKERS = count(1, 4)
QUEUE = count(1, 64)
TOKEN = st.sampled_from(["t", "sophon-dev-token"]), st.just("")
SERVICE = {
    "--workers": WORKERS, "--queue-capacity": QUEUE, "--cores": STORAGE_CORES,
    "--token": TOKEN,
}

#: command -> (largest valid --samples, {flag: (valid, invalid)}).  Flags
#: whose name ends in "+" take one to three values.
COMMANDS = {
    "plan": (20, {"--dataset": DATASET, "--model": MODEL,
                  "--storage-cores": STORAGE_CORES, "--save": path("plan.json")}),
    "fig1c": (20, {"--dataset": DATASET}),
    "stalls": (20, {"--dataset": DATASET, "--model": MODEL,
                    "--storage-cores": STORAGE_CORES}),
    "audit": (20, {"--dataset": DATASET, "--model": MODEL, "--storage-cores": STORAGE_CORES,
                   "--epoch": count(0, 3), "--shards": SHARDS}),
    "adaptive": (20, {"--dataset": DATASET, "--storage-cores": STORAGE_CORES,
                      "--epochs": count(2, 4), "--batch-size": count(1, 64),
                      "--shards": SHARDS, "--telemetry-dir": path("telemetry")}),
    "fig3": (20, {"--dataset": DATASET, "--storage-cores": STORAGE_CORES,
                  "--csv": path("fig3.csv"), "--telemetry-dir": path("telemetry")}),
    "fig4": (20, {"--dataset": DATASET, "--cores+": CORE_LIST, "--csv": path("fig4.csv")}),
    "sweep": (20, {"--dataset": DATASET, "--cores+": CORE_LIST, "--bandwidths+": BANDWIDTH,
                   "--csv": path("sweep.csv")}),
    "frontier": (8, {"--bandwidth": BANDWIDTH, "--floors+": number(0.0, 60.0),
                     "--json": path("frontier.json")}),
    "serve": (20, {"--port": count(0, 65535, huge_is_bad=True), "--journal": path("j.jsonl"),
                   **SERVICE}),
    "loadgen": (20, {"--clients": count(1, 8), "--requests": count(1, 50),
                     "--mean-think-s": number(0.0, 1.0), "--deadline-s": number(0.0, 60.0,
                                                                                 open_low=True),
                     "--address": (st.integers(1, 65535).map(lambda p: f"127.0.0.1:{p}"),
                                   st.sampled_from(["host", ":80", "h:0", "h:99999", "h:x"])),
                     "--slo-p50-s": number(0.0, 10.0), "--slo-shed-rate": number(0.0, 1.0),
                     "--out": path("BENCH_service.json"), **SERVICE}),
}


def value(draw, strategies, bad):
    valid, invalid = strategies
    return draw(invalid if bad else valid)


@st.composite
def command_lines(draw, tmp):
    """A command line; mostly valid values, and some invalid ones."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    max_samples, flags = COMMANDS[name]
    bad = st.integers(0, 9).map(lambda roll: roll == 0)
    samples = draw(st.integers(1, max_samples))
    argv = [
        "--samples",
        value(draw, (st.just(str(samples)), count(1, MAX_SAMPLES, huge_is_bad=True)[1]),
              draw(bad)),
        "--seed", value(draw, count(0, 1000), draw(bad)), name,
    ]
    if name == "audit":  # the positional sample id; past the dataset is bad too
        argv.append(value(draw, (st.integers(0, samples - 1).map(str),
                                 st.one_of(count(0, 0)[1], st.just(str(samples)))), draw(bad)))
    for flag, strategies in flags.items():
        if draw(st.booleans()):
            continue
        if flag.endswith("+"):
            size = draw(st.integers(1, 3))
            argv += [flag[:-1], *(value(draw, strategies, draw(bad)) for _ in range(size))]
        elif flag in ("--save", "--csv", "--json", "--telemetry-dir", "--journal", "--out"):
            argv += [flag, str(tmp / draw(strategies[0]))]
        else:
            argv += [f"{flag}={value(draw, strategies, draw(bad))}"]
    if name == "loadgen" and draw(st.booleans()):
        argv.append("--no-slo-gate")
    return argv


class _Built(Exception):
    """Raised where the service or the load run would start."""


def _built(*args, **kwargs):
    raise _Built


def run(argv):
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exited:
            code = exited.code
        except _Built:
            code = 0
    return code, stderr.getvalue()


@settings(draws(40), suppress_health_check=[HealthCheck.function_scoped_fixture,
                                             HealthCheck.too_slow])
@given(data=st.data())
def test_exit_is_0_or_2_and_never_a_traceback(data, tmp_path, monkeypatch):
    for module in (loadgen, server):
        monkeypatch.setattr(module, "DecisionService", _built)
    monkeypatch.setattr(loadgen, "run_loadgen", _built)
    argv = data.draw(command_lines(tmp_path), label="argv")
    code, stderr = run(argv)
    assert code in (0, 2), (code, stderr)
    assert "Traceback" not in stderr
