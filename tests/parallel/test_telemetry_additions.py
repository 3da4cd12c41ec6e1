"""ISSUE-4 telemetry satellites: the fetch histogram and CLI replay."""

import pytest

from repro.cli import main as cli_main
from repro.rpc.retry import FetchFailedError, RetryingClient
from repro.telemetry.registry import MetricsRegistry, use_registry


class FlakyFetcher:
    def __init__(self, failures: int) -> None:
        self.failures = failures
        self.calls = 0

    def fetch(self, sample_id, epoch, split):
        self.calls += 1
        if self.calls <= self.failures:
            raise ConnectionError("simulated transport failure")
        return object()


def _series(registry, metric_name):
    snapshot = registry.snapshot()
    return {
        key: value for key, value in snapshot.series.items() if key[0] == metric_name
    }


def test_fetch_histogram_observes_success():
    registry = MetricsRegistry()
    clock = iter(float(i) for i in range(100))
    with use_registry(registry):
        client = RetryingClient(
            FlakyFetcher(failures=1),
            sleep=lambda _: None,
            clock=lambda: next(clock),
        )
        client.fetch(0, epoch=1, split=2)
    series = _series(registry, "rpc_fetch_seconds")
    assert len(series) == 1
    ((_, labels),) = series.keys()
    assert labels == (("outcome", "ok"),)
    (histogram,) = series.values()
    assert histogram.count == 1
    assert histogram.sum > 0  # latency covers the failed attempt + retry


def test_fetch_histogram_observes_failure():
    registry = MetricsRegistry()
    clock = iter(float(i) for i in range(100))
    with use_registry(registry):
        client = RetryingClient(
            FlakyFetcher(failures=99),
            max_attempts=2,
            sleep=lambda _: None,
            clock=lambda: next(clock),
        )
        with pytest.raises(FetchFailedError):
            client.fetch(0, epoch=1, split=0)
    series = _series(registry, "rpc_fetch_seconds")
    ((_, labels),) = series.keys()
    assert labels == (("outcome", "exhausted"),)  # attempts spent, not shed
    (histogram,) = series.values()
    assert histogram.count == 1


@pytest.fixture
def telemetry_log(tmp_path):
    """A real chaos-telemetry JSONL export to replay."""
    from repro.data.catalog import make_openimages
    from repro.harness.chaos import run_chaos, write_chaos_telemetry

    report = run_chaos(
        make_openimages(num_samples=40, seed=7),
        seed=7,
        telemetry=True,
    )
    paths = write_chaos_telemetry(report, str(tmp_path))
    (log,) = [p for p in paths if p.endswith("chaos.telemetry.jsonl")]
    return log


def test_replay_summarizes_log(telemetry_log, capsys):
    assert cli_main(["replay", telemetry_log]) == 0
    out = capsys.readouterr().out
    assert "metric series" in out
    assert "audit" in out
    assert "decision_outcomes_total" in out


def test_replay_explains_sample(telemetry_log, capsys):
    assert cli_main(["replay", telemetry_log, "--sample", "1"]) == 0
    out = capsys.readouterr().out
    assert "sample 1:" in out
    assert "candidate splits" in out


def test_replay_unknown_sample_fails(telemetry_log):
    with pytest.raises(SystemExit):
        cli_main(["replay", telemetry_log, "--sample", "999999"])


def test_replay_missing_file_fails(tmp_path):
    with pytest.raises(SystemExit):
        cli_main(["replay", str(tmp_path / "nope.jsonl")])
