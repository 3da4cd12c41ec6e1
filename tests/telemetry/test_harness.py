"""Harness telemetry: artifact emission, chaos integration, determinism gate."""

import json

import pytest

from repro.data.catalog import make_openimages
from repro.harness.chaos import run_chaos, write_chaos_telemetry
from repro.harness.telemetry import emit_artifacts, record_epoch_stats
from repro.telemetry.exporters import read_jsonl, telemetry_jsonl_lines
from repro.telemetry.registry import MetricsRegistry

from tests.telemetry.prometheus import parse_prometheus

SAMPLES = 48
SEED = 7


@pytest.fixture(scope="module")
def report():
    dataset = make_openimages(num_samples=SAMPLES, seed=SEED)
    return run_chaos(dataset, batch_size=8, seed=SEED, telemetry=True)


class TestRecordEpochStats:
    def test_gauges_and_counter_land_in_the_registry(self, report):
        registry = MetricsRegistry()
        record_epoch_stats(report.baseline, "baseline", registry)
        snapshot = registry.snapshot()
        assert snapshot.value("harness_epoch_time_seconds", run="baseline") == (
            report.baseline.epoch_time_s
        )
        assert snapshot.value("harness_traffic_bytes", run="baseline") == float(
            report.baseline.traffic_bytes
        )
        assert snapshot.value("harness_epochs_total", run="baseline") == 1.0


class TestChaosTelemetry:
    def test_report_carries_audit_registry_and_spans(self, report):
        assert report.audit is not None and len(report.audit) == SAMPLES
        assert report.registry is not None
        assert report.baseline.spans is not None
        assert all(run.stats.spans is not None for run in report.runs)
        assert report.survived

    def test_registry_holds_per_run_gauges_and_decision_outcomes(self, report):
        snapshot = report.registry.snapshot()
        assert snapshot.value("harness_epoch_time_seconds", run="baseline") > 0
        for run in report.runs:
            assert (
                snapshot.value("harness_epoch_time_seconds", run=run.scenario.name) > 0
            )
        outcomes = {
            key[1][0][1]
            for key in snapshot.series
            if key[0] == "decision_outcomes_total"
        }
        assert "offloaded" in outcomes

    def test_telemetry_off_by_default_and_identical_simulation(self, report):
        dataset = make_openimages(num_samples=SAMPLES, seed=SEED)
        bare = run_chaos(dataset, batch_size=8, seed=SEED)
        assert bare.registry is None and bare.audit is None
        assert bare.baseline.spans is None
        assert bare.baseline.epoch_time_s == report.baseline.epoch_time_s
        assert bare.baseline.traffic_bytes == report.baseline.traffic_bytes
        for mine, theirs in zip(bare.runs, report.runs):
            assert mine.stats.epoch_time_s == theirs.stats.epoch_time_s
            assert mine.stats.traffic_bytes == theirs.stats.traffic_bytes

    def test_write_chaos_telemetry_emits_the_full_tree(self, report, tmp_path):
        paths = write_chaos_telemetry(report, str(tmp_path))
        names = sorted(p.split("/")[-1] for p in paths)
        expected = ["baseline.telemetry.jsonl", "baseline.trace.json"]
        for run in report.runs:
            expected += [
                f"{run.scenario.name}.telemetry.jsonl",
                f"{run.scenario.name}.trace.json",
            ]
        expected += ["chaos.metrics.prom", "chaos.telemetry.jsonl"]
        assert names == sorted(expected)

    def test_chrome_trace_loads_with_per_sample_rows(self, report, tmp_path):
        write_chaos_telemetry(report, str(tmp_path))
        document = json.loads((tmp_path / "storage-crash.trace.json").read_text())
        events = document["traceEvents"]
        sample_threads = [
            e for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
            and e["args"]["name"].startswith("s")
        ]
        assert len(sample_threads) >= SAMPLES
        assert any(e["ph"] == "X" and e["name"] == "sample.fetch" for e in events)

    def test_jsonl_artifacts_replay(self, report, tmp_path):
        write_chaos_telemetry(report, str(tmp_path))
        replayed = read_jsonl(str(tmp_path / "chaos.telemetry.jsonl"))
        assert replayed.registry.snapshot() == report.registry.snapshot()
        assert replayed.audit.to_dicts() == report.audit.to_dicts()
        spans = read_jsonl(str(tmp_path / "baseline.telemetry.jsonl"))
        assert spans.tracer.events == report.baseline.spans.events

    def test_prometheus_artifact_parses_back(self, report, tmp_path):
        write_chaos_telemetry(report, str(tmp_path))
        text = (tmp_path / "chaos.metrics.prom").read_text()
        assert parse_prometheus(text) == report.registry.snapshot()

    def test_write_requires_telemetry(self, tmp_path):
        dataset = make_openimages(num_samples=SAMPLES, seed=SEED)
        bare = run_chaos(dataset, batch_size=8, seed=SEED)
        with pytest.raises(ValueError):
            write_chaos_telemetry(bare, str(tmp_path))


class TestDeterminismGate:
    """Identical seeds must export byte-identical telemetry."""

    def test_chaos_jsonl_is_byte_identical_across_runs(self, report):
        dataset = make_openimages(num_samples=SAMPLES, seed=SEED)
        again = run_chaos(dataset, batch_size=8, seed=SEED, telemetry=True)
        assert telemetry_jsonl_lines(
            registry=again.registry, audit=again.audit
        ) == telemetry_jsonl_lines(registry=report.registry, audit=report.audit)
        assert telemetry_jsonl_lines(tracer=again.baseline.spans) == (
            telemetry_jsonl_lines(tracer=report.baseline.spans)
        )
        for mine, theirs in zip(again.runs, report.runs):
            assert telemetry_jsonl_lines(tracer=mine.stats.spans) == (
                telemetry_jsonl_lines(tracer=theirs.stats.spans)
            )


class TestEmitArtifacts:
    def test_registry_only_emits_jsonl_and_prom(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        paths = emit_artifacts(str(tmp_path), "run", registry=registry)
        names = sorted(p.split("/")[-1] for p in paths)
        assert names == ["run.metrics.prom", "run.telemetry.jsonl"]

    def test_nothing_to_write_returns_no_paths(self, tmp_path):
        assert emit_artifacts(str(tmp_path), "run") == []
