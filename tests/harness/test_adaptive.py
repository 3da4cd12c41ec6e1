"""Adaptive re-planning tests."""

import pytest

from repro.cluster.spec import standard_cluster
from repro.harness.adaptive import AdaptiveTrainingRun


@pytest.fixture(scope="module")
def drifting_runs(openimages_small):
    """Storage cores collapse 48 -> 1 at epoch 3 (a tenant moved in)."""
    base = standard_cluster(storage_cores=48)
    schedule = {3: base.with_storage_cores(1)}

    adaptive = AdaptiveTrainingRun(
        openimages_small, base, schedule, batch_size=64, adaptive=True
    ).run(epochs=6)
    static = AdaptiveTrainingRun(
        openimages_small, base, schedule, batch_size=64, adaptive=False
    ).run(epochs=6)
    return adaptive, static


class TestAdaptiveRun:
    def test_profiling_epoch_unoffloaded(self, drifting_runs):
        adaptive, _ = drifting_runs
        assert adaptive.epochs[0].plan.num_offloaded == 0

    def test_replans_exactly_on_changes(self, drifting_runs):
        adaptive, static = drifting_runs
        assert [e.replanned for e in adaptive.epochs] == [
            False, True, False, True, False, False,
        ]
        assert static.replan_count == 1  # only the initial plan

    def test_adaptive_shrinks_plan_after_core_collapse(self, drifting_runs):
        adaptive, _ = drifting_runs
        before = adaptive.epochs[2].plan.num_offloaded
        after = adaptive.epochs[3].plan.num_offloaded
        assert after < before / 2

    def test_static_plan_becomes_harmful(self, drifting_runs, openimages_small):
        _, static = drifting_runs
        base = standard_cluster(storage_cores=1)
        from repro.baselines import NoOff
        from repro.harness.runner import run_experiment

        no_off = run_experiment(
            openimages_small, NoOff(), base, batch_size=64
        ).epoch_time_s
        # The stale 48-core plan drowns the single core.
        assert static.epochs[3].stats.epoch_time_s > no_off * 1.5

    def test_adaptive_beats_static_after_the_drift(self, drifting_runs):
        adaptive, static = drifting_runs
        for epoch in (3, 4, 5):
            assert (
                adaptive.epochs[epoch].stats.epoch_time_s
                < static.epochs[epoch].stats.epoch_time_s / 1.5
            )
        assert adaptive.total_time_s < static.total_time_s

    def test_identical_before_the_drift(self, drifting_runs):
        adaptive, static = drifting_runs
        for epoch in (0, 1, 2):
            assert adaptive.epochs[epoch].stats.epoch_time_s == pytest.approx(
                static.epochs[epoch].stats.epoch_time_s
            )

    def test_offloading_disabled_entirely(self, openimages_small):
        base = standard_cluster(storage_cores=48)
        schedule = {2: base.with_storage_cores(0)}
        run = AdaptiveTrainingRun(
            openimages_small, base, schedule, batch_size=64, adaptive=True
        ).run(epochs=4)
        assert run.epochs[2].plan.num_offloaded == 0
        assert run.epochs[3].plan.num_offloaded == 0

    def test_static_clamps_when_offloading_impossible(self, openimages_small):
        base = standard_cluster(storage_cores=48)
        schedule = {2: base.with_storage_cores(0)}
        run = AdaptiveTrainingRun(
            openimages_small, base, schedule, batch_size=64, adaptive=False
        ).run(epochs=4)
        assert run.epochs[2].plan.num_offloaded == 0  # clamped, not crashed

    def test_requires_two_epochs(self, openimages_small):
        run = AdaptiveTrainingRun(openimages_small, standard_cluster())
        with pytest.raises(ValueError):
            run.run(epochs=1)


class TestShardedAdaptive:
    """The uniform run_epoch contract: sharded epochs through the same calls."""

    def make_run(self, openimages_small, **kwargs):
        from repro.cluster.trainer import round_robin_placement

        return AdaptiveTrainingRun(
            openimages_small,
            standard_cluster(storage_cores=8),
            batch_size=64,
            placement=round_robin_placement(len(openimages_small), 4),
            **kwargs,
        )

    def test_sharded_epochs_with_telemetry(self, openimages_small):
        """Pre-fix, run_epoch(..., record_spans=True) raised TypeError here."""
        result = self.make_run(openimages_small, job_name="tenant-a").run(
            epochs=3, record_spans=True, record_timeline=True
        )
        for epoch, stats in result.instrumented_epochs():
            assert stats.spans is not None
            assert stats.timeline is not None
            labels = {
                (e.attrs.get("shard"), e.attrs.get("job"))
                for e in stats.spans.events
                if e.name == "sample.fetch" and e.phase == "B"
            }
            assert all(job == "tenant-a" for _, job in labels)
            assert {shard for shard, _ in labels} == {0, 1, 2, 3}

    def test_telemetry_is_byte_identical(self, openimages_small):
        plain = self.make_run(openimages_small).run(epochs=3)
        traced = self.make_run(openimages_small).run(
            epochs=3, record_spans=True, record_timeline=True
        )
        assert plain.epoch_times() == traced.epoch_times()
        assert [e.stats.traffic_bytes for e in plain.epochs] == [
            e.stats.traffic_bytes for e in traced.epochs
        ]

    def test_combined_artifacts_written(self, openimages_small, tmp_path):
        import json

        from repro.harness.telemetry import emit_artifacts

        result = self.make_run(openimages_small, job_name="tenant-a").run(
            epochs=3, record_spans=True, record_timeline=True
        )
        paths = emit_artifacts(
            str(tmp_path), "run", result.instrumented_epochs()
        )
        assert {p.split("/")[-1] for p in paths} == {
            "run.telemetry.jsonl", "run.trace.json",
        }
        document = json.loads((tmp_path / "run.trace.json").read_text())
        names = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e["name"] == "process_name"
        }
        for epoch in range(3):
            assert f"run epoch {epoch} (virtual time)" in names
        assert "shards (virtual time)" in names
        assert "tenants (virtual time)" in names


class TestObserveOutage:
    def make_run(self, openimages_small):
        return AdaptiveTrainingRun(
            openimages_small, standard_cluster(), batch_size=64, adaptive=True
        )

    def test_outage_installs_degraded_spec(self, openimages_small):
        from repro.core.degraded import OutageReport

        run = self.make_run(openimages_small)
        report = OutageReport(started_at_s=10.0)  # still unrecovered
        degraded = run.observe_outage(report, at_epoch=2)
        assert run.spec_schedule[2] is degraded
        assert not degraded.can_offload
        assert 3 not in run.spec_schedule  # no recovery, no restore point

    def test_recovered_outage_restores_the_prior_spec(self, openimages_small):
        from repro.core.degraded import OutageReport

        run = self.make_run(openimages_small)
        report = OutageReport(started_at_s=10.0, recovered_at_s=14.0)
        run.observe_outage(report, at_epoch=2)
        assert not run.spec_schedule[2].can_offload
        assert run.spec_schedule[3].can_offload  # back to the base spec

    def test_explicit_recovery_epoch(self, openimages_small):
        from repro.core.degraded import OutageReport

        run = self.make_run(openimages_small)
        report = OutageReport(started_at_s=0.0, recovered_at_s=1.0)
        run.observe_outage(report, at_epoch=1, recovery_epoch=4)
        assert not run.spec_schedule[1].can_offload
        assert 2 not in run.spec_schedule
        assert run.spec_schedule[4].can_offload

    def test_validates_epochs(self, openimages_small):
        from repro.core.degraded import OutageReport

        run = self.make_run(openimages_small)
        report = OutageReport(started_at_s=0.0, recovered_at_s=1.0)
        with pytest.raises(ValueError):
            run.observe_outage(report, at_epoch=-1)
        with pytest.raises(ValueError):
            run.observe_outage(report, at_epoch=3, recovery_epoch=3)
