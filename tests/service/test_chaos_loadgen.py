"""Schedule-to-service mapping, loadgen stats, and the end-to-end gate."""

import pytest

from repro.faults.schedule import FaultSchedule
from repro.service.chaos import ScheduleDisturbance, crash_indices
from repro.service.loadgen import LoadgenConfig, percentile
from repro.harness.service_chaos import (
    default_service_schedule,
    run_service_chaos,
    scripted_ops,
)


class TestScheduleDisturbance:
    def test_empty_schedule_never_stalls(self):
        disturbance = ScheduleDisturbance(FaultSchedule())
        assert disturbance(0) == 0.0
        assert disturbance(100) == 0.0
        assert disturbance.stalled_requests == 0

    def test_brownout_adds_rtt_inside_its_window(self):
        schedule = FaultSchedule().with_brownout(10, 5, extra_rtt_s=0.25)
        disturbance = ScheduleDisturbance(schedule)
        assert disturbance(9) == 0.0
        assert disturbance(10) == 0.25
        assert disturbance(14) == 0.25
        assert disturbance(15) == 0.0
        assert disturbance.total_stall_s == 0.5

    def test_cpu_drift_scales_base_cost(self):
        schedule = FaultSchedule().with_cpu_drift(0, 10, factor=3.0)
        disturbance = ScheduleDisturbance(schedule, base_plan_cost_s=0.01)
        assert disturbance(5) == pytest.approx(0.02)  # (3 - 1) * 0.01

    def test_overlapping_windows_compose(self):
        schedule = (
            FaultSchedule()
            .with_brownout(0, 10, extra_rtt_s=0.1)
            .with_cpu_drift(0, 10, factor=2.0)
        )
        disturbance = ScheduleDisturbance(schedule, base_plan_cost_s=0.05)
        assert disturbance(3) == pytest.approx(0.15)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="request_index"):
            ScheduleDisturbance(FaultSchedule())(-1)


class TestCrashIndices:
    def test_one_kill_per_window_at_ceil_start(self):
        schedule = FaultSchedule().with_crash(3.2, 1.0).with_crash(8.0, 1.0)
        assert crash_indices(schedule, 20) == [4, 8]

    def test_windows_past_horizon_dropped(self):
        schedule = FaultSchedule().with_crash(25.0, 1.0)
        assert crash_indices(schedule, 20) == []

    def test_empty_schedule_has_no_kills(self):
        assert crash_indices(FaultSchedule(), 20) == []


class TestLoadgenHelpers:
    def test_percentile_nearest_rank(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(values, 0.5) == 3.0
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 5.0
        assert percentile([7.0], 0.99) == 7.0

    def test_percentile_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 0.5)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="pareto_shape"):
            LoadgenConfig(pareto_shape=1.0)
        with pytest.raises(ValueError, match="clients"):
            LoadgenConfig(clients=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mean_think_s", float("nan")),  # killed every client thread
            ("mean_think_s", float("inf")),
            ("mean_think_s", 1e300),  # overflows time.sleep
            ("deadline_s", float("inf")),  # died in default_objectives
            ("deadline_s", float("nan")),
            ("deadline_s", 1e308),
            ("pareto_shape", float("nan")),
            ("seed", -1),
            ("requests_per_client", True),
            ("release_every", 2.5),
            ("num_samples_choices", ()),
            ("cores_choices", (4, 0)),
        ],
    )
    def test_every_field_is_checked(self, field, value):
        with pytest.raises(ValueError, match=field):
            LoadgenConfig(**{field: value})


class TestScriptedOps:
    def test_deterministic_for_a_seed(self):
        assert scripted_ops(30, seed=7) == scripted_ops(30, seed=7)
        assert scripted_ops(30, seed=7) != scripted_ops(30, seed=8)

    def test_mixes_replans_and_releases(self):
        kinds = {op.kind for op in scripted_ops(30, seed=7)}
        assert kinds == {"plan", "replan", "release"}

    def test_replans_repeat_the_previous_request_verbatim(self):
        ops = scripted_ops(30, seed=7)
        last_plan = {}
        for op in ops:
            if op.kind == "plan":
                last_plan[op.job] = op
            elif op.kind == "replan":
                previous = last_plan[op.job]
                assert (op.num_samples, op.cores) == (
                    previous.num_samples, previous.cores,
                )

    def test_default_schedule_kills_inside_the_script(self):
        schedule = default_service_schedule(24, seed=7)
        assert crash_indices(schedule, 24) == [10]


@pytest.mark.slow
class TestServiceChaosGate:
    def test_gate_passes_end_to_end(self):
        report = run_service_chaos(requests=16, seed=7)
        assert report.chaos.kills >= 1
        assert report.chaos.recovered_grants >= 1
        assert report.identical, report.first_divergence
        assert report.chaos.client_transport_errors >= 1  # rode out the kill
        assert "byte-identical" in report.render()
