"""FaultSchedule: windows, queries, and the seeded corruption coin."""

import math

import pytest

from repro.faults import (
    Brownout,
    CpuDrift,
    CrashWindow,
    FaultReport,
    FaultSchedule,
)


class TestWindows:
    def test_crash_window_covers_half_open_interval(self):
        window = CrashWindow(1.0, 3.0)
        assert not window.covers(0.999)
        assert window.covers(1.0)
        assert window.covers(2.9)
        assert not window.covers(3.0)

    def test_permanent_crash_never_ends(self):
        window = CrashWindow(5.0)
        assert window.end == math.inf
        assert window.covers(1e12)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            CrashWindow(-1.0, 2.0)
        with pytest.raises(ValueError):
            CrashWindow(3.0, 3.0)
        with pytest.raises(ValueError):
            Brownout(0.0, 1.0, bandwidth_factor=0.0)
        with pytest.raises(ValueError):
            Brownout(0.0, 1.0, bandwidth_factor=1.5)
        with pytest.raises(ValueError):
            Brownout(0.0, 1.0, extra_rtt_s=-0.1)
        with pytest.raises(ValueError):
            CpuDrift(0.0, 1.0, factor=0.5)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: CpuDrift(0.0, 1.0, factor=math.inf),  # was an inf epoch
            lambda: CpuDrift(0.0, 1.0, factor=math.nan),  # ran as no drift
            lambda: Brownout(0.0, 1.0, extra_rtt_s=math.nan),  # ran as 0
            lambda: Brownout(0.0, 1.0, extra_rtt_s=math.inf),
            lambda: CrashWindow(math.nan, 0.01),  # kernels disagreed
            lambda: CrashWindow(math.inf),
            lambda: CrashWindow(0.0, math.nan),
            lambda: FaultSchedule().with_crash(1.0, -math.inf),  # was permanent
        ],
        ids=[
            "drift-inf", "drift-nan", "rtt-nan", "rtt-inf",
            "crash-start-nan", "crash-start-inf", "crash-end-nan", "crash-minus-inf",
        ],
    )
    def test_non_finite_fields_rejected(self, make):
        with pytest.raises(ValueError):
            make()


class TestScheduleQueries:
    def test_empty_schedule(self):
        schedule = FaultSchedule()
        assert schedule.is_empty
        assert not schedule.storage_down(0.0)
        assert schedule.bandwidth_factor(0.0) == 1.0
        assert schedule.extra_rtt_s(0.0) == 0.0
        assert schedule.storage_cpu_factor(0.0) == 1.0
        assert not schedule.corrupts(0)

    def test_builders_are_pure(self):
        base = FaultSchedule(seed=3)
        crashed = base.with_crash(1.0, duration=2.0)
        assert base.is_empty
        assert not crashed.is_empty
        assert crashed.seed == 3

    def test_storage_down_and_restart(self):
        schedule = FaultSchedule().with_crash(2.0, duration=3.0)
        assert not schedule.storage_down(1.0)
        assert schedule.storage_down(2.0)
        assert schedule.restart_time(3.0) == 5.0
        assert schedule.restart_time(6.0) is None
        assert schedule.next_crash_start(0.0) == 2.0
        assert schedule.next_crash_start(2.5) is None

    def test_overlapping_brownouts_take_the_worst(self):
        schedule = (
            FaultSchedule()
            .with_brownout(0.0, 10.0, bandwidth_factor=0.5, extra_rtt_s=0.001)
            .with_brownout(5.0, 10.0, bandwidth_factor=0.2, extra_rtt_s=0.005)
        )
        assert schedule.bandwidth_factor(1.0) == 0.5
        assert schedule.bandwidth_factor(6.0) == 0.2
        assert schedule.extra_rtt_s(6.0) == 0.005
        assert schedule.bandwidth_factor(20.0) == 1.0

    def test_cpu_drift_takes_max_factor(self):
        schedule = (
            FaultSchedule()
            .with_cpu_drift(0.0, 10.0, factor=2.0)
            .with_cpu_drift(3.0, 5.0, factor=4.0)
        )
        assert schedule.storage_cpu_factor(1.0) == 2.0
        assert schedule.storage_cpu_factor(4.0) == 4.0
        assert schedule.storage_cpu_factor(11.0) == 1.0

    def test_corruption_rate_validated(self):
        with pytest.raises(ValueError):
            FaultSchedule(corruption_rate=1.5)
        with pytest.raises(ValueError):
            FaultSchedule().with_corruption(-0.1)


class TestCorruptionCoin:
    def test_deterministic_across_instances(self):
        a = FaultSchedule(seed=9).with_corruption(0.3)
        b = FaultSchedule(seed=9).with_corruption(0.3)
        assert [a.corrupts(i) for i in range(200)] == [
            b.corrupts(i) for i in range(200)
        ]

    def test_seed_changes_the_pattern(self):
        a = FaultSchedule(seed=1).with_corruption(0.5)
        b = FaultSchedule(seed=2).with_corruption(0.5)
        assert [a.corrupts(i) for i in range(200)] != [
            b.corrupts(i) for i in range(200)
        ]

    def test_rate_extremes(self):
        never = FaultSchedule().with_corruption(0.0)
        always = FaultSchedule().with_corruption(1.0)
        assert not any(never.corrupts(i) for i in range(100))
        assert all(always.corrupts(i) for i in range(100))

    def test_rate_is_roughly_respected(self):
        schedule = FaultSchedule(seed=4).with_corruption(0.25)
        hits = sum(schedule.corrupts(i) for i in range(4000))
        assert 0.18 < hits / 4000 < 0.32

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule().with_corruption(0.5).corrupts(-1)


class TestFaultReport:
    def test_recovery_latency(self):
        report = FaultReport()
        assert report.recovery_latency_s is None
        report.note_failure(10.0)
        report.note_failure(12.0)
        assert report.first_failure_s == 10.0
        assert report.recovery_latency_s is None
        report.note_success(15.0)
        assert report.recovered_at_s == 15.0
        assert report.recovery_latency_s == 5.0
        # Later successes keep the first recovery timestamp.
        report.note_success(20.0)
        assert report.recovered_at_s == 15.0

    def test_success_before_any_failure_records_nothing(self):
        report = FaultReport()
        report.note_success(3.0)
        assert report.first_failure_s is None
        assert report.recovered_at_s is None

    def test_saw_faults(self):
        report = FaultReport()
        assert not report.saw_faults
        report.demoted_samples += 1
        assert report.saw_faults
