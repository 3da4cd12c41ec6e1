"""Fault injection through the event-driven trainer (virtual-time axis)."""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.spec import standard_cluster
from repro.cluster.trainer import TrainerSim
from repro.data.catalog import make_openimages
from repro.data.trace import TraceDataset
from repro.faults import Brownout, CpuDrift, CrashWindow, FaultSchedule
from repro.preprocessing.pipeline import standard_pipeline
from repro.workloads.models import get_model_profile

from tests.cluster.test_spec import _finite_floats


@pytest.fixture(scope="module")
def dataset():
    return make_openimages(num_samples=60, seed=11)


def make_trainer(dataset, prefetch_batches=2):
    import dataclasses

    spec = dataclasses.replace(
        standard_cluster(), prefetch_batches=prefetch_batches
    )
    from repro.preprocessing.pipeline import standard_pipeline
    from repro.workloads.models import get_model_profile

    return TrainerSim(
        dataset=dataset,
        pipeline=standard_pipeline(),
        model=get_model_profile("alexnet"),
        spec=spec,
        batch_size=8,
        seed=3,
    )


@pytest.fixture(scope="module")
def baseline(dataset):
    trainer = make_trainer(dataset)
    splits = [2] * len(dataset)
    return trainer.run_epoch(splits, epoch=1)


class TestEmptySchedule:
    def test_byte_identical_to_fault_free_run(self, dataset, baseline):
        trainer = make_trainer(dataset)
        stats = trainer.run_epoch([2] * len(dataset), epoch=1, faults=FaultSchedule())
        assert stats.epoch_time_s == baseline.epoch_time_s
        assert stats.traffic_bytes == baseline.traffic_bytes
        assert stats.faults is None


class TestCrash:
    def test_epoch_survives_with_zero_lost_samples(self, dataset, baseline):
        trainer = make_trainer(dataset)
        window = (0.3 * baseline.epoch_time_s, 0.3 * baseline.epoch_time_s)
        faults = FaultSchedule().with_crash(window[0], duration=window[1])
        stats = trainer.run_epoch([2] * len(dataset), epoch=1, faults=faults)
        assert stats.num_samples == baseline.num_samples  # zero lost
        assert stats.faults is not None
        assert stats.faults.demoted_samples > 0
        # Demoted samples ship raw bytes: traffic goes up, never down.
        assert stats.traffic_bytes > baseline.traffic_bytes

    def test_recovery_latency_measured_after_restart(self, dataset, baseline):
        trainer = make_trainer(dataset)
        faults = FaultSchedule().with_crash(
            0.3 * baseline.epoch_time_s, duration=0.2 * baseline.epoch_time_s
        )
        stats = trainer.run_epoch([2] * len(dataset), epoch=1, faults=faults)
        latency = stats.faults.recovery_latency_s
        assert latency is not None and latency > 0

    def test_permanent_crash_demotes_every_remaining_offload(self, dataset, baseline):
        trainer = make_trainer(dataset)
        faults = FaultSchedule().with_crash(0.0)  # down from t=0, never restarts
        stats = trainer.run_epoch([2] * len(dataset), epoch=1, faults=faults)
        assert stats.num_samples == baseline.num_samples
        assert stats.faults.demoted_samples == len(dataset)
        assert stats.faults.recovery_latency_s is None


class TestBrownout:
    def test_epoch_slows_but_traffic_is_unchanged(self, dataset, baseline):
        trainer = make_trainer(dataset)
        faults = FaultSchedule().with_brownout(
            0.2 * baseline.epoch_time_s,
            duration=0.5 * baseline.epoch_time_s,
            bandwidth_factor=0.1,
        )
        stats = trainer.run_epoch([2] * len(dataset), epoch=1, faults=faults)
        assert stats.epoch_time_s > baseline.epoch_time_s
        assert stats.traffic_bytes == baseline.traffic_bytes
        assert stats.faults.brownout_chunks > 0


class TestCpuDrift:
    def test_slow_storage_cpu_stretches_the_epoch(self, dataset, baseline):
        trainer = make_trainer(dataset)
        faults = FaultSchedule().with_cpu_drift(
            0.1 * baseline.epoch_time_s,
            duration=0.7 * baseline.epoch_time_s,
            factor=6.0,
        )
        stats = trainer.run_epoch([2] * len(dataset), epoch=1, faults=faults)
        assert stats.epoch_time_s > baseline.epoch_time_s
        assert stats.num_samples == baseline.num_samples


class TestCorruption:
    def test_corrupted_payloads_are_resent(self, dataset, baseline):
        trainer = make_trainer(dataset)
        faults = FaultSchedule(seed=7).with_corruption(0.1)
        stats = trainer.run_epoch([2] * len(dataset), epoch=1, faults=faults)
        assert stats.faults.corrupted_payloads > 0
        assert stats.faults.corrupt_retries >= stats.faults.corrupted_payloads
        # Retransmissions are extra traffic on the same sample set.
        assert stats.traffic_bytes > baseline.traffic_bytes
        assert stats.num_samples == baseline.num_samples


#: NaN, +-inf and negatives, mixed with values inside each field's range.
BAD = st.sampled_from((math.nan, math.inf, -math.inf, -1.0))


def _field(valid):
    return st.one_of(BAD, valid)


@st.composite
def fault_windows(draw):
    """A window class and its fields, each possibly NaN, +-inf or negative."""
    cls = draw(st.sampled_from((CrashWindow, Brownout, CpuDrift)))
    fields = {
        "start": draw(_field(st.floats(0.0, 0.05))),
        "end": draw(_field(st.floats(0.0, 0.1)) | st.just(math.inf)),
    }
    if cls is Brownout:
        fields["bandwidth_factor"] = draw(_field(st.floats(0.05, 1.0)))
        fields["extra_rtt_s"] = draw(_field(st.floats(0.0, 0.01)))
    elif cls is CpuDrift:
        fields["factor"] = draw(_field(st.floats(1.0, 8.0)))
    return cls, fields


SCHEDULE_FIELD = {CrashWindow: "crashes", Brownout: "brownouts", CpuDrift: "cpu_drifts"}


class TestFiniteFaultWindows:
    """A fault window either refuses a field value or simulates to finite stats."""

    DATASET = TraceDataset([120_000] * 12, [500] * 12, [400] * 12, name="finite")

    @given(window=fault_windows())
    @example(window=(CrashWindow, {"start": 0.0, "end": math.inf}))  # permanent crash
    @settings(max_examples=60, deadline=None)
    def test_raises_or_simulates_finitely(self, window):
        cls, fields = window
        try:
            faults = FaultSchedule(**{SCHEDULE_FIELD[cls]: (cls(**fields),)})
        except ValueError:
            return
        spec = dataclasses.replace(standard_cluster(storage_cores=4), prefetch_batches=2)
        trainer = TrainerSim(
            self.DATASET, standard_pipeline(), get_model_profile("alexnet"), spec, batch_size=4
        )
        for kernel in ("fast", "reference"):
            stats = trainer.run_epoch([2] * len(self.DATASET), kernel=kernel, faults=faults)
            assert _finite_floats(stats), (faults, kernel, stats)
            for share in (stats.gpu_utilization, stats.compute_cpu_utilization,
                          stats.storage_cpu_utilization, stats.link_utilization):
                assert 0.0 <= share <= 1.0 + 1e-9
