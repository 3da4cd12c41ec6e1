"""Byte-identity gates: the cursor engine vs the frozen seed oracle.

``run_epoch(kernel="reference")`` replays the seed simulator and launcher
(:mod:`repro.cluster.refsim`) with the sequential work builder; the
default ``kernel="fast"`` runs the cursor engine on the optimized kernel
with the vectorized work builder -- faults, spans and timeline included.
Every test here asserts the outputs are *equal down to the last float*:
stats, fault reports, span streams and timelines.  The fixed cases pin
known shapes; the hypothesis properties generate specs, plans, batch
sizes, shard placements, fault schedules and multi-tenant mixes, and
also assert that ``run_epoch`` never raises for valid input.
"""

import dataclasses
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.multijob import SharedJob, SharedLinkSim
from repro.cluster.spec import ClusterSpec, standard_cluster
from repro.cluster.trainer import TrainerSim, WorkAdjustment, round_robin_placement
from repro.data.catalog import make_imagenet, make_openimages
from repro.faults import FaultSchedule
from repro.preprocessing.pipeline import standard_pipeline
from repro.telemetry.spans import END
from repro.workloads.models import get_model_profile
from tests.identity_profile import IDENTITY_SETTINGS

PIPELINE = standard_pipeline()
MODEL = get_model_profile("alexnet")
NUM_OPS = len(PIPELINE.ops)


def stats_fingerprint(stats) -> str:
    """Every float of an EpochStats -- fault report and timeline included --
    serialized exactly (spans excluded: Tracer objects carry no
    deterministic repr; span events are compared via span_fingerprint)."""
    payload = dataclasses.asdict(stats)
    payload.pop("spans", None)
    return json.dumps(payload, sort_keys=True, default=repr)


def span_fingerprint(stats) -> list:
    assert stats.spans is not None
    return [repr(event) for event in stats.spans.events]


def assert_identical(ref, fast) -> None:
    assert stats_fingerprint(ref) == stats_fingerprint(fast)
    if ref.spans is not None or fast.spans is not None:
        assert span_fingerprint(ref) == span_fingerprint(fast)


@pytest.fixture(scope="module")
def world():
    spec = dataclasses.replace(standard_cluster(), prefetch_batches=2)
    dataset = make_openimages(num_samples=240, seed=11)
    trainer = TrainerSim(
        dataset=dataset,
        pipeline=PIPELINE,
        model=MODEL,
        spec=spec,
        batch_size=16,
        seed=3,
    )
    splits = [i % 6 for i in range(len(dataset))]
    return trainer, splits, spec, dataset


def full_fault_schedule(epoch_time_s: float) -> FaultSchedule:
    return (
        FaultSchedule()
        .with_crash(0.3 * epoch_time_s, duration=0.2 * epoch_time_s)
        .with_brownout(
            0.6 * epoch_time_s,
            duration=0.1 * epoch_time_s,
            bandwidth_factor=0.4,
        )
        .with_corruption(0.05)
    )


class TestSingleNodeIdentity:
    def test_fault_free_fast_engine(self, world):
        trainer, splits, _, _ = world
        ref = trainer.run_epoch(splits, epoch=1, kernel="reference")
        fast = trainer.run_epoch(splits, epoch=1, kernel="fast")
        assert stats_fingerprint(ref) == stats_fingerprint(fast)

    def test_default_kernel_is_fast(self, world):
        trainer, splits, _, _ = world
        fast = trainer.run_epoch(splits, epoch=1, kernel="fast")
        default = trainer.run_epoch(splits, epoch=1)
        assert stats_fingerprint(fast) == stats_fingerprint(default)

    def test_no_offload_plan(self, world):
        trainer, _, _, _ = world
        ref = trainer.run_epoch(splits=None, epoch=0, kernel="reference")
        fast = trainer.run_epoch(splits=None, epoch=0, kernel="fast")
        assert stats_fingerprint(ref) == stats_fingerprint(fast)

    def test_adjustments(self, world):
        trainer, splits, _, dataset = world
        adj = {
            i: WorkAdjustment(
                wire_bytes_delta=-64, extra_storage_cpu_s=1e-4, extra_compute_cpu_s=2e-4
            )
            for i in range(0, len(dataset), 7)
            if splits[i] > 0
        }
        ref = trainer.run_epoch(splits, epoch=1, adjustments=adj, kernel="reference")
        fast = trainer.run_epoch(splits, epoch=1, adjustments=adj, kernel="fast")
        assert stats_fingerprint(ref) == stats_fingerprint(fast)

    def test_faulted_run_on_optimized_kernel(self, world):
        trainer, splits, _, _ = world
        base = trainer.run_epoch(splits, epoch=1, kernel="reference")
        faults = full_fault_schedule(base.epoch_time_s)
        ref = trainer.run_epoch(splits, epoch=1, faults=faults, kernel="reference")
        fast = trainer.run_epoch(splits, epoch=1, faults=faults)
        assert stats_fingerprint(ref) == stats_fingerprint(fast)
        assert dataclasses.asdict(ref.faults) == dataclasses.asdict(fast.faults)

    def test_spans_identical(self, world):
        trainer, splits, _, _ = world
        ref = trainer.run_epoch(splits, epoch=1, record_spans=True, kernel="reference")
        fast = trainer.run_epoch(splits, epoch=1, record_spans=True)
        assert stats_fingerprint(ref) == stats_fingerprint(fast)
        assert span_fingerprint(ref) == span_fingerprint(fast)

    def test_timeline_identical(self, world):
        trainer, splits, _, _ = world
        ref = trainer.run_epoch(splits, epoch=1, record_timeline=True, kernel="reference")
        fast = trainer.run_epoch(splits, epoch=1, record_timeline=True)
        assert stats_fingerprint(ref) == stats_fingerprint(fast)

    def test_fast_kernel_matches_reference_with_every_switch(self, world):
        trainer, splits, spec, dataset = world
        # One storage core: prefixes queue, so the crash window interrupts
        # both queued grants and running prefixes.
        scarce = TrainerSim(
            dataset, PIPELINE, MODEL, dataclasses.replace(spec, storage_cores=1),
            batch_size=16, seed=3,
        )
        base = scarce.run_epoch(splits, epoch=1)
        options = dict(
            faults=full_fault_schedule(base.epoch_time_s),
            record_spans=True,
            record_timeline=True,
        )
        ref = scarce.run_epoch(splits, epoch=1, kernel="reference", **options)
        fast = scarce.run_epoch(splits, epoch=1, kernel="fast", **options)
        assert fast.faults.crash_interrupts > 0
        assert fast.faults.corrupted_payloads > 0
        assert_identical(ref, fast)

    @pytest.mark.parametrize("prefetch", [1, 8])
    @pytest.mark.parametrize("images_per_second", [50.0, 1e6], ids=["slow-gpu", "fast-gpu"])
    def test_gpu_takes_batches_delivered_before_and_after_it_asks(
        self, world, images_per_second, prefetch
    ):
        # A batch delivered before the GPU asks for it reaches the GPU
        # through a relay entry; one the GPU asks for first wakes the
        # parked GPU.  A one-batch prefetch window sees only the second
        # kind (the next token frees when the GPU ends a batch), a slow
        # GPU behind a deep window only the first, a fast one both.
        _, splits, spec, dataset = world
        trainer = TrainerSim(
            dataset, PIPELINE, dataclasses.replace(MODEL, images_per_second=images_per_second),
            dataclasses.replace(spec, prefetch_batches=prefetch), batch_size=16, seed=3,
        )
        options = dict(record_spans=True, record_timeline=True)
        ref = trainer.run_epoch(splits, epoch=1, kernel="reference", **options)
        fast = trainer.run_epoch(splits, epoch=1, **options)
        assert_identical(ref, fast)
        pairs = list(zip(fast.timeline.batches, fast.timeline.batches[1:]))
        early = sum(batch.ready_at < before.gpu_end for before, batch in pairs)
        late = sum(batch.ready_at > before.gpu_end for before, batch in pairs)
        if prefetch == 1:
            assert (early, late) == (0, len(pairs))
        elif images_per_second < MODEL.images_per_second:
            assert (early, late) == (len(pairs), 0)
        else:
            assert early > 0 and late > 0

    def test_auto_kernel_rejected(self, world):
        trainer, splits, _, _ = world
        with pytest.raises(ValueError, match="kernel must be one of"):
            trainer.run_epoch(splits, epoch=1, kernel="auto")

    def test_unknown_kernel_rejected(self, world):
        trainer, splits, _, _ = world
        with pytest.raises(ValueError, match="kernel must be one of"):
            trainer.run_epoch(splits, epoch=1, kernel="warp")

    def test_fast_work_builder_matches_sequential(self, world):
        trainer, splits, _, _ = world
        seq = trainer._reference_epoch_work(splits, epoch=1)
        fast = trainer._epoch_work(splits, epoch=1)
        assert seq == fast
        # Empty folds stay int 0, exactly like sum([]).
        assert isinstance(fast[0].prefix_cpu_s, int) or splits[0] > 0

    def test_fast_work_builder_validation_messages(self, world):
        trainer, _, _, dataset = world
        bad = [0] * len(dataset)
        bad[3] = 99
        with pytest.raises(ValueError, match="bad split 99"):
            trainer._epoch_work(bad, epoch=0)

    def test_work_builders_share_validation(self, world):
        trainer, _, spec, dataset = world
        offload = [0] * len(dataset)
        offload[5] = 2
        no_storage = TrainerSim(
            dataset, PIPELINE, MODEL, dataclasses.replace(spec, storage_cores=0),
            batch_size=16, seed=3,
        )
        for build in (no_storage._reference_epoch_work, no_storage._epoch_work):
            with pytest.raises(ValueError, match="sample 5 plans split 2"):
                build(offload, 0)
        stray = {4: WorkAdjustment(extra_storage_cpu_s=1e-3)}
        for build in (trainer._reference_epoch_work, trainer._epoch_work):
            with pytest.raises(ValueError, match="sample 4 has storage-side work"):
                build(None, 0, stray)


class TestShardedIdentity:
    def test_fault_free(self, world):
        _, _, spec, dataset = world
        splits = [i % 6 for i in range(len(dataset))]
        sim = TrainerSim(
            dataset,
            PIPELINE,
            MODEL,
            spec,
            batch_size=16,
            seed=2,
            placement=round_robin_placement(len(dataset), 4),
        )
        ref = sim.run_epoch(splits, epoch=0, kernel="reference")
        fast = sim.run_epoch(splits, epoch=0, kernel="fast")
        assert stats_fingerprint(ref) == stats_fingerprint(fast)
        assert ref.shard_utilization == fast.shard_utilization


def shared_fingerprint(stats) -> str:
    return json.dumps(
        {
            "results": {
                name: dataclasses.asdict(result)
                for name, result in stats.results.items()
            },
            "makespan_s": stats.makespan_s,
            "total_traffic_bytes": stats.total_traffic_bytes,
            "link_utilization": stats.link_utilization,
            "storage_cpu_utilization": stats.storage_cpu_utilization,
            "timelines": (
                {name: dataclasses.asdict(t) for name, t in stats.timelines.items()}
                if stats.timelines is not None
                else None
            ),
            "spans": (
                [repr(event) for event in stats.spans.events]
                if stats.spans is not None
                else None
            ),
        },
        sort_keys=True,
        default=repr,
    )


class TestMultiJobIdentity:
    def test_shared_link_identity(self, world):
        _, _, spec, _ = world
        jobs = [
            SharedJob(
                name="tenant-a",
                dataset=make_openimages(num_samples=120, seed=1),
                pipeline=PIPELINE,
                model=MODEL,
                splits=[2] * 120,
                batch_size=8,
                seed=1,
            ),
            SharedJob(
                name="tenant-b",
                dataset=make_openimages(num_samples=96, seed=2),
                pipeline=PIPELINE,
                model=MODEL,
                splits=[i % 6 for i in range(96)],
                batch_size=16,
                seed=2,
            ),
        ]
        sim = SharedLinkSim(spec)
        ref = sim.run_epoch(jobs, epoch=0, kernel="reference")
        fast = sim.run_epoch(jobs, epoch=0, kernel="fast")
        assert shared_fingerprint(ref) == shared_fingerprint(fast)


# ---------------------------------------------------------------------------
# Generated cases (40 draws each; 400 under ``SOPHON_IDENTITY_PROFILE=identity-deep``)
# ---------------------------------------------------------------------------


@st.composite
def specs(draw) -> ClusterSpec:
    """Small clusters: few cores so prefixes, chunks and batches queue."""
    return ClusterSpec(
        compute_cores=draw(st.integers(1, 6)),
        storage_cores=draw(st.integers(0, 4)),
        bandwidth_mbps=draw(st.sampled_from([40.0, 500.0, 4000.0])),
        network_rtt_s=draw(st.sampled_from([0.0, 0.0002, 0.004])),
        storage_cpu_factor=draw(st.sampled_from([0.5, 3.0, 40.0])),
        prefetch_batches=draw(st.integers(1, 4)),
        link_chunk_bytes=draw(st.sampled_from([4096, 65_536, 262_144])),
    )


@st.composite
def datasets(draw):
    make = draw(st.sampled_from([make_openimages, make_imagenet]))
    return make(num_samples=draw(st.integers(1, 36)), seed=draw(st.integers(0, 50)))


def plans(draw, spec: ClusterSpec, num_samples: int):
    if not spec.can_offload:
        return [0] * num_samples
    return draw(
        st.lists(
            st.integers(0, NUM_OPS), min_size=num_samples, max_size=num_samples
        )
    )


@st.composite
def fault_shapes(draw, coincident_crashes: bool = False):
    """Fault windows as fractions of the fault-free epoch (scaled later).

    Crash starts sit on a 1/32 grid and are distinct unless
    ``coincident_crashes``: the seed oracle cannot simulate two crash
    windows opening at the same instant.
    """
    slots = st.integers(0, 40)
    if coincident_crashes:
        start = draw(slots)
        starts = [start] * draw(st.integers(2, 3))
    else:
        starts = draw(st.lists(slots, max_size=3, unique=True))
    crashes = [
        (start / 32, draw(st.sampled_from([1 / 64, 1 / 8, 1 / 2, None])))
        for start in starts
    ]
    brownouts = draw(
        st.lists(
            st.tuples(
                st.integers(0, 40),
                st.sampled_from([1 / 32, 1 / 4]),
                st.sampled_from([0.05, 0.4, 1.0]),
                st.sampled_from([0.0, 0.002]),
            ),
            max_size=2,
        )
    )
    drifts = draw(
        st.lists(
            st.tuples(st.integers(0, 40), st.sampled_from([2.0, 5.0])), max_size=1
        )
    )
    # 1.0 corrupts every send, so every payload reaches the send cap.
    corruption = draw(st.sampled_from([0.0, 0.05, 0.4, 1.0]))
    return crashes, brownouts, drifts, corruption, draw(st.integers(0, 9))


def build_schedule(shape, epoch_time_s: float) -> FaultSchedule:
    crashes, brownouts, drifts, corruption, seed = shape
    schedule = FaultSchedule(seed=seed).with_corruption(corruption)
    for start, duration in crashes:
        schedule = schedule.with_crash(
            start * epoch_time_s,
            duration=float("inf") if duration is None else duration * epoch_time_s,
        )
    for slot, duration, factor, extra_rtt in brownouts:
        schedule = schedule.with_brownout(
            slot / 32 * epoch_time_s,
            duration=duration * epoch_time_s,
            bandwidth_factor=factor,
            extra_rtt_s=extra_rtt,
        )
    for slot, factor in drifts:
        schedule = schedule.with_cpu_drift(
            slot / 32 * epoch_time_s, duration=epoch_time_s / 4, factor=factor
        )
    return schedule


@st.composite
def epoch_cases(draw, coincident_crashes: bool = False):
    spec = draw(specs())
    dataset = draw(datasets())
    n = len(dataset)
    splits = plans(draw, spec, n)
    batch_size = draw(st.integers(1, 12))
    placement = None
    if draw(st.booleans()):
        num_shards = draw(st.integers(1, 3))
        placement = draw(
            st.lists(st.integers(0, num_shards - 1), min_size=n, max_size=n)
        )
    adjustments = {
        i: WorkAdjustment(extra_storage_cpu_s=1e-4, extra_compute_cpu_s=2e-4)
        for i in range(n)
        if splits[i] > 0 and draw(st.booleans())
    }
    return dict(
        spec=spec,
        dataset=dataset,
        splits=splits,
        batch_size=batch_size,
        placement=placement,
        adjustments=adjustments or None,
        faults=draw(fault_shapes(coincident_crashes)),
    )


def make_sim(case) -> TrainerSim:
    sharded = case["placement"] is not None
    return TrainerSim(
        case["dataset"], PIPELINE, MODEL, case["spec"],
        batch_size=case["batch_size"], seed=3,
        job_label="gen" if sharded else None, placement=case["placement"],
    )


class TestGeneratedIdentity:
    @IDENTITY_SETTINGS
    @given(case=epoch_cases(), spans=st.booleans(), timeline=st.booleans())
    def test_engine_equals_reference(self, case, spans, timeline):
        sim = make_sim(case)
        splits, adjustments = case["splits"], case["adjustments"]
        base = sim.run_epoch(splits, epoch=1, adjustments=adjustments)
        options = dict(
            adjustments=adjustments,
            faults=build_schedule(case["faults"], base.epoch_time_s),
            record_spans=spans,
            record_timeline=timeline,
        )
        fast = sim.run_epoch(splits, epoch=1, **options)
        ref = sim.run_epoch(splits, epoch=1, kernel="reference", **options)
        assert_identical(ref, fast)
        if case["placement"] is not None:
            assert ref.shard_utilization == fast.shard_utilization

    @IDENTITY_SETTINGS
    @given(case=epoch_cases(coincident_crashes=True))
    def test_coincident_crash_windows_never_raise(self, case):
        # The seed oracle raises "event triggered twice" here (its second
        # crash watcher re-interrupts a dying prefix); the engine must
        # still simulate the epoch and serve every sample.
        sim = make_sim(case)
        base = sim.run_epoch(case["splits"], epoch=1)
        faults = build_schedule(case["faults"], base.epoch_time_s)
        stats = sim.run_epoch(
            case["splits"], epoch=1, faults=faults,
            record_spans=True, record_timeline=True,
        )
        assert stats.num_samples == len(case["dataset"])
        fetched = [
            e for e in stats.spans.events
            if e.name == "sample.fetch" and e.phase == END
        ]
        assert len(fetched) == stats.num_samples
        assert stats.faults.crash_interrupts <= stats.faults.offload_attempts

    @IDENTITY_SETTINGS
    @given(
        spec=specs(),
        tenants=st.lists(
            st.tuples(datasets(), st.integers(1, 10), st.randoms()),
            min_size=2,
            max_size=2,
        ),
    )
    def test_shared_link_mix_with_telemetry(self, spec, tenants):
        jobs = []
        for index, (dataset, batch_size, rng) in enumerate(tenants):
            n = len(dataset)
            splits = [
                rng.randint(0, NUM_OPS) if spec.can_offload else 0 for _ in range(n)
            ]
            jobs.append(
                SharedJob(
                    name=f"tenant-{index}",
                    dataset=dataset,
                    pipeline=PIPELINE,
                    model=MODEL,
                    splits=splits,
                    batch_size=batch_size,
                    seed=index,
                )
            )
        sim = SharedLinkSim(spec)
        options = dict(record_spans=True, record_timeline=True)
        fast = sim.run_epoch(jobs, epoch=2, **options)
        ref = sim.run_epoch(jobs, epoch=2, kernel="reference", **options)
        assert shared_fingerprint(ref) == shared_fingerprint(fast)
