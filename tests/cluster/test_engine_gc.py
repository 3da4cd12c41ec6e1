"""The cursor engine leaves nothing for the cycle collector.

Every cursor, event and job the engine builds for an epoch is freed by
reference counting once the heap drains, so a traced, faulted epoch does
not feed the cycle collector (whose full passes would otherwise land in
the middle of later epochs).  Each case collects, runs one fast-kernel
epoch while keeping its result referenced, and requires the next
collection to find nothing.  That is what lets ``Environment.run`` pause
the collector while it drains, which the last cases pin.
"""

import dataclasses
import gc

import pytest

from repro.cluster.multijob import SharedJob, SharedLinkSim
from repro.cluster.sim import Environment
from repro.cluster.spec import standard_cluster
from repro.cluster.trainer import TrainerSim, round_robin_placement
from repro.data.catalog import make_openimages
from repro.faults import FaultSchedule
from repro.preprocessing.pipeline import standard_pipeline
from repro.workloads.models import get_model_profile

PIPELINE = standard_pipeline()
MODEL = get_model_profile("alexnet")
# One storage core: prefixes queue, so the crash window interrupts some.
SPEC = dataclasses.replace(standard_cluster(storage_cores=1), prefetch_batches=2)
NUM_SAMPLES = 240
SPLITS = [i % 6 for i in range(NUM_SAMPLES)]


def garbage_after(run):
    """Objects the cycle collector finds right after ``run()``."""
    gc.collect()
    result = run()
    found = gc.collect()
    assert result is not None  # keeps the result alive across the collection
    return found


@pytest.fixture(scope="module")
def trainer():
    dataset = make_openimages(num_samples=NUM_SAMPLES, seed=11)
    return TrainerSim(dataset, PIPELINE, MODEL, SPEC, batch_size=16, seed=3)


def test_fault_free_epoch(trainer):
    assert garbage_after(lambda: trainer.run_epoch(SPLITS, epoch=1)) == 0


def test_faulted_traced_epoch_with_timeline(trainer):
    horizon = trainer.run_epoch(SPLITS, epoch=1).epoch_time_s
    faults = (
        FaultSchedule()
        .with_crash(0.3 * horizon, duration=0.2 * horizon)
        .with_brownout(0.6 * horizon, duration=0.1 * horizon, bandwidth_factor=0.4)
        .with_corruption(0.05)
    )

    def run():
        return trainer.run_epoch(
            SPLITS, epoch=1, faults=faults, record_spans=True, record_timeline=True
        )

    stats = run()
    assert stats.faults is not None
    assert stats.faults.crash_interrupts > 0 and stats.faults.corrupted_payloads > 0
    assert garbage_after(run) == 0


def test_sharded_epoch(trainer):
    sim = TrainerSim(
        trainer.dataset, PIPELINE, MODEL, SPEC, batch_size=16, seed=2,
        placement=round_robin_placement(NUM_SAMPLES, 4),
    )
    assert garbage_after(lambda: sim.run_epoch(SPLITS, epoch=0, record_spans=True)) == 0


def test_shared_link_epoch():
    jobs = [
        SharedJob(
            name="tenant-a", dataset=make_openimages(num_samples=120, seed=1),
            pipeline=PIPELINE, model=MODEL, splits=[2] * 120, batch_size=8, seed=1,
        ),
        SharedJob(
            name="tenant-b", dataset=make_openimages(num_samples=96, seed=2),
            pipeline=PIPELINE, model=MODEL, splits=[i % 6 for i in range(96)],
            batch_size=16, seed=2,
        ),
    ]
    sim = SharedLinkSim(SPEC)

    def run():
        return sim.run_epoch(jobs, epoch=0, record_spans=True, record_timeline=True)

    assert garbage_after(run) == 0


def churning_env(steps: int = 20) -> Environment:
    """A drain whose callbacks each allocate far past gen-0's threshold."""
    env = Environment()
    kept = []

    def churn(left):
        kept.append([[i] for i in range(2_000)])
        if left:
            env._call_at(env.now + 1.0, churn, left - 1)

    env._call_at(0.0, churn, steps)
    return env


def test_no_collection_during_a_drain():
    env = churning_env()
    collections = []

    def hook(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        env.run()
    finally:
        gc.callbacks.remove(hook)
    assert collections == []
    assert gc.isenabled()


def test_raising_callback_restores_the_collector():
    env = Environment()

    def boom(_):
        raise RuntimeError("boom")

    env._call_at(1.0, boom)
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="boom"):
        env.run()
    assert gc.isenabled()
    assert not env._draining


def test_a_disabled_collector_stays_disabled():
    env = churning_env(steps=2)
    seen = []
    env._call_at(0.5, lambda _: seen.append(gc.isenabled()))
    gc.disable()
    try:
        env.run()
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert seen == [False]
