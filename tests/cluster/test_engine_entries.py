"""How many heap entries the cursor engine pays per sample, and how deep
its inline wakes go.

Python dispatch per heap entry is the engine's cost, so the fusions that
remove entries are pinned here by count: a refactor that silently loses
one fails.  Inline wakes are calls, not pops, so an epoch where every
wake is same-instant must still drain with a shallow stack.
"""

import dataclasses
import sys

from repro.bench import heap_pushes
from repro.cluster.spec import standard_cluster
from repro.cluster.trainer import TrainerSim
from repro.core.decision import DecisionConfig, DecisionEngine
from repro.data.catalog import make_openimages
from repro.parallel import build_records
from repro.preprocessing.pipeline import standard_pipeline
from repro.workloads.models import get_model_profile

PIPELINE = standard_pipeline()
MODEL = get_model_profile("alexnet")


def test_fault_free_heap_pushes_per_sample_at_plan_splits():
    num_samples = 2000
    dataset = make_openimages(num_samples=num_samples, seed=7)
    spec = standard_cluster(storage_cores=48)
    records = build_records(PIPELINE, dataset, seed=7)
    plan = DecisionEngine(DecisionConfig()).plan(
        records, spec, MODEL.epoch_gpu_time_s(num_samples)
    )
    trainer = TrainerSim(dataset, PIPELINE, MODEL, spec, seed=7)
    # The seed launcher's count: 9.56 entries per sample.
    assert heap_pushes(trainer, plan.splits, "reference") == 19_112
    # Measured when the inline wakes landed: 5.54 per sample.
    assert heap_pushes(trainer, plan.splits, "fast") <= 11_088


def stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_same_instant_epoch_keeps_inline_wakes_shallow():
    # Zero RTT puts every arrival and response at the instant it was
    # scheduled; tiny payloads and a wide prefetch window pile batches
    # onto the same instants.
    spec = dataclasses.replace(
        standard_cluster(storage_cores=4), network_rtt_s=0.0, prefetch_batches=8
    )
    dataset = make_openimages(num_samples=400, seed=3)
    trainer = TrainerSim(dataset, PIPELINE, MODEL, spec, batch_size=8, seed=3)
    splits = [i % 6 for i in range(len(dataset))]
    expected = trainer.run_epoch(splits, epoch=1, kernel="reference")
    limit = sys.getrecursionlimit()
    # The epoch needs under twenty frames above this one, inline chains
    # included; a wake chain that grew with the sample count would not fit.
    sys.setrecursionlimit(stack_depth() + 60)
    try:
        stats = trainer.run_epoch(splits, epoch=1)
    finally:
        sys.setrecursionlimit(limit)
    assert stats == expected
