"""The record-builder identity gate and ``build_records``' builder choice.

Sequential and vectorized record lists -- and the OffloadPlans built from
them -- must be *equal* across two seeds.  Equality on SampleRecord
compares every float exactly, so this is bit-identity.
"""

import pytest

from repro.cluster.spec import standard_cluster
from repro.core.decision import DecisionConfig, DecisionEngine
from repro.parallel import build_records
from repro.parallel.vectorized import simulate_batch
from repro.preprocessing.pipeline import standard_pipeline
from repro.workloads.models import get_model_profile


@pytest.mark.parametrize("seed", [0, 42])
def test_byte_identity_gate(openimages_small, seed):
    """Identical records and plans from the reference and vectorized builders."""
    pipeline = standard_pipeline()
    spec = standard_cluster(storage_cores=48)
    gpu_time_s = get_model_profile("alexnet").epoch_gpu_time_s(len(openimages_small))
    engine = DecisionEngine(DecisionConfig())

    sequential = build_records(pipeline, openimages_small, seed=seed, parallel="sequential")
    vectorized = build_records(pipeline, openimages_small, seed=seed)
    assert vectorized == sequential
    assert engine.plan(vectorized, spec, gpu_time_s) == engine.plan(
        sequential, spec, gpu_time_s
    )


@pytest.mark.parametrize("parallel", ["sharded:2", None])
def test_unknown_builder_rejected(openimages_small, parallel):
    with pytest.raises(ValueError, match="parallel must be one of"):
        build_records(standard_pipeline(), openimages_small, seed=0, parallel=parallel)


def test_mismatched_lengths_rejected(openimages_small):
    pipeline = standard_pipeline()
    metas = [openimages_small.raw_meta(i) for i in range(5)]
    with pytest.raises(ValueError):
        simulate_batch(pipeline, metas, [0, 1, 2], seed=0)
