"""Regression: the planners' running compute-CPU sum must not underflow.

Each accepted offload subtracts the sample's moved prefix cost from a
running ``compute_cpu_s`` total.  When every sample offloads all but a
tiny tail of its work, float cancellation can leave that total a hair
below zero, and ``EpochMetrics`` rejects negative CPU time.  These
populations made ``DecisionEngine.plan`` raise
``ValueError("compute_cpu_s must be >= 0")`` on 91 of 200 seeds.
"""

import random

import pytest

from repro.cluster.spec import standard_cluster
from repro.compression.codecs import CompressionModel, KindProfile
from repro.compression.joint import JointPlanner
from repro.core.decision import DecisionEngine
from repro.preprocessing.pipeline import standard_pipeline
from repro.preprocessing.records import SampleRecord

#: The smallest stage is the last op's output, so every sample offloads
#: its whole pipeline and the running sum cancels down to zero.
STAGES = (10_000_000, 5_000_000, 2_000_000, 1_000)


def underflow_records(seed: int, count: int = 50):
    rng = random.Random(seed)
    return [
        SampleRecord(
            sample_id=i,
            stage_sizes=STAGES,
            op_costs=tuple(rng.uniform(1e-4, 0.1) for _ in range(3)),
        )
        for i in range(count)
    ]


@pytest.fixture(scope="module")
def starved_link():
    return standard_cluster(storage_cores=48, bandwidth_mbps=1.0)


def test_decision_engine_survives_running_sum_underflow(starved_link):
    engine = DecisionEngine()
    for seed in range(200):
        records = underflow_records(seed)
        plan = engine.plan(records, starved_link, gpu_time_s=0.0)
        assert len(plan.splits) == len(records)
        assert plan.expected is not None
        assert plan.expected.t_cc >= 0


def test_joint_planner_survives_running_sum_underflow(starved_link):
    # Incompressible payloads: no compress action ever adds compute time
    # back, so the joint queue's running sum cancels exactly as above.
    incompressible = KindProfile(
        ratio=1.0, compress_bytes_per_s=1e9, decompress_bytes_per_s=1e9
    )
    planner = JointPlanner(
        CompressionModel({kind: incompressible for kind in CompressionModel.DEFAULT_PROFILES})
    )
    pipeline = standard_pipeline()
    for seed in range(200):
        records = underflow_records(seed)
        plan = planner.plan(records, pipeline, starved_link, gpu_time_s=0.0)
        assert len(plan.offload.splits) == len(records)
