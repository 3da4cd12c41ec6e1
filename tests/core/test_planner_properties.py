"""Never-crash, never-worse and re-summed-traffic properties of every planner.

``FidelityPlanner``, ``SelectiveCompressor`` and ``JointPlanner`` are run
over generated populations (plain and progressive records, realistic and
edge-shaped stage sizes) and generated ``ClusterSpec``\\ s.  Each must
return a plan without raising; a plan built with the never-worsen guard
must not be worse than the no-offload baseline; and the traffic the
plan's ``expected`` estimate believes in must equal the traffic re-summed
from its splits, scan counts and compression savings.  Records that do not
cover sample ids 0..n-1 are rejected with the same ``ValueError`` by all
four planners.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.epoch_model import EpochMetrics, EpochModel
from repro.cluster.spec import standard_cluster
from repro.compression import JointPlanner, SelectiveCompressor
from repro.core.decision import DecisionEngine
from repro.core.fidelity import FidelityConfig, FidelityPlanner
from repro.core.plan import OffloadPlan
from repro.preprocessing.pipeline import standard_pipeline
from repro.preprocessing.records import ProgressiveSampleRecord, SampleRecord

PIPELINE = standard_pipeline()
CROP = 224 * 224 * 3

#: Relative slack for comparing the planners' running sums with re-summed
#: totals: the two fold the same numbers in different orders.
RTOL = 1e-9


@st.composite
def stage_shapes(draw):
    """Five-op stage sizes: the real pipeline's shape, or an edge shape."""
    raw = draw(st.integers(2_000, 1_200_000))
    return draw(
        st.sampled_from(
            [
                (raw, raw * 4, CROP, CROP, CROP * 4, CROP * 4),
                (raw, raw, raw, raw, raw, raw),  # nothing to save
                (raw, raw // 2, raw // 3, raw // 4, raw // 5, raw // 6),  # last op smallest
            ]
        )
    )


@st.composite
def planner_records(draw, max_samples=24):
    count = draw(st.integers(1, max_samples))
    records = []
    for sample_id in range(count):
        sizes = draw(stage_shapes())
        costs = tuple(draw(st.one_of(st.just(0.0), st.floats(1e-4, 0.05))) for _ in range(5))
        if draw(st.booleans()):
            raw = sizes[0]
            cuts = sorted(draw(st.sets(st.integers(1, raw - 1), max_size=3)))
            psnr = st.floats(10.0, 60.0)
            psnrs = sorted(draw(st.lists(psnr, min_size=len(cuts), max_size=len(cuts))))
            records.append(
                ProgressiveSampleRecord(
                    sample_id,
                    sizes,
                    costs,
                    scan_sizes=tuple(cuts) + (raw,),
                    scan_psnr_db=tuple(psnrs) + (float("inf"),),
                )
            )
        else:
            records.append(SampleRecord(sample_id, sizes, costs))
    return records


@st.composite
def clusters(draw):
    return standard_cluster(
        storage_cores=draw(st.one_of(st.just(0), st.integers(1, 64))),
        bandwidth_mbps=draw(st.floats(1.0, 10_000.0)),
        compute_cores=draw(st.integers(1, 64)),
    )


GPU_TIMES = st.one_of(st.just(0.0), st.floats(0.0, 50.0))
FIDELITY = st.builds(FidelityConfig, min_psnr_db=st.floats(0.0, 50.0))


def baseline_epoch_s(records, spec, gpu_time_s):
    return EpochModel(spec).epoch_time_s(
        EpochMetrics(
            gpu_time_s=gpu_time_s,
            compute_cpu_s=sum(r.total_cost for r in records),
            storage_cpu_s=0.0,
            traffic_bytes=float(
                sum(r.raw_size for r in records) + spec.response_overhead_bytes * len(records)
            ),
        )
    )


def assert_not_worse(expected, records, spec, gpu_time_s):
    if expected is None:
        return
    baseline = baseline_epoch_s(records, spec, gpu_time_s)
    assert expected.epoch_time_s <= baseline * (1 + RTOL) + 1e-6


def assert_believed_traffic(expected, resummed, spec):
    if expected is None:
        return
    believed = expected.t_net * spec.bandwidth_bytes_per_s
    assert abs(believed - resummed) <= RTOL * max(resummed, 1)


@given(records=planner_records(), spec=clusters(), gpu_time_s=GPU_TIMES, config=FIDELITY)
@settings(max_examples=120, deadline=None)
def test_fidelity_planner(records, spec, gpu_time_s, config):
    plan = FidelityPlanner(DecisionEngine(), config).plan(records, spec, gpu_time_s)
    assert len(plan.splits) == len(records)
    assert_not_worse(plan.expected, records, spec, gpu_time_s)
    overhead = spec.response_overhead_bytes
    assert_believed_traffic(plan.expected, plan.expected_traffic_bytes(records, overhead), spec)


@given(records=planner_records(), spec=clusters(), gpu_time_s=GPU_TIMES)
@settings(max_examples=120, deadline=None)
def test_selective_compressor(records, spec, gpu_time_s):
    offload = DecisionEngine().plan(records, spec, gpu_time_s)
    plan = SelectiveCompressor().plan(records, offload, PIPELINE, spec, gpu_time_s)
    for sample_id in plan.decisions:
        assert offload.split_for(sample_id) > 0
    assert_not_worse(plan.expected, records, spec, gpu_time_s)
    overhead = spec.response_overhead_bytes
    resummed = offload.expected_traffic_bytes(records, overhead) - plan.total_saved_bytes
    assert_believed_traffic(plan.expected, resummed, spec)


@given(records=planner_records(), spec=clusters(), gpu_time_s=GPU_TIMES)
@settings(max_examples=120, deadline=None)
def test_joint_planner(records, spec, gpu_time_s):
    plan = JointPlanner().plan(records, PIPELINE, spec, gpu_time_s)
    assert len(plan.offload.splits) == len(records)
    for sample_id in plan.compression.decisions:
        assert plan.offload.split_for(sample_id) > 0
    assert_not_worse(plan.offload.expected, records, spec, gpu_time_s)
    overhead = spec.response_overhead_bytes
    resummed = (
        plan.offload.expected_traffic_bytes(records, overhead)
        - plan.compression.total_saved_bytes
    )
    assert_believed_traffic(plan.offload.expected, resummed, spec)


#: Each planner, called on records whose sample ids are 3 and 4.
PLANNERS = {
    "engine": lambda records, spec: DecisionEngine().plan(records, spec, 0.01),
    "fidelity": lambda records, spec: FidelityPlanner().plan(records, spec, 0.01),
    "selective": lambda records, spec: SelectiveCompressor().plan(
        records, OffloadPlan.no_offload(len(records)), PIPELINE, spec, 0.01
    ),
    "joint": lambda records, spec: JointPlanner().plan(records, PIPELINE, spec, 0.01),
}


@pytest.mark.parametrize("planner", sorted(PLANNERS))
def test_records_not_covering_ids_from_zero_are_rejected(planner):
    sizes = (600_000, 2_400_000, CROP, CROP, CROP * 4, CROP * 4)
    costs = (0.008, 0.002, 0.0001, 0.0005, 0.0008)
    records = [SampleRecord(sample_id, sizes, costs) for sample_id in (3, 4)]
    with pytest.raises(ValueError, match="ordered by sample id covering 0..n-1"):
        PLANNERS[planner](records, standard_cluster())
