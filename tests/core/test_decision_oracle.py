"""Differential gate: the table engine against the scalar plan oracle.

``DecisionEngine.plan`` runs on :class:`RecordTable` columns; the scalar
loop it replaced is kept verbatim in :mod:`tests.core.reference_decision`.
Both plan the same generated populations -- including the shapes the
realistic ``sample_records`` strategy never produces (efficiency ties,
zero-cost prefixes ranked at ``inf``, zero savings, the smallest stage at
the last op) -- and must agree on every output: the plan (splits, reason,
estimate, compared by ``repr`` so int-vs-float drift shows), the audit
records and their JSON, the tracer events, and the
``decision_outcomes_total`` series.
"""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.spec import standard_cluster
from repro.core.decision import DecisionConfig, DecisionEngine
from repro.preprocessing.records import RecordTable, SampleRecord
from repro.telemetry.audit import AuditLog
from repro.telemetry.registry import use_registry
from repro.telemetry.spans import Tracer
from tests.core.reference_decision import ReferenceDecisionEngine
from tests.identity_profile import draws

#: Few distinct sizes and costs, so equal efficiencies and savings are common.
TIED_SIZES = (1_000, 50_000, 150_528, 600_000)
TIED_COSTS = (0.0, 1e-4, 0.01, 0.05)


@st.composite
def edge_records(draw):
    """A population whose records all run ``n_ops`` ops, edge shapes included."""
    n_ops = draw(st.integers(0, 4))
    count = draw(st.integers(1, 30))
    tied = st.tuples(*[st.sampled_from(TIED_SIZES)] * (n_ops + 1))
    # Strictly shrinking stages: the smallest is the last op's output, so
    # every accepted sample moves its whole pipeline (the underflow shape).
    shrinking = st.lists(
        st.integers(1_000, 10_000_000), min_size=n_ops + 1, max_size=n_ops + 1, unique=True
    ).map(lambda sizes: tuple(sorted(sizes, reverse=True)))
    free = st.integers(1, 1_200_000).map(lambda raw: (raw,) * (n_ops + 1))  # zero savings
    cost = st.one_of(st.sampled_from(TIED_COSTS), st.floats(1e-4, 0.1))
    return [
        SampleRecord(
            sample_id=i,
            stage_sizes=draw(st.one_of(tied, shrinking, free)),
            op_costs=tuple(draw(cost) for _ in range(n_ops)),
        )
        for i in range(count)
    ]


@st.composite
def clusters(draw):
    return standard_cluster(
        storage_cores=draw(st.one_of(st.just(0), st.integers(1, 64))),
        bandwidth_mbps=draw(st.floats(1.0, 10_000.0)),
        compute_cores=draw(st.integers(1, 64)),
    )


GPU_TIMES = st.one_of(st.just(0), st.floats(0.0, 50.0))


def planned(engine, records, spec, gpu_time_s):
    """Everything one planning pass emits, in comparable form."""
    audit = AuditLog()
    tracer = Tracer(clock=lambda: 0.0)
    with use_registry() as registry:
        plan = engine.plan(records, spec, gpu_time_s, audit=audit, tracer=tracer)
        series = registry.snapshot().series
    return {
        "plan": repr(plan),
        "audit": list(audit),
        "audit_json": json.dumps(audit.to_dicts()),
        "events": [repr(event) for event in tracer.events],
        "series": series,
    }


@pytest.mark.parametrize("never_worsen", [True, False])
@pytest.mark.parametrize("order", DecisionConfig._ORDERS)
@given(records=edge_records(), spec=clusters(), gpu_time_s=GPU_TIMES)
@draws(60)
def test_table_engine_equals_scalar_oracle(order, never_worsen, records, spec, gpu_time_s):
    config = DecisionConfig(order=order, never_worsen=never_worsen)
    oracle = planned(ReferenceDecisionEngine(config), records, spec, gpu_time_s)
    engine = DecisionEngine(config)
    assert planned(engine, records, spec, gpu_time_s) == oracle
    table = RecordTable.from_records(records)
    assert planned(engine, table, spec, gpu_time_s) == oracle
    # One series per outcome that occurred; none for an outcome that did not.
    assert all(value > 0 for value in oracle["series"].values())
    assert sum(oracle["series"].values()) == len(records)


@pytest.mark.parametrize("order", DecisionConfig._ORDERS)
def test_no_storage_cores_equals_oracle(order):
    records = [
        SampleRecord(i, (600_000, 150_528, 1_000), (0.01 * (i % 3), 0.02)) for i in range(12)
    ]
    spec = standard_cluster(storage_cores=0)
    config = DecisionConfig(order=order)
    oracle = planned(ReferenceDecisionEngine(config), records, spec, 0.5)
    assert planned(DecisionEngine(config), records, spec, 0.5) == oracle


def test_baseline_totals_are_builtin_sums():
    """The baseline compute total is ``sum()`` over Python floats in sample
    order -- never a NumPy reduction, whose pairwise rounding differs (and
    Python >= 3.12 compensates ``sum()`` of floats)."""
    rng = np.random.default_rng(5)
    records = [
        SampleRecord(i, (1_000, 2_000), (float(cost),))
        for i, cost in enumerate(rng.uniform(0.01, 0.3, size=257))
    ]
    totals = [record.total_cost for record in records]
    assert sum(totals) != float(np.sum(np.array(totals)))  # the trap is armed
    spec = standard_cluster(storage_cores=4)
    plan = DecisionEngine().plan(records, spec, gpu_time_s=1.0)
    assert plan.expected is not None
    assert plan.expected.t_cc == sum(totals) * spec.compute_cpu_factor / spec.compute_cores
    oracle = ReferenceDecisionEngine().plan(records, spec, gpu_time_s=1.0)
    assert repr(plan) == repr(oracle)


def test_unordered_records_rejected_like_the_oracle():
    records = [SampleRecord(i, (10, 5), (0.1,)) for i in (1, 0)]
    for engine in (DecisionEngine(), ReferenceDecisionEngine()):
        with pytest.raises(ValueError, match="ordered by sample id"):
            engine.plan(records, standard_cluster(), 1.0)
