"""Differential gate: the planners on the shared accept step against their
pre-refactor loops.

``FidelityPlanner``, ``SelectiveCompressor`` and ``JointPlanner`` offer
their candidates to :class:`~repro.cluster.epoch_model.EpochBudget` and
size their baselines with :meth:`RecordTable.epoch_metrics`; the loops
they replaced are kept verbatim in :mod:`tests.core.reference_planners`.
Over the generated populations and clusters of
:mod:`tests.core.test_planner_properties`, both must agree on splits,
scan counts, compression decisions, reasons, audit records, tracer
events and counter series, and on every ``expected`` estimate -- except
the fidelity pass's ``t_cc``, whose compute total is now the suffix fold
rather than ``total_cost - prefix_cost`` and may differ in the last ulp.
"""

import json
import math

from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.spec import standard_cluster
from repro.compression import JointPlanner, SelectiveCompressor
from repro.core.decision import DecisionConfig, DecisionEngine
from repro.core.fidelity import FidelityPlanner
from repro.telemetry.audit import AuditLog
from repro.telemetry.registry import use_registry
from repro.telemetry.spans import Tracer
from tests.core.reference_planners import (
    ReferenceFidelityPlanner,
    ReferenceJointPlanner,
    ReferenceSelectiveCompressor,
)
from tests.core.test_planner_properties import (
    FIDELITY,
    GPU_TIMES,
    PIPELINE,
    clusters,
    planner_records,
)
from tests.identity_profile import draws

#: Relative tolerance on the fidelity pass's ``t_cc``: the suffix fold and
#: ``total - prefix`` round the same costs differently (last-ulp drift).
T_CC_RTOL = 1e-9


@st.composite
def scarce_clusters(draw):
    """A slow link and one to four storage cores: the generated populations
    start network-bound and the accept step refuses some offers."""
    return standard_cluster(
        storage_cores=draw(st.integers(1, 4)),
        bandwidth_mbps=draw(st.floats(20.0, 400.0)),
        compute_cores=draw(st.integers(1, 64)),
    )


#: The properties' clusters rarely start network-bound, so half the
#: examples come from the scarce ones.
SPECS = st.one_of(clusters(), scarce_clusters())


def fidelity_run(planner, records, spec, gpu_time_s):
    """Everything one fidelity planning pass emits, in comparable form."""
    audit = AuditLog()
    tracer = Tracer(clock=lambda: 0.0)
    with use_registry() as registry:
        plan = planner.plan(records, spec, gpu_time_s, audit=audit, tracer=tracer)
        series = registry.snapshot().series
    return plan, {
        "splits": list(plan.splits),
        "scan_counts": plan.scan_counts,
        "reason": plan.reason,
        "audit_json": json.dumps(audit.to_dicts()),
        "events": [repr(event) for event in tracer.events],
        "series": series,
    }


@given(
    records=planner_records(),
    spec=SPECS,
    gpu_time_s=GPU_TIMES,
    config=FIDELITY,
    never_worsen=st.booleans(),
)
@draws(120)
def test_fidelity_planner_equals_its_reference(records, spec, gpu_time_s, config, never_worsen):
    engine = DecisionEngine(DecisionConfig(never_worsen=never_worsen))
    plan, emitted = fidelity_run(FidelityPlanner(engine, config), records, spec, gpu_time_s)
    oracle, expected = fidelity_run(
        ReferenceFidelityPlanner(engine, config), records, spec, gpu_time_s
    )
    assert emitted == expected
    if oracle.scan_counts is None:  # the engine's plan came back untouched
        assert repr(plan) == repr(oracle)
        return
    ours, theirs = plan.expected, oracle.expected
    assert (ours.t_g, ours.t_cs, ours.t_net) == (theirs.t_g, theirs.t_cs, theirs.t_net)
    assert math.isclose(ours.t_cc, theirs.t_cc, rel_tol=T_CC_RTOL)


@given(
    records=planner_records(),
    spec=SPECS,
    gpu_time_s=GPU_TIMES,
    fidelity=st.one_of(st.none(), FIDELITY),
)
@draws(120)
def test_selective_compressor_equals_its_reference(records, spec, gpu_time_s, fidelity):
    # A fidelity plan's scan counts feed the post-offload traffic total.
    if fidelity is None:
        offload = DecisionEngine().plan(records, spec, gpu_time_s)
    else:
        offload = FidelityPlanner(config=fidelity).plan(records, spec, gpu_time_s)
    plan = SelectiveCompressor().plan(records, offload, PIPELINE, spec, gpu_time_s)
    oracle = ReferenceSelectiveCompressor().plan(records, offload, PIPELINE, spec, gpu_time_s)
    assert repr(plan) == repr(oracle)


@given(records=planner_records(), spec=SPECS, gpu_time_s=GPU_TIMES)
@draws(120)
def test_joint_planner_equals_its_reference(records, spec, gpu_time_s):
    plan = JointPlanner().plan(records, PIPELINE, spec, gpu_time_s)
    oracle = ReferenceJointPlanner().plan(records, PIPELINE, spec, gpu_time_s)
    assert repr(plan) == repr(oracle)
