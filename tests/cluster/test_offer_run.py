"""``EpochBudget.offer_run`` is a fold of ``EpochBudget.offer``.

The bulk step accepts a run of candidates in one numpy pass; the planners
then go on with the scalar ``offer``.  Together they must be the scalar
loop exactly: the same accept/refuse/raise sequence, the same budget down
to the sign of a zero and the type of ``epoch_time_s``, a run that ends
at the first refusal, clamp, raise or ``network_bound`` stop (not
sooner), and a ``trail`` that reads back the budget after each accepted
offer.  The fixed cases below hit each stopping condition by hand; the
property draws budgets and delta runs where they all occur.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.epoch_model import EpochBudget, EpochMetrics
from repro.cluster.spec import ClusterSpec
from tests.identity_profile import draws

#: Every slot that is budget state (not the model or the scale cache).
STATE = tuple(slot for slot in EpochBudget.__slots__ if not slot.startswith("_"))


def state(budget):
    return [repr(getattr(budget, slot)) for slot in STATE]


def after(budget):
    """What ``trail`` reports for the budget as it stands."""
    return (
        repr(budget.epoch_time_s),
        budget.estimate().bottleneck,
        budget.network_bound,
        repr(budget.storage_cpu_s),
        repr(budget.traffic_bytes),
    )


def walk(budget, run):
    """Offer ``run`` one candidate at a time, as the scalar loop does.

    Returns each offer's outcome (True, False, or the error it raised,
    which ends the walk), the length of the run ``offer_run`` should
    accept, and the budget after each offer of that run.
    """
    outcomes, afters, head = [], [], None
    for index, deltas in enumerate(run):
        plain = budget.network_bound and budget.compute_cpu_s + deltas[0] >= 0
        try:
            outcome = budget.offer(*deltas)
        except (ValueError, ZeroDivisionError) as error:
            outcome = f"{type(error).__name__}: {error}"
        outcomes.append(outcome)
        if head is None and not (plain and outcome is True):
            head = index
        if head is None:
            afters.append(after(budget))
        if isinstance(outcome, str):
            break
    return outcomes, len(run) if head is None else head, afters


def assert_fold(make, run):
    """``offer_run`` then ``offer`` over the rest equals ``offer`` alone;
    returns how many candidates the bulk step accepted."""
    alone = make()
    outcomes, head, afters = walk(alone, run)
    bulk = make()
    columns = [np.array([deltas[i] for deltas in run], dtype=np.float64) for i in range(3)]
    accepted = bulk.offer_run(*columns)
    assert accepted == head
    trail = [
        (repr(epoch), bottleneck, bound, repr(storage), repr(traffic))
        for epoch, bottleneck, bound, storage, traffic in bulk.trail()
    ]
    assert trail == afters
    rest, _, _ = walk(bulk, run[accepted:])
    assert [True] * accepted + rest == outcomes
    assert state(bulk) == state(alone)
    return accepted


SPEC = ClusterSpec(compute_cores=4, storage_cores=2, bandwidth_mbps=8.0)  # 1 MB/s


def budget_maker(gpu=1.0, compute=8.0, storage=0.0, traffic=4e6, spec=SPEC, **options):
    # T_G 1 s, T_CC 2 s, T_Net 4 s: network-bound.
    return lambda: EpochBudget(spec, EpochMetrics(gpu, compute, storage, traffic), **options)


class TestStops:
    def test_whole_run_accepted_while_network_bound(self):
        run = [(-1.0, 1.0, -1e5)] * 5
        assert assert_fold(budget_maker(), run) == 5

    def test_run_ends_at_a_refusal(self):
        # The third offer puts 12 s on 2 storage cores: T_CS 6 s > T_Net.
        run = [(-1.0, 1.0, -1e5), (-1.0, 1.0, -1e5), (-4.0, 10.0, -1e5), (-1.0, 1.0, -1e5)]
        assert assert_fold(budget_maker(), run) == 2

    def test_refusal_is_accepted_without_never_worsen(self):
        run = [(-1.0, 1.0, -1e5), (-1.0, 1.0, -1e5), (-4.0, 10.0, -1e5), (-1.0, 1.0, -1e5)]
        assert assert_fold(budget_maker(never_worsen=False), run) == 3

    def test_run_ends_where_network_bound_turns_false(self):
        run = [(0.0, 0.0, -2.5e6), (0.0, 0.0, -1e5), (0.0, 0.0, -1e5)]
        assert assert_fold(budget_maker(never_worsen=False), run) == 1

    def test_run_is_empty_when_not_network_bound(self):
        assert assert_fold(budget_maker(traffic=1e6), [(0.0, 0.0, -1e5)]) == 0

    def test_run_ends_at_a_clamp(self):
        run = [(-4.0, 0.0, -1e5), (-4.0 - 1e-12, 0.0, -1e5), (0.0, 0.0, -1e5)]
        assert assert_fold(budget_maker(), run) == 1

    @pytest.mark.parametrize("bad", [(0.0, -2.0, 0.0), (0.0, 0.0, -5e6)])
    def test_negative_storage_or_traffic_raises_at_the_same_candidate(self, bad):
        run = [(-1.0, 1.0, -1e5), bad, (-1.0, 1.0, -1e5)]
        assert assert_fold(budget_maker(), run) == 1

    def test_storage_work_without_storage_cores_raises_at_the_same_candidate(self):
        spec = dataclasses.replace(SPEC, storage_cores=0)
        run = [(0.0, 0.0, -1e5), (-1.0, 1.0, -1e5)]
        assert assert_fold(budget_maker(spec=spec), run) == 1

    def test_int_gpu_time_stays_an_int_estimate(self):
        make = budget_maker(gpu=0, compute=0.0, traffic=0.0, never_worsen=False)
        assert assert_fold(make, [(0.0, 0.0, 0), (0.0, 0.0, 0.0)]) == 2

    def test_signed_zeros_match(self):
        make = budget_maker(gpu=-0.0, compute=-0.0, traffic=0.0)
        assert assert_fold(make, [(0.0, -0.0, -0.0), (-0.0, 0.0, 0.0), (0.0, 0.0, 0.0)]) == 3

    def test_nan_follows_the_scalar_comparisons(self):
        run = [(-1.0, 1.0, -1e5), (math.nan, 0.0, 0.0), (0.0, 0.0, -1e5)]
        assert assert_fold(budget_maker(), run) == 1


#: Few distinct values, so ties, exact zeros and signed zeros are common.
SECONDS = st.one_of(st.sampled_from([0, 0.0, -0.0, 0.25, 1.0, 4.0]), st.floats(0.0, 8.0))


@st.composite
def cases(draw):
    storage_cores = draw(st.integers(0, 3))
    spec = ClusterSpec(
        compute_cores=draw(st.integers(1, 6)),
        storage_cores=storage_cores,
        bandwidth_mbps=draw(st.sampled_from([8.0, 80.0, 800.0])),
        compute_cpu_factor=draw(st.sampled_from([0.5, 1.0, 3.0])),
        storage_cpu_factor=draw(st.sampled_from([0.5, 1.0, 40.0])),
    )
    bandwidth = spec.bandwidth_bytes_per_s
    gpu = draw(SECONDS)
    compute = draw(SECONDS) * spec.compute_cores
    storage = abs(draw(SECONDS)) if storage_cores else 0.0
    # Mostly network-bound (T_Net above the other terms), so runs get long
    # before something stops them; sometimes not bound from the start.
    others = max(
        gpu,
        compute * spec.compute_cpu_factor / spec.compute_cores,
        storage * spec.storage_cpu_factor / storage_cores if storage_cores else 0.0,
    )
    net_s = max(0.0, others + draw(st.one_of(SECONDS, st.floats(-1.0, 0.0))))
    make = budget_maker(
        gpu=gpu,
        compute=compute,
        storage=storage,
        traffic=net_s * bandwidth,
        spec=spec,
        never_worsen=draw(st.booleans()),
        epsilon_s=draw(st.sampled_from([0.0, 1e-9, 0.5])),
    )

    # Deltas in seconds of CPU and of T_Net, so they move the terms about as
    # much as the budget holds; planner bytes are ints.
    saved = st.one_of(
        SECONDS.map(lambda s: s * bandwidth / 8), st.integers(0, int(bandwidth))
    )
    offload = st.builds(lambda m, s: (-m, m, -s), SECONDS, saved)
    compress = st.builds(lambda c, m, s: (c, m, -s), SECONDS, SECONDS, saved)
    fidelity = st.builds(lambda s: (0.0, 0.0, -s), saved)
    run = draw(st.lists(st.one_of(offload, offload, compress, fidelity), max_size=30))
    # At most one candidate that clamps or raises, anywhere in the run.
    poison = st.sampled_from(
        [(-1e3, 1.0, -1.0), (-1e3, 0.0, 0.0), (0.0, -1e3, 0.0), (0.0, 0.0, -1e12)]
    )
    if draw(st.booleans()):
        run.insert(draw(st.integers(0, len(run))), draw(poison))
    return make, run


@given(case=cases())
@draws(300)
def test_offer_run_then_offer_is_the_scalar_fold(case):
    make, run = case
    assert_fold(make, run)
