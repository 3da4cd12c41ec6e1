"""Plan JSON tests: what ``plan --save`` writes, read back with ``json``."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan import OffloadPlan
from repro.core.serialize import plan_to_json


class TestPlanSerialization:
    def test_round_trip(self):
        plan = OffloadPlan(splits=[0, 2, 0, 5], reason="test plan")
        doc = json.loads(plan_to_json(plan))
        assert doc == {
            "version": 1,
            "kind": "offload-plan",
            "splits": [0, 2, 0, 5],
            "reason": "test plan",
        }

    def test_empty_plan(self):
        assert json.loads(plan_to_json(OffloadPlan(splits=[])))["splits"] == []

    @given(splits=st.lists(st.integers(0, 5), max_size=50))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, splits):
        plan = OffloadPlan(splits=splits)
        assert json.loads(plan_to_json(plan))["splits"] == splits
