"""FidelityPlanner tests: the byte-identity gate and the fidelity pass."""

import json

import pytest

from repro.cluster.spec import standard_cluster
from repro.core.decision import DecisionEngine
from repro.core.fidelity import FidelityConfig, FidelityPlanner
from repro.core.plan import OffloadPlan
from repro.core.serialize import plan_to_json
from repro.preprocessing.records import ProgressiveSampleRecord, SampleRecord
from repro.telemetry.audit import FIDELITY_DEGRADED, AuditLog

CROP = 224 * 224 * 3

#: PSNR ladder used throughout: scan 2 (33dB) clears a 30dB floor, scan 3
#: (45dB) clears a 40dB one, the full prefix is exact.
LADDER = (25.0, 33.0, 45.0, float("inf"))


def prog_record(sample_id, raw, psnrs=LADDER, prefix_cost=0.01):
    sizes = (raw, raw * 4, CROP, CROP, CROP * 4, CROP * 4)
    costs = (prefix_cost * 0.8, prefix_cost * 0.2, 0.0001, 0.0005, 0.0008)
    scan_sizes = (raw // 8, raw // 4, raw // 2, raw)
    return ProgressiveSampleRecord(
        sample_id, sizes, costs, scan_sizes=scan_sizes, scan_psnr_db=psnrs
    )


def plain_record(sample_id, raw, prefix_cost=0.01):
    sizes = (raw, raw * 4, CROP, CROP, CROP * 4, CROP * 4)
    costs = (prefix_cost * 0.8, prefix_cost * 0.2, 0.0001, 0.0005, 0.0008)
    return SampleRecord(sample_id, sizes, costs)


@pytest.fixture
def tight_spec():
    # A link slow enough that the split pass alone cannot unbind the
    # network for the record shapes below.
    return standard_cluster().with_bandwidth(40.0)


@pytest.fixture
def records():
    # raw < CROP: the split axis has nothing to offer (min stage is 0), so
    # any traffic relief must come from fidelity.
    return [prog_record(i, CROP // 2 + 4096 * i) for i in range(8)]


class TestByteIdentityGate:
    """Inapplicable fidelity must change nothing, bytewise."""

    def test_plain_records_pass_through_unchanged(self, tight_spec):
        # Nothing progressive to degrade: the engine's plan comes back as
        # the same object.
        plain = [plain_record(i, CROP // 2) for i in range(4)]
        planner = FidelityPlanner()
        plan = planner.plan(plain, tight_spec, gpu_time_s=0.01)
        assert plan.scan_counts is None
        assert "fidelity" not in plan.reason

    def test_not_network_bound_passes_through(self, records, tight_spec):
        # Huge GPU time: nothing to fix, the base plan object is returned.
        engine = DecisionEngine()
        planner = FidelityPlanner(engine)
        plan = planner.plan(records, tight_spec, gpu_time_s=10_000.0)
        assert plan.scan_counts is None


class TestFidelityPass:
    def test_degrades_to_deepest_admissible_prefix(self, records, tight_spec):
        plan = FidelityPlanner(config=FidelityConfig(min_psnr_db=30.0)).plan(
            records, tight_spec, gpu_time_s=0.01
        )
        assert plan.num_degraded > 0
        # 33dB (scan 2) is the deepest rung clearing a 30dB floor.
        degraded = [c for c in plan.scan_counts if c is not None]
        assert set(degraded) == {2}
        assert "fidelity: degraded" in plan.reason

    def test_traffic_shrinks_and_splits_are_untouched(self, records, tight_spec):
        engine = DecisionEngine()
        base = engine.plan(records, tight_spec, gpu_time_s=0.01)
        plan = FidelityPlanner(engine).plan(records, tight_spec, gpu_time_s=0.01)
        assert list(plan.splits) == list(base.splits)
        assert plan.expected_traffic_bytes(records) < base.expected_traffic_bytes(
            records
        )

    def test_higher_floor_ships_more_bytes(self, records, tight_spec):
        def traffic(floor):
            plan = FidelityPlanner(config=FidelityConfig(min_psnr_db=floor)).plan(
                records, tight_spec, gpu_time_s=0.01
            )
            return plan.expected_traffic_bytes(records)

        assert traffic(25.0) <= traffic(30.0) <= traffic(40.0)

    def test_floor_above_every_rung_passes_through(self, records, tight_spec):
        plan = FidelityPlanner(config=FidelityConfig(min_psnr_db=50.0)).plan(
            records, tight_spec, gpu_time_s=0.01
        )
        assert plan.scan_counts is None

    def test_min_scans_floor_is_respected(self, records, tight_spec):
        plan = FidelityPlanner(
            config=FidelityConfig(min_psnr_db=30.0, min_scans=3)
        ).plan(records, tight_spec, gpu_time_s=0.01)
        degraded = [c for c in plan.scan_counts if c is not None]
        assert degraded and all(c >= 3 for c in degraded)

    def test_audit_amended_with_fidelity_outcome(self, records, tight_spec):
        audit = AuditLog()
        plan = FidelityPlanner().plan(
            records, tight_spec, gpu_time_s=0.01, audit=audit
        )
        degraded_ids = [
            i for i, c in enumerate(plan.scan_counts or []) if c is not None
        ]
        assert degraded_ids
        for sample_id in degraded_ids:
            entry = audit.get(sample_id)
            assert entry.outcome == FIDELITY_DEGRADED
            assert entry.chosen_scans == plan.scan_count_for(sample_id)
            assert entry.fidelity_psnr_db == pytest.approx(33.0)
            assert "was " in entry.reason
        assert "fidelity" in audit.explain(degraded_ids[0])

    @pytest.mark.parametrize(
        "field, value",
        [
            ("min_psnr_db", float("nan")),
            ("min_psnr_db", float("inf")),
            ("min_psnr_db", -1.0),
            ("psnr_cap_db", float("nan")),
            ("psnr_cap_db", float("inf")),
            ("min_scans", 1.5),
            ("min_scans", True),
        ],
    )
    def test_config_rejects_non_finite_or_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            FidelityConfig(**{field: value})

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FidelityConfig(min_scans=0)
        with pytest.raises(ValueError):
            FidelityConfig(psnr_cap_db=0.0)


class TestPlanScanCounts:
    def test_scan_counts_require_split_zero(self):
        with pytest.raises(ValueError):
            OffloadPlan(splits=[2, 0], scan_counts=[1, None])

    def test_scan_counts_length_must_match(self):
        with pytest.raises(ValueError):
            OffloadPlan(splits=[0, 0], scan_counts=[1])

    def test_scan_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            OffloadPlan(splits=[0], scan_counts=[0])

    def test_accessors(self):
        plan = OffloadPlan(splits=[0, 0, 2], scan_counts=[2, None, None])
        assert plan.num_degraded == 1
        assert plan.scan_count_for(0) == 2
        assert plan.scan_count_for(1) is None

    def test_expected_traffic_uses_fidelity_sizes(self, records):
        plan = OffloadPlan(
            splits=[0] * len(records),
            scan_counts=[2] + [None] * (len(records) - 1),
        )
        expected = sum(r.raw_size for r in records) - records[0].fidelity_savings(2)
        assert plan.expected_traffic_bytes(records, overhead_bytes=0) == expected

    def test_expected_traffic_rejects_plain_records_with_counts(self):
        plain = [plain_record(0, CROP)]
        plan = OffloadPlan(splits=[0], scan_counts=[1])
        with pytest.raises(ValueError):
            plan.expected_traffic_bytes(plain, overhead_bytes=0)

    def test_clamped_for_preserves_scan_counts(self, records, tight_spec):
        plan = FidelityPlanner().plan(records, tight_spec, gpu_time_s=0.01)
        assert plan.num_degraded > 0
        clamped = plan.clamped_for(tight_spec)
        assert clamped.scan_counts == plan.scan_counts


class TestSerialization:
    def test_plan_with_scan_counts_round_trips(self, records, tight_spec):
        plan = FidelityPlanner().plan(records, tight_spec, gpu_time_s=0.01)
        assert plan.num_degraded > 0
        doc = json.loads(plan_to_json(plan))
        assert tuple(doc["scan_counts"]) == tuple(plan.scan_counts)
        restored = OffloadPlan(
            splits=doc["splits"], reason=doc["reason"], scan_counts=doc["scan_counts"]
        )
        assert plan_to_json(restored) == plan_to_json(plan)

    def test_audit_fidelity_fields_round_trip(self, records, tight_spec):
        audit = AuditLog()
        FidelityPlanner().plan(records, tight_spec, gpu_time_s=0.01, audit=audit)
        restored = AuditLog.from_dicts(audit.to_dicts())
        assert restored.to_dicts() == audit.to_dicts()
        assert any(r.chosen_scans is not None for r in restored)
