"""Cost model tests."""

import pytest

from repro.preprocessing.cost_model import (
    CostModel,
    DEFAULT_COST_MODEL,
    DEFAULT_OP_COSTS,
    OpCost,
    calibrate,
)
from repro.preprocessing.ops import Normalize, RandomHorizontalFlip, ToTensor
from repro.telemetry.clock import ManualClock


class TestOpCost:
    def test_affine_formula(self):
        cost = OpCost(fixed_ns=1000, ns_per_input_pixel=2, ns_per_output_pixel=3)
        assert cost.seconds(10, 20) == pytest.approx((1000 + 20 + 60) * 1e-9)

    def test_zero_work_costs_fixed_only(self):
        cost = OpCost(fixed_ns=500)
        assert cost.seconds(0, 0) == pytest.approx(5e-7)


class TestCostModel:
    def test_default_covers_all_five_ops(self):
        for name in ("Decode", "RandomResizedCrop", "RandomHorizontalFlip",
                     "ToTensor", "Normalize"):
            assert DEFAULT_COST_MODEL.op_seconds(name, 1000, 1000) > 0

    def test_decode_dominates_the_pipeline(self):
        pixels = 1_000_000
        decode = DEFAULT_COST_MODEL.op_seconds("Decode", 0, pixels)
        others = sum(
            DEFAULT_COST_MODEL.op_seconds(name, 0, 224 * 224)
            for name in ("RandomHorizontalFlip", "ToTensor", "Normalize")
        )
        assert decode > 3 * others

    def test_unknown_op_raises_with_known_names(self):
        with pytest.raises(KeyError, match="Decode"):
            DEFAULT_COST_MODEL.op_seconds("Blur", 10, 10)

    def test_speed_factor_scales_costs(self):
        slow = DEFAULT_COST_MODEL.scaled(2.0)
        assert slow.op_seconds("Decode", 0, 1000) == pytest.approx(
            2.0 * DEFAULT_COST_MODEL.op_seconds("Decode", 0, 1000)
        )

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            CostModel(cpu_speed_factor=0.0)

    def test_scaled_preserves_table(self):
        slow = DEFAULT_COST_MODEL.scaled(3.0)
        assert slow.op_costs == DEFAULT_COST_MODEL.op_costs


class TestCalibration:
    def test_calibrate_produces_positive_rates_for_all_ops(self):
        table = calibrate(image_side=64, repeats=1)
        assert set(table) == set(DEFAULT_OP_COSTS)
        for name, cost in table.items():
            total = cost.fixed_ns + cost.ns_per_input_pixel + cost.ns_per_output_pixel
            assert total > 0, name

    def test_calibrated_table_usable_in_model(self):
        model = CostModel(calibrate(image_side=64, repeats=1))
        assert model.op_seconds("Decode", 0, 64 * 64) > 0

    def test_flip_to_tensor_and_normalize_time_their_own_apply(self, monkeypatch):
        """The clock moves only inside the three ops' ``apply``, by a
        known amount per call: each calibrated rate is exactly that
        amount over the pixels, and every other op's rate is zero."""
        clock = ManualClock()
        charges = {RandomHorizontalFlip: 1e-3, ToTensor: 2e-3, Normalize: 3e-3}
        for op, seconds in charges.items():

            def timed(self, payload, params, _apply=op.apply, _seconds=seconds):
                result = _apply(self, payload, params)
                clock.advance(_seconds)
                return result

            monkeypatch.setattr(op, "apply", timed)
        side = 256
        table = calibrate(image_side=side, repeats=2, timer=clock)
        crop = 224 * 224
        assert table["RandomHorizontalFlip"].ns_per_output_pixel == pytest.approx(1e6 / side**2)
        assert table["ToTensor"].ns_per_output_pixel == pytest.approx(2e6 / crop)
        assert table["Normalize"].ns_per_output_pixel == pytest.approx(3e6 / crop)
        for name in ("Decode", "RandomResizedCrop"):
            cost = table[name]
            assert cost.ns_per_input_pixel + cost.ns_per_output_pixel == 0, name
