"""Utility tests: RNG derivation, units, tables."""

import numpy as np
import pytest

from repro.utils.floats import checked
from repro.utils.rng import derive_rng, op_rng, sample_rng
from repro.utils.tables import render_table
from repro.utils.units import format_bytes, format_seconds, mbps_to_bytes_per_s


class TestRng:
    def test_same_key_same_stream(self):
        a = op_rng(1, 2, 3, 4).random(5)
        b = op_rng(1, 2, 3, 4).random(5)
        assert np.array_equal(a, b)

    def test_any_component_changes_the_stream(self):
        base = op_rng(1, 2, 3, 4).random()
        assert op_rng(9, 2, 3, 4).random() != base
        assert op_rng(1, 9, 3, 4).random() != base
        assert op_rng(1, 2, 9, 4).random() != base
        assert op_rng(1, 2, 3, 9).random() != base

    def test_key_order_matters(self):
        assert derive_rng(1, 2).random() != derive_rng(2, 1).random()

    def test_negative_components_rejected(self):
        with pytest.raises(ValueError):
            derive_rng(1, -2)

    def test_sample_rng_with_salt(self):
        assert sample_rng(0, 1).random() != sample_rng(0, 1, salt=7).random()


class TestUnits:
    def test_mbps_conversion(self):
        assert mbps_to_bytes_per_s(500.0) == pytest.approx(62.5e6)

    def test_mbps_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mbps_to_bytes_per_s(0.0)

    @pytest.mark.parametrize(
        "n,expected",
        [
            (0, "0 B"),
            (999, "999 B"),
            (1500, "1.50 KB"),
            (2.5e6, "2.50 MB"),
            (3.1e9, "3.10 GB"),
            (-1500, "-1.50 KB"),
        ],
    )
    def test_format_bytes(self, n, expected):
        assert format_bytes(n) == expected

    @pytest.mark.parametrize(
        "s,expected",
        [
            (0.0125, "12.5 ms"),
            (2.5, "2.50 s"),
            (90.0, "1m30.0s"),
            (3723.0, "1h02m03.0s"),
            (-2.5, "-2.50 s"),
        ],
    )
    def test_format_seconds(self, s, expected):
        assert format_seconds(s) == expected


class TestTables:
    def test_renders_aligned_columns(self):
        out = render_table(("A", "Bee"), [("x", 1), ("long", 22)])
        lines = out.splitlines()
        assert lines[0].startswith("A")
        assert "Bee" in lines[0]
        assert lines[1].startswith("-")
        assert len(lines) == 4

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(("A", "B"), [("only-one",)])

    def test_empty_rows_ok(self):
        out = render_table(("A",), [])
        assert out.splitlines()[0] == "A"


class TestChecked:
    def test_returns_in_range_numbers(self):
        assert checked("x", 2.5, 0.0, open_low=True) == 2.5
        assert checked("x", 0.0, 0.0) == 0.0
        assert checked("n", np.int64(4), 1, integral=True) == 4
        assert checked("n", 10**400, 0, integral=True) == 10**400

    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), float("-inf"), np.float64("nan"), True, np.True_, "3", None],
    )
    def test_rejects_non_finite_and_non_numbers(self, value):
        with pytest.raises(ValueError, match="x must be"):
            checked("x", value, 0.0)

    def test_bounds(self):
        with pytest.raises(ValueError, match="> 0"):
            checked("x", 0.0, 0.0, open_low=True)
        with pytest.raises(ValueError, match=">= 1"):
            checked("n", 0, 1, integral=True)

    @pytest.mark.parametrize("value", [1.5, 2.0, np.float64(3.0)])
    def test_counts_must_be_integers(self, value):
        with pytest.raises(ValueError, match="integer"):
            checked("n", value, 0, integral=True)

