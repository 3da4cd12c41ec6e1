"""SLO engine: percentiles, objective validation, burn rates, windows."""

import json
import math

import pytest

from repro.cli import main as cli_main
from repro.telemetry.clock import ManualClock
from repro.telemetry.slo import (
    LATENCY,
    NO_SAMPLES,
    RATE,
    SCHEMA,
    Objective,
    SloEvaluator,
    judge,
    latency_objective,
    percentile,
    rate_objective,
)


class TestPercentile:
    def test_nearest_rank_semantics(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile(values, 0.5) == 2.0
        assert percentile(values, 0.51) == 3.0
        assert percentile(values, 1.0) == 4.0
        # q=0 still yields the smallest sample (rank floors at 1).
        assert percentile(values, 0.0) == 1.0

    def test_empty_sequence_raises(self):
        with pytest.raises(ValueError, match="empty sequence"):
            percentile([], 0.5)

    def test_q_out_of_range_raises(self):
        with pytest.raises(ValueError, match=r"q must be in \[0, 1\]"):
            percentile([1.0], 1.5)


class TestObjective:
    def test_latency_needs_quantile(self):
        with pytest.raises(ValueError, match="quantile"):
            Objective(name="p50", kind=LATENCY, threshold=1.0, quantile=0.0)

    def test_rate_needs_bad_outcomes(self):
        with pytest.raises(ValueError, match="bad outcome"):
            Objective(name="errs", kind=RATE, threshold=0.1)

    def test_kind_and_threshold_validated(self):
        with pytest.raises(ValueError, match="bad objective kind"):
            Objective(name="x", kind="uptime", threshold=1.0)
        with pytest.raises(ValueError, match="threshold"):
            latency_objective("p99", 0.99, -1.0)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, True])
    def test_threshold_must_be_a_finite_number(self, threshold):
        # NaN used to pass the `< 0` check and render "p95 latency <= nans".
        with pytest.raises(ValueError, match="threshold"):
            latency_objective("p95", 0.95, threshold)
        with pytest.raises(ValueError, match="threshold"):
            rate_objective("shed", ["shed"], threshold)

    @pytest.mark.parametrize("quantile", [True, math.nan, "0.5", 1.5, -0.1])
    def test_quantile_must_be_a_number_in_range(self, quantile):
        # True used to pass `0 < quantile <= 1` and build a quantile=True objective.
        with pytest.raises(ValueError, match="quantile"):
            latency_objective("p", quantile, 1.0)

    def test_shorthands(self):
        lat = latency_objective("p99", 0.99, 2.0)
        assert (lat.kind, lat.quantile, lat.threshold) == (LATENCY, 0.99, 2.0)
        rate = rate_objective("shed", ["shed", "failed"], 0.25)
        assert (rate.kind, rate.bad_outcomes) == (RATE, ("shed", "failed"))


class TestSloEvaluator:
    def test_needs_objectives_and_unique_names(self):
        with pytest.raises(ValueError, match="at least one objective"):
            SloEvaluator([])
        dup = latency_objective("p50", 0.5, 1.0)
        with pytest.raises(ValueError, match="duplicate"):
            SloEvaluator([dup, dup])

    def test_negative_latency_rejected(self):
        evaluator = SloEvaluator([latency_objective("p50", 0.5, 1.0)])
        with pytest.raises(ValueError, match="latency_s"):
            evaluator.record(-0.1)

    @pytest.mark.parametrize("latency_s", [math.nan, math.inf])
    def test_non_finite_latency_rejected(self, latency_s):
        evaluator = SloEvaluator([latency_objective("p50", 0.5, 1.0)])
        with pytest.raises(ValueError, match="latency_s"):
            evaluator.record(latency_s)
        assert evaluator.samples == 0

    def test_batch_pass_fail_and_burn(self):
        evaluator = SloEvaluator(
            [
                latency_objective("p50", 0.5, 1.0),
                rate_objective("shed", ["shed"], 0.25),
            ]
        )
        for latency, outcome in [(0.2, "ok"), (0.4, "ok"), (0.6, "shed"), (0.8, "ok")]:
            evaluator.record(latency, outcome)
        report = evaluator.evaluate()
        by_name = {r.objective.name: r for r in report.results}
        assert by_name["p50"].observed == 0.4
        assert by_name["p50"].passed
        assert by_name["p50"].burn_rate == pytest.approx(0.4)
        assert by_name["shed"].observed == 0.25
        assert by_name["shed"].passed  # <= threshold is within budget
        assert by_name["shed"].burn_rate == pytest.approx(1.0)
        assert report.passed and report.samples == 4

    def test_violation_flips_the_report(self):
        evaluator = SloEvaluator([latency_objective("p99", 0.99, 0.1)])
        evaluator.record(0.5)
        report = evaluator.evaluate()
        assert not report.passed
        assert report.results[0].burn_rate == pytest.approx(5.0)
        assert "VIOLATED" in report.render() and "FAIL" in report.render()

    def test_zero_threshold_has_no_burn_rate(self):
        evaluator = SloEvaluator([rate_objective("failed", ["failed"], 0.0)])
        evaluator.record(0.1, "ok")
        result = evaluator.evaluate().results[0]
        assert result.observed == 0.0
        assert result.passed
        assert result.burn_rate is None

    def test_no_data_is_a_no_samples_verdict_never_a_pass(self):
        evaluator = SloEvaluator(
            [latency_objective("p50", 0.5, 1.0), rate_objective("shed", ["shed"], 0.5)]
        )
        report = evaluator.evaluate()
        assert not report.passed and report.samples == 0
        for result in report.results:
            assert result.observed is None and result.burn_rate is None
            assert result.verdict == NO_SAMPLES and not result.passed
        assert "n/a" in report.render() and "overall: FAIL" in report.render()
        assert report.to_dict()["objectives"][0]["verdict"] == NO_SAMPLES

    def test_sliding_window_prunes_old_observations(self):
        clock = ManualClock()
        evaluator = SloEvaluator(
            [latency_objective("p50", 0.5, 1.0)], window_s=10.0, clock=clock
        )
        evaluator.record(5.0)  # at t=0: violating
        clock.advance(20.0)
        evaluator.record(0.1)  # at t=20: the old sample is outside the window
        report = evaluator.evaluate()
        assert report.samples == 1
        assert report.results[0].observed == 0.1
        assert report.passed

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError, match="window_s"):
            SloEvaluator([latency_objective("p50", 0.5, 1.0)], window_s=0.0)

    @pytest.mark.parametrize("window_s", [math.nan, math.inf])
    def test_window_must_be_finite(self, window_s):
        with pytest.raises(ValueError, match="window_s"):
            SloEvaluator([latency_objective("p50", 0.5, 1.0)], window_s=window_s)

    def test_to_dict_schema(self):
        evaluator = SloEvaluator(
            [
                latency_objective("p50", 0.5, 1.0),
                rate_objective("shed", ["shed"], 0.25),
            ]
        )
        evaluator.record(0.3, "ok")
        payload = evaluator.evaluate().to_dict()
        assert payload["schema"] == SCHEMA
        assert payload["passed"] is True
        assert payload["samples"] == 1
        assert payload["window_s"] is None
        names = [obj["name"] for obj in payload["objectives"]]
        assert names == ["p50", "shed"]
        assert payload["objectives"][0]["quantile"] == 0.5
        assert payload["objectives"][1]["bad_outcomes"] == ["shed"]


class TestJudge:
    def test_the_one_verdict_rule(self):
        assert judge(0.5, 1.0) == ("ok", 0.5)
        assert judge(1.0, 1.0) == ("ok", 1.0)
        assert judge(2.0, 1.0) == ("VIOLATED", 2.0)
        assert judge(0.0, 0.0) == ("ok", None)
        assert judge(None, 1.0) == (NO_SAMPLES, None)


class TestSloCommand:
    """``sophon-repro slo`` judges a saved report with the same rule."""

    def _report(self, tmp_path, observed):
        objectives = [
            {"name": "plan_p50", "kind": "latency", "threshold": 2.5, "observed": observed},
            {"name": "error_rate", "kind": "rate", "threshold": 1.0, "observed": observed},
        ]
        path = tmp_path / "BENCH_service.json"
        slo = {"schema": SCHEMA, "samples": 0, "window_s": None, "objectives": objectives}
        path.write_text(json.dumps({"requests": 0, "slo": slo}))
        return str(path)

    def test_a_zero_request_report_is_not_within_budget(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exited:
            cli_main(["slo", self._report(tmp_path, None)])
        assert exited.value.code == 1
        out = capsys.readouterr().out
        assert "no samples" in out and "within budget" not in out

    def test_a_met_report_passes_until_an_override_breaks_it(self, tmp_path, capsys):
        path = self._report(tmp_path, 0.1)
        assert cli_main(["slo", path]) == 0
        assert "all objectives within budget" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exited:
            cli_main(["slo", path, "--max", "plan_p50=0.05"])
        assert exited.value.code == 1
        assert "VIOLATED" in capsys.readouterr().out
