"""Declarative SLOs with sliding-window burn-rate evaluation.

An :class:`Objective` states one promise about the service: a latency
percentile bound ("p99 of request latency stays under 10s") or an outcome
rate bound ("no more than 20% of requests are shed").  The
:class:`SloEvaluator` accumulates per-request observations -- latency plus
a terminal outcome string -- on an injectable
:data:`~repro.telemetry.clock.Clock`, optionally pruning them to a sliding
window, and :meth:`~SloEvaluator.evaluate` renders a schema-versioned
:class:`SloReport` with the observed value, :func:`judge`'s verdict (no
observations is never a pass), and burn rate (observed / threshold; 1.0
means the error budget is spent exactly as fast as allowed) per objective.

``repro.service.loadgen`` embeds the report as the ``slo`` section of
``BENCH_service.json`` and exits non-zero on violations, which is what
lets ``make bench`` and CI gate on p50/p99 regressions.  The
``sophon-repro slo`` subcommand re-checks a saved report against
(possibly overridden) thresholds.
"""

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.telemetry.clock import Clock, LogicalClock
from repro.utils.floats import checked

#: Schema tag stamped on every serialized report.
SCHEMA = "sophon-slo/v1"

#: Objective kinds.
LATENCY = "latency"
RATE = "rate"

#: Objective verdicts; only OK passes.
OK = "ok"
VIOLATED = "VIOLATED"
NO_SAMPLES = "no samples"


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) over an unsorted sequence."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclasses.dataclass(frozen=True)
class Objective:
    """One declarative promise: a latency percentile or an outcome rate.

    ``kind=LATENCY``: the ``quantile`` percentile of observed latencies
    must stay <= ``threshold`` seconds.  ``kind=RATE``: the fraction of
    observations whose outcome is in ``bad_outcomes`` must stay <=
    ``threshold``.
    """

    name: str
    kind: str
    threshold: float
    quantile: float = 0.0
    bad_outcomes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("objective name must be non-empty")
        if self.kind not in (LATENCY, RATE):
            raise ValueError(f"bad objective kind {self.kind!r}")
        checked("threshold", self.threshold, 0.0)
        if self.kind == LATENCY and checked("quantile", self.quantile, 0.0, open_low=True) > 1:
            raise ValueError(f"latency objective needs quantile <= 1, got {self.quantile}")
        if self.kind == RATE and not self.bad_outcomes:
            raise ValueError("rate objective needs at least one bad outcome")


def latency_objective(name: str, quantile: float, threshold_s: float) -> Objective:
    """Shorthand: the ``quantile`` latency must stay <= ``threshold_s``."""
    return Objective(name=name, kind=LATENCY, threshold=threshold_s, quantile=quantile)


def rate_objective(name: str, bad_outcomes: Sequence[str], max_rate: float) -> Objective:
    """Shorthand: the rate of ``bad_outcomes`` must stay <= ``max_rate``."""
    return Objective(
        name=name, kind=RATE, threshold=max_rate, bad_outcomes=tuple(bad_outcomes)
    )


def judge(observed: Optional[float], threshold: float) -> Tuple[str, Optional[float]]:
    """(verdict, observed / threshold); no observation is never a pass."""
    if observed is None:
        return NO_SAMPLES, None
    verdict = OK if observed <= threshold else VIOLATED
    return verdict, observed / threshold if threshold > 0 else None


@dataclasses.dataclass(frozen=True)
class ObjectiveResult:
    """One objective evaluated against the current window."""

    objective: Objective
    observed: Optional[float]  # None when the window holds no observations
    verdict: str  # OK, VIOLATED or NO_SAMPLES
    burn_rate: Optional[float]  # observed / threshold; None if either is None or 0

    @property
    def passed(self) -> bool:
        return self.verdict == OK

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.objective.name,
            "kind": self.objective.kind,
            "threshold": self.objective.threshold,
            "observed": self.observed,
            "passed": self.passed,
            "verdict": self.verdict,
            "burn_rate": self.burn_rate,
        }
        if self.objective.kind == LATENCY:
            payload["quantile"] = self.objective.quantile
        else:
            payload["bad_outcomes"] = list(self.objective.bad_outcomes)
        return payload


@dataclasses.dataclass(frozen=True)
class SloReport:
    """Every objective's verdict over one evaluation window."""

    results: Tuple[ObjectiveResult, ...]
    samples: int
    window_s: Optional[float]

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA,
            "passed": self.passed,
            "samples": self.samples,
            "window_s": self.window_s,
            "objectives": [result.to_dict() for result in self.results],
        }

    def render(self) -> str:
        """Human-readable verdict table."""
        lines = [f"SLO report ({self.samples} samples)"]
        for result in self.results:
            objective = result.objective
            if objective.kind == LATENCY:
                what = f"p{objective.quantile * 100:g} latency <= {objective.threshold:g}s"
            else:
                outcomes = ",".join(objective.bad_outcomes)
                what = f"rate({outcomes}) <= {objective.threshold:g}"
            observed = "n/a" if result.observed is None else f"{result.observed:.6g}"
            burn = "n/a" if result.burn_rate is None else f"{result.burn_rate:.3g}"
            lines.append(
                f"  [{result.verdict:>8}] {objective.name}: {what} "
                f"(observed {observed}, burn rate {burn})"
            )
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class _Observation:
    at_s: float
    latency_s: float
    outcome: str


class SloEvaluator:
    """Accumulates observations and evaluates objectives over a window.

    ``window_s=None`` keeps every observation (batch mode, what the
    loadgen uses for its final report); a finite window prunes
    observations older than ``clock() - window_s`` on each record and
    evaluate, which is what turns burn rates into *recent* burn rates for
    a long-lived service.
    """

    def __init__(
        self,
        objectives: Sequence[Objective],
        window_s: Optional[float] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        if not objectives:
            raise ValueError("need at least one objective")
        if window_s is not None:
            checked("window_s", window_s, 0.0, open_low=True)
        names = [objective.name for objective in objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective names in {names}")
        self.objectives: Tuple[Objective, ...] = tuple(objectives)
        self.window_s = window_s
        self.clock: Clock = clock if clock is not None else LogicalClock()
        self._observations: List[_Observation] = []

    def record(self, latency_s: float, outcome: str = "ok") -> None:
        """One finished request: its latency and terminal outcome."""
        checked("latency_s", latency_s, 0.0)
        now = self.clock()
        self._observations.append(
            _Observation(at_s=now, latency_s=latency_s, outcome=outcome)
        )
        self._prune(now)

    def _prune(self, now_s: float) -> None:
        if self.window_s is None:
            return
        horizon = now_s - self.window_s
        # Observations arrive in clock order, so one scan from the left.
        keep = 0
        while keep < len(self._observations) and self._observations[keep].at_s < horizon:
            keep += 1
        if keep:
            del self._observations[:keep]

    @property
    def samples(self) -> int:
        return len(self._observations)

    def _evaluate_one(self, objective: Objective) -> ObjectiveResult:
        observed: Optional[float] = None
        if self._observations and objective.kind == LATENCY:
            observed = percentile(
                [obs.latency_s for obs in self._observations], objective.quantile
            )
        elif self._observations:
            bad = sum(
                1 for obs in self._observations if obs.outcome in objective.bad_outcomes
            )
            observed = bad / len(self._observations)
        verdict, burn_rate = judge(observed, objective.threshold)
        return ObjectiveResult(
            objective=objective, observed=observed, verdict=verdict, burn_rate=burn_rate
        )

    def evaluate(self) -> SloReport:
        """Verdicts for every objective over the (pruned) window."""
        if self.window_s is not None:
            self._prune(self.clock())
        return SloReport(
            results=tuple(self._evaluate_one(obj) for obj in self.objectives),
            samples=len(self._observations),
            window_s=self.window_s,
        )
