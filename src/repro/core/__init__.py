"""SOPHON's core: two-stage profiler + decision engine + policy facade.

The flow mirrors Figure 2 of the paper:

(a) :class:`StageOneProfiler` probes GPU / I/O / CPU throughput over the
    first batches to classify the workload's bottleneck.
(b) If I/O-bound, :class:`StageTwoProfiler` collects per-sample stage sizes
    and op costs during the first (non-offloaded) epoch.
(c) :class:`DecisionEngine` greedily selects samples by offloading
    efficiency until the network stops being the predominant metric.
(d-f) The resulting :class:`OffloadPlan` drives fetch requests; the storage
    server executes each sample's prefix and the compute node finishes.

:class:`Sophon` packages (a)-(c) behind the common :class:`Policy`
interface shared with the baselines.
"""

from repro.core.policy import Policy, PolicyContext
from repro.core.plan import OffloadPlan
from repro.core.profiler import (
    StageOneProfiler,
    StageTwoProfiler,
    ThroughputProbe,
)
from repro.core.decision import DecisionConfig, DecisionEngine
from repro.core.degraded import DegradedModeFetcher, Demotion, OutageReport
from repro.core.efficiency import efficiency_distribution, EfficiencySummary
from repro.core.fidelity import FidelityConfig, FidelityPlanner
from repro.core.sophon import Sophon

__all__ = [
    "DecisionConfig",
    "DecisionEngine",
    "DegradedModeFetcher",
    "Demotion",
    "EfficiencySummary",
    "FidelityConfig",
    "FidelityPlanner",
    "OffloadPlan",
    "OutageReport",
    "Policy",
    "PolicyContext",
    "Sophon",
    "StageOneProfiler",
    "StageTwoProfiler",
    "ThroughputProbe",
    "efficiency_distribution",
]
