"""Training telemetry: batch timelines and data-stall breakdowns.

The paper frames its motivation in data-stall terms (citing the
DS-Analyzer line of work): a GPU that sits idle waiting for the input
pipeline is wasted capital.  This package records per-batch timelines from
the trainer simulation and decomposes an epoch into GPU-busy time vs
data-stall time, which is how Figure 1d's utilization numbers are framed.
"""

from repro.metrics.timeline import (
    BatchTrace,
    StallBreakdown,
    Timeline,
    stall_breakdown,
)

__all__ = [
    "BatchTrace",
    "StallBreakdown",
    "Timeline",
    "stall_breakdown",
]
