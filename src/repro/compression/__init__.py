"""Selective compression of partially preprocessed payloads.

Paper section 6 (future work): "design a strategy to selectively compress
preprocessed data, further reducing data traffic while considering
potential CPU overhead increases."  This package implements that strategy:

- :class:`CompressionModel` -- per-payload-kind compressibility ratios and
  CPU throughputs so the planner and simulator can reason about traces;
- :class:`SelectiveCompressor` -- a greedy planner in the spirit of the
  offload decision engine: compress the samples with the best
  bytes-saved-per-CPU-second until the network stops being predominant.
"""

from repro.compression.codecs import CompressionModel
from repro.compression.selective import (
    CompressionDecision,
    CompressionPlan,
    SelectiveCompressor,
)
from repro.compression.joint import JointPlan, JointPlanner

__all__ = [
    "CompressionDecision",
    "CompressionModel",
    "CompressionPlan",
    "JointPlan",
    "JointPlanner",
    "SelectiveCompressor",
]
