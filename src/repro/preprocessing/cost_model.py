"""Deterministic CPU-cost model for preprocessing ops.

All timing in the reproduction runs on a virtual clock, so op costs come
from an explicit model: affine in the op's input/output pixel counts.  The
default constants are calibrated so that the pipeline-level ratios match the
paper's setting (decode dominates; the offloadable prefix of a mean
OpenImages sample costs ~13 ms of one Xeon core; the full 40k-sample subset
costs minutes of single-core time).  :func:`calibrate` re-derives constants
from real wall-clock measurements of the numpy ops for anyone who wants the
model tied to their machine instead.
"""

import dataclasses
import time
from typing import Callable, Dict, Optional

import numpy as np

from repro.telemetry.clock import Clock


@dataclasses.dataclass(frozen=True)
class OpCost:
    """Affine cost for one op: fixed + per-input-pixel + per-output-pixel.

    "Pixels" are spatial (H*W); channel handling is folded into the
    constants.  All rates are in nanoseconds.
    """

    fixed_ns: float = 0.0
    ns_per_input_pixel: float = 0.0
    ns_per_output_pixel: float = 0.0

    def seconds(self, input_pixels: int, output_pixels: int) -> float:
        total_ns = (
            self.fixed_ns
            + self.ns_per_input_pixel * input_pixels
            + self.ns_per_output_pixel * output_pixels
        )
        return total_ns * 1e-9


# Default constants.  Decode is by far the most expensive op, as in every
# published measurement of JPEG-based training pipelines; ToTensor/Normalize
# are cheap per-pixel passes over the (small) cropped image.
DEFAULT_OP_COSTS: Dict[str, OpCost] = {
    "Decode": OpCost(fixed_ns=30_000.0, ns_per_output_pixel=7.0),
    "RandomResizedCrop": OpCost(
        fixed_ns=10_000.0, ns_per_input_pixel=3.0, ns_per_output_pixel=10.0
    ),
    "RandomHorizontalFlip": OpCost(fixed_ns=5_000.0, ns_per_output_pixel=1.0),
    "ToTensor": OpCost(fixed_ns=10_000.0, ns_per_output_pixel=4.0),
    "Normalize": OpCost(fixed_ns=10_000.0, ns_per_output_pixel=6.0),
}


class CostModel:
    """Maps (op, work size) to single-core CPU seconds.

    cpu_speed_factor scales all costs and models heterogeneous CPU types
    across nodes (paper section 6 future work): a storage node with
    ``cpu_speed_factor=2.0`` takes twice as long per op.
    """

    def __init__(
        self,
        op_costs: Optional[Dict[str, OpCost]] = None,
        cpu_speed_factor: float = 1.0,
    ) -> None:
        if cpu_speed_factor <= 0:
            raise ValueError(f"cpu_speed_factor must be > 0, got {cpu_speed_factor}")
        self.op_costs = dict(DEFAULT_OP_COSTS if op_costs is None else op_costs)
        self.cpu_speed_factor = cpu_speed_factor

    def cost_for(self, op_name: str) -> OpCost:
        try:
            return self.op_costs[op_name]
        except KeyError:
            raise KeyError(
                f"no cost entry for op {op_name!r}; known ops: {sorted(self.op_costs)}"
            ) from None

    def op_seconds(self, op_name: str, input_pixels: int, output_pixels: int) -> float:
        """Single-core seconds to run ``op_name`` over the given work size."""
        base = self.cost_for(op_name).seconds(input_pixels, output_pixels)
        return base * self.cpu_speed_factor

    def scaled(self, cpu_speed_factor: float) -> "CostModel":
        """A copy of this model with a different CPU speed factor."""
        return CostModel(self.op_costs, cpu_speed_factor)


DEFAULT_COST_MODEL = CostModel()


def _measure(
    fn: Callable[..., object],
    *args: object,
    repeats: int = 3,
    timer: Clock = time.perf_counter,
) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = timer()
        fn(*args)
        best = min(best, timer() - start)
    return best


def calibrate(
    image_side: int = 512, repeats: int = 3, timer: Clock = time.perf_counter
) -> Dict[str, OpCost]:
    """Measure real op costs on this machine.

    Returns a cost table in the same shape as :data:`DEFAULT_OP_COSTS`,
    attributing each op's measured time to its dominant per-pixel term.
    This exists so the virtual-clock constants can be re-grounded; the
    shipped defaults were produced the same way and then rounded.  Flip,
    ToTensor and Normalize are timed through their own ``apply`` on a
    :class:`~repro.preprocessing.payload.Payload`, so the table describes
    the kernels the pipeline runs.  The timer is injectable
    (:data:`~repro.telemetry.clock.Clock` protocol) so tests calibrate
    against a deterministic clock.
    """
    from repro.codec import CodecConfig, ToyJpegCodec
    from repro.preprocessing.ops import Normalize, RandomHorizontalFlip, ToTensor
    from repro.preprocessing.payload import Payload
    from repro.preprocessing.resize import resize_bilinear

    rng = np.random.default_rng(0)
    image = rng.integers(0, 256, size=(image_side, image_side, 3), dtype=np.uint8)
    pixels = image_side * image_side
    codec = ToyJpegCodec(CodecConfig())
    encoded = codec.encode(image)

    decode_s = _measure(codec.decode, encoded, repeats=repeats, timer=timer)
    resize_s = _measure(resize_bilinear, image, 224, 224, repeats=repeats, timer=timer)
    flip_s = _measure(
        RandomHorizontalFlip().apply, Payload.image(image), {"flip": True},
        repeats=repeats, timer=timer,
    )
    small = Payload.image(image[:224, :224])
    to_tensor = ToTensor()
    to_tensor_s = _measure(to_tensor.apply, small, {}, repeats=repeats, timer=timer)
    normalize_s = _measure(
        Normalize().apply, to_tensor.apply(small, {}), {}, repeats=repeats, timer=timer
    )

    out_pixels = 224 * 224
    return {
        "Decode": OpCost(ns_per_output_pixel=decode_s * 1e9 / pixels),
        "RandomResizedCrop": OpCost(
            ns_per_input_pixel=resize_s * 1e9 / pixels / 2,
            ns_per_output_pixel=resize_s * 1e9 / out_pixels / 2,
        ),
        "RandomHorizontalFlip": OpCost(ns_per_output_pixel=flip_s * 1e9 / pixels),
        "ToTensor": OpCost(ns_per_output_pixel=to_tensor_s * 1e9 / out_pixels),
        "Normalize": OpCost(ns_per_output_pixel=normalize_s * 1e9 / out_pixels),
    }
