"""Per-batch GPU-time profiles for the paper's models.

Only the *relative* compute intensity matters for reproduction: AlexNet is
compute-light (easily I/O-bound, the paper's main workload), ResNet-18 is
mid, ResNet-50 is compute-heavy (near-full GPU utilization in Figure 1d).
Throughputs below are representative published numbers for the two GPUs the
paper mentions; they set T_G in the epoch model and the GPU hold time in the
event simulator.
"""

import dataclasses
from typing import Dict, Tuple

from repro.utils.floats import checked


@dataclasses.dataclass(frozen=True)
class ModelProfile:
    """GPU timing for one (model, gpu) pair.

    images_per_second: steady-state training throughput when the GPU is
        never starved.
    batch_size: the batch size the throughput was profiled at (and the
        default batch size for experiments using this profile).
    """

    model: str
    gpu: str
    images_per_second: float
    batch_size: int = 256

    def __post_init__(self) -> None:
        checked("images_per_second", self.images_per_second, 0.0, open_low=True)
        checked("batch_size", self.batch_size, 1, integral=True)

    @property
    def seconds_per_image(self) -> float:
        return 1.0 / self.images_per_second

    def batch_time_s(self, batch_size: int) -> float:
        """GPU seconds for one batch of ``batch_size`` images."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        return batch_size * self.seconds_per_image

    def epoch_gpu_time_s(self, num_samples: int) -> float:
        """Serial GPU seconds for one epoch over ``num_samples`` images."""
        if num_samples < 0:
            raise ValueError(f"num_samples must be >= 0, got {num_samples}")
        return num_samples * self.seconds_per_image


MODEL_REGISTRY: Dict[Tuple[str, str], ModelProfile] = {}


def register_model_profile(profile: ModelProfile) -> None:
    """Add or replace a profile in the registry."""
    MODEL_REGISTRY[(profile.model, profile.gpu)] = profile


for _profile in (
    # RTX-6000: the paper's evaluation GPU (section 4).
    ModelProfile("alexnet", "rtx6000", images_per_second=4000.0),
    ModelProfile("resnet18", "rtx6000", images_per_second=1300.0),
    ModelProfile("resnet50", "rtx6000", images_per_second=420.0),
    # V100: the GPU of the Figure 1d motivation experiment.
    ModelProfile("alexnet", "v100", images_per_second=3000.0),
    ModelProfile("resnet18", "v100", images_per_second=1100.0),
    ModelProfile("resnet50", "v100", images_per_second=390.0),
):
    register_model_profile(_profile)


def get_model_profile(model: str, gpu: str = "rtx6000") -> ModelProfile:
    """Look up a registered profile; raises KeyError with the known keys."""
    try:
        return MODEL_REGISTRY[(model, gpu)]
    except KeyError:
        known = ", ".join(f"{m}/{g}" for m, g in sorted(MODEL_REGISTRY))
        raise KeyError(f"no profile for {model}/{gpu}; known: {known}") from None
