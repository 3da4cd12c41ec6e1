"""The five preprocessing ops, each with a real path and a metadata path.

Every op implements:

- ``draw_params(rng, in_meta)``: sample any random augmentation parameters.
  Kept separate so the real ``apply`` and the pure ``simulate`` see the
  *same* randomness and therefore agree exactly on sizes and costs.
- ``apply(payload, params)``: the actual transformation over pixels/bytes.
- ``simulate(meta, params)``: the size algebra only.
- ``work_pixels(in_meta, out_meta, params)``: (input, output) pixel counts
  the cost model should charge for.
"""

import abc
import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.codec import CodecConfig, ToyJpegCodec
from repro.codec.jpeg import Window
from repro.preprocessing.payload import Payload, PayloadKind, StageMeta
from repro.preprocessing.resize import resize_bilinear

Params = Dict[str, object]

# ImageNet normalization constants, as in the PyTorch example script.
IMAGENET_MEAN = (0.485, 0.456, 0.406)
IMAGENET_STD = (0.229, 0.224, 0.225)


class Op(abc.ABC):
    """One stage of the preprocessing pipeline."""

    #: Payload kind this op consumes / produces.
    input_kind: PayloadKind
    output_kind: PayloadKind

    @property
    def name(self) -> str:
        return type(self).__name__

    def draw_params(self, rng: np.random.Generator, in_meta: StageMeta) -> Params:
        """Sample augmentation parameters; deterministic ops return {}."""
        return {}

    @abc.abstractmethod
    def apply(self, payload: Payload, params: Params) -> Payload:
        """Transform real data."""

    @abc.abstractmethod
    def simulate(self, meta: StageMeta, params: Params) -> StageMeta:
        """Transform metadata only; must agree with :meth:`apply` on sizes."""

    def work_pixels(
        self, in_meta: StageMeta, out_meta: StageMeta, params: Params
    ) -> Tuple[int, int]:
        """(input, output) pixel counts billed by the cost model."""
        return in_meta.pixels, out_meta.pixels

    def _check_input(self, kind: PayloadKind) -> None:
        if kind is not self.input_kind:
            raise TypeError(
                f"{self.name} expects {self.input_kind.value} input, got {kind.value}"
            )

    def __repr__(self) -> str:
        return f"{self.name}()"


class Decode(Op):
    """Decode the stored compressed bytes into a uint8 RGB image."""

    input_kind = PayloadKind.ENCODED
    output_kind = PayloadKind.IMAGE_U8

    def __init__(self, codec: Optional[ToyJpegCodec] = None) -> None:
        self.codec = codec if codec is not None else ToyJpegCodec(CodecConfig())

    def apply(self, payload: Payload, params: Params, window: Optional[Window] = None) -> Payload:
        """Decode the image, or only its (top, left, height, width) ``window``."""
        self._check_input(payload.kind)
        image = self.codec.decode(payload.data, window=window)
        if image.ndim == 2:  # promote grayscale so downstream ops see 3 channels
            image = np.stack([image] * 3, axis=-1)
        return Payload.image(image)

    def simulate(self, meta: StageMeta, params: Params) -> StageMeta:
        return StageMeta.for_image(meta.height, meta.width)

    def work_pixels(
        self, in_meta: StageMeta, out_meta: StageMeta, params: Params
    ) -> Tuple[int, int]:
        # Decode cost scales with the decoded pixel count, not the byte count.
        return 0, out_meta.pixels


class RandomResizedCrop(Op):
    """Crop a random area/aspect region, then resize to a fixed square.

    Parameter sampling follows torchvision's RandomResizedCrop: up to ten
    rejection-sampling attempts over (scale, ratio), then a center-crop
    fallback.
    """

    input_kind = PayloadKind.IMAGE_U8
    output_kind = PayloadKind.IMAGE_U8

    def __init__(
        self,
        size: int = 224,
        scale: Tuple[float, float] = (0.08, 1.0),
        ratio: Tuple[float, float] = (3.0 / 4.0, 4.0 / 3.0),
    ) -> None:
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        if not 0 < scale[0] <= scale[1]:
            raise ValueError(f"bad scale range {scale}")
        if not 0 < ratio[0] <= ratio[1]:
            raise ValueError(f"bad ratio range {ratio}")
        self.size = size
        self.scale = scale
        self.ratio = ratio

    def draw_params(self, rng: np.random.Generator, in_meta: StageMeta) -> Params:
        height, width = in_meta.height, in_meta.width
        area = height * width
        log_ratio = (math.log(self.ratio[0]), math.log(self.ratio[1]))
        for _ in range(10):
            target_area = area * rng.uniform(self.scale[0], self.scale[1])
            aspect = math.exp(rng.uniform(log_ratio[0], log_ratio[1]))
            crop_w = int(round(math.sqrt(target_area * aspect)))
            crop_h = int(round(math.sqrt(target_area / aspect)))
            if 0 < crop_w <= width and 0 < crop_h <= height:
                top = int(rng.integers(0, height - crop_h + 1))
                left = int(rng.integers(0, width - crop_w + 1))
                return {"top": top, "left": left, "crop_h": crop_h, "crop_w": crop_w}
        # Center-crop fallback at the closest in-range aspect ratio.
        in_ratio = width / height
        if in_ratio < self.ratio[0]:
            crop_w = width
            crop_h = min(height, int(round(crop_w / self.ratio[0])))
        elif in_ratio > self.ratio[1]:
            crop_h = height
            crop_w = min(width, int(round(crop_h * self.ratio[1])))
        else:
            crop_w, crop_h = width, height
        top = (height - crop_h) // 2
        left = (width - crop_w) // 2
        return {"top": top, "left": left, "crop_h": crop_h, "crop_w": crop_w}

    def apply(self, payload: Payload, params: Params) -> Payload:
        self._check_input(payload.kind)
        top, left = params["top"], params["left"]
        crop_h, crop_w = params["crop_h"], params["crop_w"]
        region = payload.data[top : top + crop_h, left : left + crop_w]
        return Payload.image(resize_bilinear(region, self.size, self.size))

    def simulate(self, meta: StageMeta, params: Params) -> StageMeta:
        return StageMeta.for_image(self.size, self.size)

    def work_pixels(
        self, in_meta: StageMeta, out_meta: StageMeta, params: Params
    ) -> Tuple[int, int]:
        crop_pixels = int(params["crop_h"]) * int(params["crop_w"])
        return crop_pixels, out_meta.pixels

    def __repr__(self) -> str:
        return f"RandomResizedCrop(size={self.size})"


class RandomHorizontalFlip(Op):
    """Flip the image left-right with probability ``p``."""

    input_kind = PayloadKind.IMAGE_U8
    output_kind = PayloadKind.IMAGE_U8

    def __init__(self, p: float = 0.5) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        self.p = p

    def draw_params(self, rng: np.random.Generator, in_meta: StageMeta) -> Params:
        return {"flip": bool(rng.random() < self.p)}

    def apply(self, payload: Payload, params: Params) -> Payload:
        self._check_input(payload.kind)
        if params["flip"]:
            return Payload.image(np.ascontiguousarray(payload.data[:, ::-1]))
        return Payload.image(payload.data)

    def simulate(self, meta: StageMeta, params: Params) -> StageMeta:
        return StageMeta.for_image(meta.height, meta.width, meta.channels)

    def work_pixels(
        self, in_meta: StageMeta, out_meta: StageMeta, params: Params
    ) -> Tuple[int, int]:
        return 0, out_meta.pixels if params.get("flip") else 0

    def __repr__(self) -> str:
        return f"RandomHorizontalFlip(p={self.p})"


class ToTensor(Op):
    """uint8 HWC in [0, 255] -> float32 CHW in [0.0, 1.0].

    This is the op that quadruples a sample's byte size (Finding #2), which
    is why the minimum-size stage is almost always *before* it.
    """

    input_kind = PayloadKind.IMAGE_U8
    output_kind = PayloadKind.TENSOR_F32

    def apply(self, payload: Payload, params: Params) -> Payload:
        self._check_input(payload.kind)
        tensor = np.ascontiguousarray(payload.data.transpose(2, 0, 1), dtype=np.float32)
        return Payload.tensor(np.divide(tensor, 255.0, out=tensor))

    def simulate(self, meta: StageMeta, params: Params) -> StageMeta:
        return StageMeta.for_tensor(meta.height, meta.width, meta.channels)


class Normalize(Op):
    """Channel-wise (x - mean) / std over a float tensor."""

    input_kind = PayloadKind.TENSOR_F32
    output_kind = PayloadKind.TENSOR_F32

    def __init__(
        self,
        mean: Sequence[float] = IMAGENET_MEAN,
        std: Sequence[float] = IMAGENET_STD,
    ) -> None:
        if len(mean) != len(std):
            raise ValueError(f"mean/std length mismatch: {len(mean)} vs {len(std)}")
        if any(s == 0 for s in std):
            raise ValueError("std must be non-zero")
        self.mean = np.asarray(mean, dtype=np.float32).reshape(-1, 1, 1)
        self.std = np.asarray(std, dtype=np.float32).reshape(-1, 1, 1)

    def apply(self, payload: Payload, params: Params) -> Payload:
        self._check_input(payload.kind)
        if payload.data.shape[0] != self.mean.shape[0]:
            raise ValueError(
                f"tensor has {payload.data.shape[0]} channels, "
                f"normalize configured for {self.mean.shape[0]}"
            )
        tensor = payload.data - self.mean  # a fresh array: the input is never mutated
        return Payload.tensor(np.divide(tensor, self.std, out=tensor))

    def simulate(self, meta: StageMeta, params: Params) -> StageMeta:
        return StageMeta.for_tensor(meta.height, meta.width, meta.channels)
