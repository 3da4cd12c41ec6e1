"""Payload containers flowing through the preprocessing pipeline.

A :class:`Payload` is what an op consumes/produces: encoded bytes, a uint8
image, or a float32 tensor.  A :class:`StageMeta` is the metadata shadow of a
payload -- just enough (kind, dimensions, byte size) to compute wire sizes
and CPU costs without materializing pixels.  Ops implement both a real
``apply`` over payloads and a pure ``simulate`` over metas, and tests assert
the two agree.

:class:`SupportsFetch` is the contract of everything that serves payloads
to the data loader -- a local dataset, the RPC and TCP clients, the
retry/degraded-mode wrappers, cache fetchers: ``fetch(sample_id, epoch,
split) -> Payload``.  It lives here, beside the payload it returns, so
``repro.data`` and ``repro.rpc`` both annotate with it without importing
each other.
"""

import dataclasses
import enum
from typing import Optional, Protocol, Sequence, Union, runtime_checkable

import numpy as np


class PayloadKind(enum.Enum):
    """The representation a sample is in at a given pipeline stage."""

    ENCODED = "encoded"  # compressed bytes as stored (raw JPEG in the paper)
    IMAGE_U8 = "image_u8"  # decoded uint8 HxWx3 pixels
    TENSOR_F32 = "tensor_f32"  # float32 CxHxW tensor

    @property
    def bytes_per_value(self) -> int:
        """Bytes per scalar value for array kinds (1 for encoded streams)."""
        return 4 if self is PayloadKind.TENSOR_F32 else 1


@dataclasses.dataclass(frozen=True)
class StageMeta:
    """Metadata shadow of a payload: enough to size and cost it.

    nbytes: serialized size of the payload at this stage.
    height/width: spatial dimensions (None while still encoded-only traces
        lack them -- but all datasets in this repo record dimensions).
    """

    kind: PayloadKind
    nbytes: int
    height: int
    width: int
    channels: int = 3

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {self.nbytes}")
        if self.height < 1 or self.width < 1:
            raise ValueError(f"bad dimensions {self.height}x{self.width}")

    @property
    def pixels(self) -> int:
        """Pixel count (spatial only, excludes channels)."""
        return self.height * self.width

    @classmethod
    def for_encoded(cls, nbytes: int, height: int, width: int) -> "StageMeta":
        return cls(PayloadKind.ENCODED, nbytes, height, width)

    @classmethod
    def for_image(cls, height: int, width: int, channels: int = 3) -> "StageMeta":
        return cls(PayloadKind.IMAGE_U8, height * width * channels, height, width, channels)

    @classmethod
    def for_tensor(cls, height: int, width: int, channels: int = 3) -> "StageMeta":
        return cls(
            PayloadKind.TENSOR_F32, height * width * channels * 4, height, width, channels
        )


@dataclasses.dataclass
class BatchMeta:
    """Array-of-lanes form of :class:`StageMeta`.

    All arrays are int64 with one entry per sample lane; ``kind`` is
    shared by the whole batch (every op has a fixed output kind).
    """

    kind: PayloadKind
    nbytes: np.ndarray
    height: np.ndarray
    width: np.ndarray
    channels: np.ndarray

    @classmethod
    def from_metas(cls, metas: Sequence[StageMeta]) -> "BatchMeta":
        if not metas:
            raise ValueError("cannot build a BatchMeta from zero metas")
        kind = metas[0].kind
        if any(meta.kind is not kind for meta in metas):
            raise ValueError("batch mixes payload kinds")
        return cls(
            kind=kind,
            nbytes=np.array([meta.nbytes for meta in metas], dtype=np.int64),
            height=np.array([meta.height for meta in metas], dtype=np.int64),
            width=np.array([meta.width for meta in metas], dtype=np.int64),
            channels=np.array([meta.channels for meta in metas], dtype=np.int64),
        )

    def __len__(self) -> int:
        return int(self.nbytes.shape[0])

    def lane(self, index: int) -> StageMeta:
        """The single-sample :class:`StageMeta` for one lane."""
        return StageMeta(
            kind=self.kind,
            nbytes=int(self.nbytes[index]),
            height=int(self.height[index]),
            width=int(self.width[index]),
            channels=int(self.channels[index]),
        )


@dataclasses.dataclass
class Payload:
    """A sample's data at some pipeline stage.

    ``data`` is bytes for ENCODED, an (H, W, C) uint8 array for IMAGE_U8, or
    a (C, H, W) float32 array for TENSOR_F32.
    """

    kind: PayloadKind
    data: Union[bytes, np.ndarray]

    @classmethod
    def encoded(cls, data: bytes, height: Optional[int] = None, width: Optional[int] = None) -> "Payload":
        payload = cls(PayloadKind.ENCODED, data)
        payload._hint_height = height  # decoded dims, when known up front
        payload._hint_width = width
        return payload

    @classmethod
    def image(cls, array: np.ndarray) -> "Payload":
        if array.dtype != np.uint8 or array.ndim != 3:
            raise ValueError(f"image payload must be (H, W, C) uint8, got {array.dtype} {array.shape}")
        return cls(PayloadKind.IMAGE_U8, array)

    @classmethod
    def tensor(cls, array: np.ndarray) -> "Payload":
        if array.dtype != np.float32 or array.ndim != 3:
            raise ValueError(f"tensor payload must be (C, H, W) float32, got {array.dtype} {array.shape}")
        return cls(PayloadKind.TENSOR_F32, array)

    @property
    def nbytes(self) -> int:
        """Serialized payload size in bytes (what crosses the wire)."""
        if self.kind is PayloadKind.ENCODED:
            return len(self.data)
        return int(self.data.nbytes)

    @property
    def meta(self) -> StageMeta:
        """The metadata shadow of this payload."""
        if self.kind is PayloadKind.ENCODED:
            height = getattr(self, "_hint_height", None) or 1
            width = getattr(self, "_hint_width", None) or 1
            return StageMeta.for_encoded(self.nbytes, height, width)
        if self.kind is PayloadKind.IMAGE_U8:
            h, w, c = self.data.shape
            return StageMeta.for_image(h, w, c)
        c, h, w = self.data.shape
        return StageMeta.for_tensor(h, w, c)


@runtime_checkable
class SupportsFetch(Protocol):
    """Anything that can serve a sample with ops ``1..split`` applied."""

    def fetch(self, sample_id: int, epoch: int, split: int) -> Payload:
        """Return sample *sample_id* for *epoch* with the prefix applied."""
        ...


@runtime_checkable
class SupportsScanFetch(Protocol):
    """A source that can serve a truncated scan prefix of a raw sample.

    The fidelity axis's transport contract: samples stored as progressive
    streams (:mod:`repro.codec.progressive`) can ship only their first
    ``scan_count`` scans -- fewer bytes, reduced fidelity, still decodable.
    """

    def fetch_scans(self, sample_id: int, epoch: int, scan_count: int) -> Payload:
        """Return the first ``scan_count`` scans of the raw encoded sample."""
        ...
