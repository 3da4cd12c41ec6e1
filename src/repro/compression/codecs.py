"""Payload compression codecs and their cost/size models."""

import dataclasses
from typing import Dict

from repro.preprocessing.payload import PayloadKind


@dataclasses.dataclass(frozen=True)
class KindProfile:
    """Compression behaviour for one payload kind.

    ratio: expected compressed/uncompressed size (1.0 = incompressible).
    compress_bytes_per_s / decompress_bytes_per_s: single-core throughput.
    """

    ratio: float
    compress_bytes_per_s: float
    decompress_bytes_per_s: float

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio <= 1.5:
            raise ValueError(f"ratio must be in (0, 1.5], got {self.ratio}")
        if self.compress_bytes_per_s <= 0 or self.decompress_bytes_per_s <= 0:
            raise ValueError("throughputs must be > 0")


class CompressionModel:
    """Expected sizes and CPU costs of compressing each payload kind.

    The default ratios reflect what deflate actually does to this
    pipeline's payloads: stored samples are already entropy-coded
    (incompressible, ratio ~1), uint8 pixels compress moderately, float32
    tensors compress a little better because the mantissa bytes of
    normalized values repeat.  Throughputs approximate single-core zlib
    level 1.
    """

    DEFAULT_PROFILES: Dict[PayloadKind, KindProfile] = {
        PayloadKind.ENCODED: KindProfile(
            ratio=1.0, compress_bytes_per_s=250e6, decompress_bytes_per_s=500e6
        ),
        PayloadKind.IMAGE_U8: KindProfile(
            ratio=0.72, compress_bytes_per_s=180e6, decompress_bytes_per_s=450e6
        ),
        PayloadKind.TENSOR_F32: KindProfile(
            ratio=0.58, compress_bytes_per_s=180e6, decompress_bytes_per_s=450e6
        ),
    }

    def __init__(self, profiles: Dict[PayloadKind, KindProfile] = None) -> None:
        self.profiles = dict(self.DEFAULT_PROFILES if profiles is None else profiles)

    def profile_for(self, kind: PayloadKind) -> KindProfile:
        try:
            return self.profiles[kind]
        except KeyError:
            raise KeyError(f"no compression profile for kind {kind}") from None

    def compressed_bytes(self, kind: PayloadKind, nbytes: int) -> int:
        return int(round(nbytes * self.profile_for(kind).ratio))

    def savings_bytes(self, kind: PayloadKind, nbytes: int) -> int:
        return nbytes - self.compressed_bytes(kind, nbytes)

    def compress_seconds(self, kind: PayloadKind, nbytes: int) -> float:
        return nbytes / self.profile_for(kind).compress_bytes_per_s

    def decompress_seconds(self, kind: PayloadKind, nbytes: int) -> float:
        compressed = self.compressed_bytes(kind, nbytes)
        return compressed / self.profile_for(kind).decompress_bytes_per_s
