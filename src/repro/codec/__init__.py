"""Toy image codec used as the synthetic stand-in for JPEG.

The paper's datasets are JPEG files; SOPHON's behaviour depends on the fact
that a compressed raw file can be either smaller or larger than the
decoded-and-cropped uint8 pixels.  This package provides a real, lossy,
content-dependent codec (8x8 block DCT + quality-scaled quantization + zigzag
+ DC prediction + deflate) so that encoded sizes respond to image content the
way JPEG sizes do, without shipping binary JPEG machinery.

Public API:

- :class:`ToyJpegCodec` -- encode/decode uint8 RGB images; ``decode``
  takes an optional pixel window and decodes only the blocks it reads.
- :class:`CodecConfig` -- quality / subsampling knobs.
- :class:`ProgressiveJpegCodec` / :class:`ProgressiveCodecConfig` -- the
  layered variant whose streams decode from any scan prefix
  (:mod:`repro.codec.progressive`).
- :func:`truncate_scans` / :func:`scan_sizes` / :func:`scan_count_of` --
  byte-level scan-prefix manipulation of progressive streams.
- :func:`scan_prefix_metrics` / :class:`ScanFidelity` -- PSNR/MSE of each
  scan prefix against the full decode.
"""

from repro.codec.errors import CodecError, CorruptStreamError
from repro.codec.quant import BASE_LUMA_TABLE, quality_scaled_table
from repro.codec.zigzag import zigzag_indices, zigzag_order, inverse_zigzag
from repro.codec.jpeg import CodecConfig, ToyJpegCodec
from repro.codec.metrics import mse, psnr
from repro.codec.progressive import (
    DEFAULT_SCAN_BANDS,
    ProgressiveCodecConfig,
    ProgressiveJpegCodec,
    ScanFidelity,
    scan_count_of,
    scan_prefix_metrics,
    scan_sizes,
    truncate_scans,
)

__all__ = [
    "BASE_LUMA_TABLE",
    "CodecConfig",
    "CodecError",
    "CorruptStreamError",
    "DEFAULT_SCAN_BANDS",
    "ProgressiveCodecConfig",
    "ProgressiveJpegCodec",
    "ScanFidelity",
    "ToyJpegCodec",
    "inverse_zigzag",
    "mse",
    "psnr",
    "quality_scaled_table",
    "scan_count_of",
    "scan_prefix_metrics",
    "scan_sizes",
    "truncate_scans",
    "zigzag_indices",
    "zigzag_order",
]
