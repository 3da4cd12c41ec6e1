"""The toy JPEG-like codec: block DCT + quantization + zigzag + deflate.

Encoding path (per plane): level-shift by 128, split into 8x8 blocks,
orthonormal 2-D DCT, divide by the quality-scaled quantization table and
round, zigzag-scan, delta-code the DC coefficients across blocks, serialize
as little-endian int16, deflate.  Color images are converted to YCbCr with
optional 4:2:0 chroma subsampling first.

The point of this codec for the reproduction is that its output size is
genuinely content dependent -- smooth images quantize to long zero runs and
compress far better than textured ones -- which is exactly the property of
real JPEG that SOPHON's per-sample decisions exploit.

The plane-level primitives (:func:`split_planes`, :func:`quantize_plane`,
:func:`reconstruct_plane`, :func:`assemble_image`) are shared with the
progressive variant in :mod:`repro.codec.progressive`, which serializes the
same quantized coefficients as truncatable spectral-selection scans; full
progressive decodes are byte-identical to this codec by construction.
"""

import dataclasses
import operator
import struct
import zlib
from typing import List, Optional, Tuple

import numpy as np
from scipy.fft import dctn, idctn

from repro.codec.blocks import from_blocks, to_blocks
from repro.codec.colorspace import (
    centered_ycbcr_to_rgb,
    rgb_to_ycbcr,
    subsample_420,
    to_uint8,
    upsample_420,
)
from repro.codec.errors import CorruptStreamError, UnsupportedImageError
from repro.codec.quant import BASE_CHROMA_TABLE, BASE_LUMA_TABLE, quality_scaled_table
from repro.codec.zigzag import inverse_zigzag, zigzag_order

_MAGIC = b"TJPG"
_VERSION = 1
# magic, version, flags, quality, height, width, num_planes
_HEADER = struct.Struct("<4sBBBIIB")
_PLANE_HEADER = struct.Struct("<III")  # plane height, width, payload length

_FLAG_SUBSAMPLE = 0x01
_FLAG_GRAYSCALE = 0x02

#: A pixel window of an image or plane: (top, left, height, width).
Window = Tuple[int, int, int, int]


@dataclasses.dataclass(frozen=True)
class CodecConfig:
    """Knobs for :class:`ToyJpegCodec`.

    quality: JPEG-style quality in [1, 100]; higher -> bigger, sharper.
    subsample: apply 4:2:0 chroma subsampling (color images only).
    zlib_level: deflate level for the entropy stage.
    """

    quality: int = 75
    subsample: bool = True
    zlib_level: int = 6

    def __post_init__(self) -> None:
        if not 1 <= self.quality <= 100:
            raise ValueError(f"quality must be in [1, 100], got {self.quality}")
        if not 0 <= self.zlib_level <= 9:
            raise ValueError(f"zlib_level must be in [0, 9], got {self.zlib_level}")


# -- shared plane-level primitives -------------------------------------------


def split_planes(
    image: np.ndarray, config: CodecConfig
) -> Tuple[bool, List[np.ndarray], List[np.ndarray]]:
    """(grayscale, float64 planes, quantization tables) for an input image."""
    grayscale = image.ndim == 2
    if grayscale:
        planes = [image.astype(np.float64)]
        tables = [quality_scaled_table(BASE_LUMA_TABLE, config.quality)]
    else:
        ycc = rgb_to_ycbcr(image)
        luma = ycc[..., 0]
        cb, cr = ycc[..., 1], ycc[..., 2]
        if config.subsample:
            cb, cr = subsample_420(cb), subsample_420(cr)
        chroma_table = quality_scaled_table(BASE_CHROMA_TABLE, config.quality)
        planes = [luma, cb, cr]
        tables = [
            quality_scaled_table(BASE_LUMA_TABLE, config.quality),
            chroma_table,
            chroma_table,
        ]
    return grayscale, planes, tables


def quantize_plane(plane: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Quantized zigzag coefficients for one plane: (num_blocks, 64) int16.

    DC terms (column 0) are delta-coded across blocks so slow brightness
    gradients stay small.
    """
    blocks = to_blocks(plane - 128.0)
    coeffs = dctn(blocks, axes=(-2, -1), norm="ortho")
    quantized = np.round(coeffs / table).astype(np.int16)
    flat = zigzag_order(quantized)
    flat[:, 0] = np.diff(flat[:, 0], prepend=np.int16(0))
    return flat


def reconstruct_plane(
    flat: np.ndarray, width: int, table: np.ndarray, window: Window
) -> np.ndarray:
    """Rebuild the pixel ``window`` of a float plane from delta-DC coefficients.

    ``flat`` is (num_blocks, 64) integer coefficients as produced by
    :func:`quantize_plane` for a plane ``width`` pixels wide (DC still
    delta-coded, so the DC cumsum runs over every block).  Only the 8x8
    blocks that cover ``window`` are transformed.
    """
    top, left, win_h, win_w = window
    cols = (width + 7) // 8
    r0, c0 = top // 8, left // 8
    r1, c1 = (top + win_h + 7) // 8, (left + win_w + 7) // 8
    dc = np.cumsum(flat[:, 0], dtype=np.int64).reshape(-1, cols)[r0:r1, c0:c1]
    # Lay the integer coefficients out row-major, widen them in the table
    # multiply, and put back the DC terms (which can outgrow int16).
    coeffs = np.multiply(inverse_zigzag(flat.reshape(-1, cols, 64)[r0:r1, c0:c1]), table)
    coeffs[..., 0, 0] = dc * table[0, 0]
    blocks = idctn(coeffs.reshape(-1, 8, 8), axes=(-2, -1), norm="ortho", overwrite_x=True)
    blocks += 128.0
    plane = from_blocks(blocks, (r1 - r0) * 8, (c1 - c0) * 8)
    top, left = top - r0 * 8, left - c0 * 8
    return plane[top : top + win_h, left : left + win_w]


def plane_window(window: Window, index: int, grayscale: bool, subsampled: bool) -> Window:
    """The window plane ``index`` must supply for an image ``window``."""
    if grayscale or index == 0 or not subsampled:
        return window
    top, left, height, width = window
    return (
        top // 2,
        left // 2,
        (top + height + 1) // 2 - top // 2,
        (left + width + 1) // 2 - left // 2,
    )


def assemble_image(
    planes: List[np.ndarray], grayscale: bool, subsampled: bool, window: Window
) -> np.ndarray:
    """Combine decoded float planes of an image ``window`` into uint8 pixels.

    Colour windows are built in one (height, width, 3) array: luma is
    copied in, and each chroma plane is centered (``- 128``) at its own
    resolution before the nearest-neighbour upsample writes it, which
    gives the same values as centering after the upsample.
    """
    if grayscale:
        return to_uint8(planes[0].copy())
    top, left, height, width = window
    ycc = np.empty((height, width, 3))
    ycc[..., 0] = planes[0]
    for channel in (1, 2):
        if subsampled:
            phase = (top % 2, left % 2)
            upsample_420(planes[channel] - 128.0, ycc[..., channel], phase)
        else:
            np.subtract(planes[channel], 128.0, out=ycc[..., channel])
    return centered_ycbcr_to_rgb(ycc)


def expected_plane_dims(
    index: int, grayscale: bool, subsampled: bool, height: int, width: int
) -> Tuple[int, int]:
    """The only plane dimensions a valid stream may carry for ``index``."""
    if grayscale or index == 0 or not subsampled:
        return height, width
    return (height + 1) // 2, (width + 1) // 2


def num_blocks_for(height: int, width: int, block: int = 8) -> int:
    """Block count :func:`repro.codec.blocks.to_blocks` yields for a plane."""
    rows = (height + block - 1) // block
    cols = (width + block - 1) // block
    return rows * cols


def _window_entry(value: int) -> int:
    """One window entry as an int; bools and non-integers raise TypeError."""
    if isinstance(value, bool):
        raise TypeError(f"bool window entry {value!r}")
    return operator.index(value)


def image_window(window: Optional[Window], height: int, width: int) -> Window:
    """``window`` checked against a ``height`` x ``width`` image; None is all of it.

    The four entries must be integers (``operator.index``), not bools or
    floats; anything else, or a window outside the image, is a ValueError.
    """
    if window is None:
        return 0, 0, height, width
    try:
        top, left, win_h, win_w = map(_window_entry, window)
    except (TypeError, ValueError):
        raise ValueError(f"window {window!r} is not four integers") from None
    if min(top, left) < 0 or min(win_h, win_w) < 1 or top + win_h > height or left + win_w > width:
        raise ValueError(f"window {tuple(window)} does not fit a {height}x{width} image")
    return top, left, win_h, win_w


def inflate_exact(payload: bytes, expected_bytes: int) -> bytes:
    """Inflate ``payload``, requiring exactly ``expected_bytes`` out.

    Decompression is capped at the expected size, so a hostile stream
    cannot drive a huge allocation through a deflate bomb.
    """
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(payload, expected_bytes + 1)
    except zlib.error as exc:
        raise CorruptStreamError(f"deflate stream corrupt: {exc}") from exc
    if len(raw) != expected_bytes or not inflater.eof or inflater.unused_data:
        raise CorruptStreamError(
            f"payload inflates to {len(raw)}+ bytes, expected {expected_bytes}"
        )
    return raw


def validate_header_dims(height: int, width: int) -> None:
    """Reject header dimensions no encoder could have produced."""
    if height < 1 or width < 1:
        raise CorruptStreamError(f"bad image dimensions {height}x{width}")


def validate_plane_count(num_planes: int, grayscale: bool) -> None:
    """Reject plane counts inconsistent with the stream's grayscale flag."""
    if num_planes not in (1, 3):
        raise CorruptStreamError(f"bad plane count {num_planes}")
    expected = 1 if grayscale else 3
    if num_planes != expected:
        raise CorruptStreamError(
            f"plane count {num_planes} contradicts "
            f"{'grayscale' if grayscale else 'color'} flag (expected {expected})"
        )


class ToyJpegCodec:
    """Lossy image codec with JPEG-like structure and size behaviour."""

    def __init__(self, config: Optional[CodecConfig] = None) -> None:
        self.config = config if config is not None else CodecConfig()

    # -- encoding ---------------------------------------------------------

    def encode(self, image: np.ndarray) -> bytes:
        """Encode an (H, W, 3) or (H, W) uint8 image to bytes."""
        image = self._validate(image)
        height, width = image.shape[:2]
        grayscale, planes, tables = split_planes(image, self.config)

        flags = 0
        if grayscale:
            flags |= _FLAG_GRAYSCALE
        elif self.config.subsample:
            flags |= _FLAG_SUBSAMPLE

        out = [
            _HEADER.pack(
                _MAGIC, _VERSION, flags, self.config.quality, height, width, len(planes)
            )
        ]
        for plane, table in zip(planes, tables):
            payload = self._encode_plane(plane, table)
            out.append(_PLANE_HEADER.pack(plane.shape[0], plane.shape[1], len(payload)))
            out.append(payload)
        return b"".join(out)

    def _encode_plane(self, plane: np.ndarray, table: np.ndarray) -> bytes:
        raw = quantize_plane(plane, table).astype("<i2").tobytes()
        return zlib.compress(raw, self.config.zlib_level)

    # -- decoding ---------------------------------------------------------

    def decode(self, data: bytes, window: Optional[Window] = None) -> np.ndarray:
        """Decode bytes produced by :meth:`encode` back into a uint8 image.

        window: (top, left, height, width) pixels to decode; None means the
            whole image.  The result equals ``decode(data)`` sliced to the
            window, and the whole stream is validated either way.
        """
        if len(data) < _HEADER.size:
            raise CorruptStreamError("stream shorter than header")
        magic, version, flags, quality, height, width, num_planes = _HEADER.unpack_from(
            data
        )
        if magic != _MAGIC:
            raise CorruptStreamError(f"bad magic {magic!r}")
        if version != _VERSION:
            raise CorruptStreamError(f"unsupported version {version}")

        grayscale = bool(flags & _FLAG_GRAYSCALE)
        subsampled = bool(flags & _FLAG_SUBSAMPLE)
        validate_plane_count(num_planes, grayscale)
        validate_header_dims(height, width)
        window = image_window(window, height, width)
        luma_table = quality_scaled_table(BASE_LUMA_TABLE, quality)
        chroma_table = quality_scaled_table(BASE_CHROMA_TABLE, quality)

        offset = _HEADER.size
        planes = []
        for index in range(num_planes):
            if offset + _PLANE_HEADER.size > len(data):
                raise CorruptStreamError("truncated plane header")
            p_h, p_w, p_len = _PLANE_HEADER.unpack_from(data, offset)
            offset += _PLANE_HEADER.size
            want_h, want_w = expected_plane_dims(
                index, grayscale, subsampled, height, width
            )
            if (p_h, p_w) != (want_h, want_w):
                raise CorruptStreamError(
                    f"plane {index} claims {p_h}x{p_w}, header implies "
                    f"{want_h}x{want_w}"
                )
            if offset + p_len > len(data):
                raise CorruptStreamError("truncated plane payload")
            table = luma_table if index == 0 else chroma_table
            raw = inflate_exact(data[offset : offset + p_len], num_blocks_for(p_h, p_w) * 128)
            flat = np.frombuffer(raw, dtype="<i2").reshape(-1, 64)
            planes.append(
                reconstruct_plane(
                    flat, p_w, table, plane_window(window, index, grayscale, subsampled)
                )
            )
            offset += p_len
        if offset != len(data):
            raise CorruptStreamError(
                f"{len(data) - offset} trailing bytes after the last plane"
            )
        return assemble_image(planes, grayscale, subsampled, window)

    # -- helpers ----------------------------------------------------------

    @staticmethod
    def _validate(image: np.ndarray) -> np.ndarray:
        if not isinstance(image, np.ndarray):
            raise UnsupportedImageError(f"expected ndarray, got {type(image).__name__}")
        if image.dtype != np.uint8:
            raise UnsupportedImageError(f"expected uint8 image, got {image.dtype}")
        if image.ndim == 3 and image.shape[2] != 3:
            raise UnsupportedImageError(f"expected 3 channels, got {image.shape[2]}")
        if image.ndim not in (2, 3):
            raise UnsupportedImageError(f"expected 2-D or 3-D image, got {image.ndim}-D")
        if image.shape[0] < 1 or image.shape[1] < 1:
            raise UnsupportedImageError(f"empty image {image.shape}")
        return image
