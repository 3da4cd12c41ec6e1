"""Progressive variant of the toy codec: truncatable spectral-selection scans.

Following *Progressive Compressed Records* (Kuchnik et al.), the encoder
serializes the same quantized DCT coefficients as :class:`ToyJpegCodec`,
but grouped into **scans** by zigzag frequency band: the DC terms and low
frequencies ship first, higher bands follow.  Scans are laid out
scan-major (scan 0 of every plane, then scan 1 of every plane, ...), so
keeping any prefix of the scan sequence is literally keeping a byte
prefix of the payload region -- :func:`truncate_scans` slices, it never
re-encodes.

A decoder reconstructs a valid (reduced-fidelity) image from any scan
prefix by treating the missing bands as zero coefficients; decoding *all*
scans reproduces the baseline codec's output byte-for-byte, because both
paths share the plane primitives in :mod:`repro.codec.jpeg`.

Stream format (little endian)::

    header     <4sBBBIIBB>  magic "TJPP", version, flags, quality,
                            height, width, num_planes, num_scans
    band table num_scans bytes: cumulative zigzag upper bounds, last = 64
    directory  num_scans * num_planes uint32 payload lengths, scan-major
    payloads   deflated int16 band coefficients, scan-major

The directory always describes the *full* scan sequence, so a truncated
stream still knows what it is missing -- the traffic-vs-fidelity planner
reads rung sizes straight from the directory of the stored object.
"""

import dataclasses
import struct
import zlib
from typing import List, Optional, Tuple

import numpy as np

from repro.codec.errors import CorruptStreamError
from repro.codec.jpeg import (
    CodecConfig,
    ToyJpegCodec,
    Window,
    assemble_image,
    expected_plane_dims,
    image_window,
    inflate_exact,
    num_blocks_for,
    plane_window,
    quantize_plane,
    reconstruct_plane,
    split_planes,
    validate_header_dims,
    validate_plane_count,
)
from repro.codec.metrics import mse, psnr
from repro.codec.quant import BASE_CHROMA_TABLE, BASE_LUMA_TABLE, quality_scaled_table

PROGRESSIVE_MAGIC = b"TJPP"
_BASELINE_MAGIC = b"TJPG"
_VERSION = 1
# magic, version, flags, quality, height, width, num_planes, num_scans
_HEADER = struct.Struct("<4sBBBIIBB")
_LENGTH = struct.Struct("<I")

_FLAG_SUBSAMPLE = 0x01
_FLAG_GRAYSCALE = 0x02

#: Default spectral-selection bands (cumulative zigzag upper bounds): the
#: DC scan, then progressively wider AC bands.  Five rungs give the
#: planner a usable fidelity ladder without per-scan overhead dominating.
DEFAULT_SCAN_BANDS: Tuple[int, ...] = (1, 6, 15, 28, 64)


@dataclasses.dataclass(frozen=True)
class ProgressiveCodecConfig:
    """Knobs for :class:`ProgressiveJpegCodec`.

    base: the underlying DCT/quantization/deflate knobs (shared with the
        baseline codec so full-scan decodes match it exactly).
    scan_bands: cumulative zigzag-coefficient upper bounds, one per scan;
        strictly increasing, first >= 1, last == 64.  ``(1, 6, 15, 28, 64)``
        means scan 0 carries the DC terms, scan 1 coefficients 1..5, and
        so on.
    """

    base: CodecConfig = dataclasses.field(default_factory=CodecConfig)
    scan_bands: Tuple[int, ...] = DEFAULT_SCAN_BANDS

    def __post_init__(self) -> None:
        bands = tuple(int(b) for b in self.scan_bands)
        object.__setattr__(self, "scan_bands", bands)
        if not bands:
            raise ValueError("scan_bands must name at least one scan")
        if bands[0] < 1:
            raise ValueError(f"first scan band must be >= 1, got {bands[0]}")
        if any(b2 <= b1 for b1, b2 in zip(bands, bands[1:])):
            raise ValueError(f"scan_bands must strictly increase, got {bands}")
        if bands[-1] != 64:
            raise ValueError(f"last scan band must be 64, got {bands[-1]}")

    @property
    def num_scans(self) -> int:
        return len(self.scan_bands)


@dataclasses.dataclass(frozen=True)
class _ParsedStream:
    """Everything the header region of a progressive stream pins down."""

    flags: int
    quality: int
    height: int
    width: int
    grayscale: bool
    subsampled: bool
    num_planes: int
    bands: Tuple[int, ...]
    #: lengths[scan][plane] -> deflated payload byte length.
    lengths: Tuple[Tuple[int, ...], ...]
    #: Absolute stream offset where each scan's payload group starts;
    #: one extra entry marking the end of the final scan.
    scan_offsets: Tuple[int, ...]
    #: Complete scans actually present in the (possibly truncated) stream.
    available_scans: int

    @property
    def num_scans(self) -> int:
        return len(self.bands)

    def plane_dims(self, index: int) -> Tuple[int, int]:
        return expected_plane_dims(
            index, self.grayscale, self.subsampled, self.height, self.width
        )

    def band_range(self, scan: int) -> Tuple[int, int]:
        lo = 0 if scan == 0 else self.bands[scan - 1]
        return lo, self.bands[scan]


def _parse_stream(data: bytes) -> _ParsedStream:
    """Parse and validate everything up to the payload region.

    Accepts streams whose payload region is truncated at a scan boundary;
    anything else -- bad magic, inconsistent flags, a directory that does
    not match the bytes on the wire -- raises :class:`CorruptStreamError`.
    """
    if len(data) < _HEADER.size:
        raise CorruptStreamError("stream shorter than header")
    magic, version, flags, quality, height, width, num_planes, num_scans = (
        _HEADER.unpack_from(data)
    )
    if magic != PROGRESSIVE_MAGIC:
        raise CorruptStreamError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise CorruptStreamError(f"unsupported version {version}")
    if not 1 <= quality <= 100:
        raise CorruptStreamError(f"quality {quality} outside [1, 100]")
    grayscale = bool(flags & _FLAG_GRAYSCALE)
    subsampled = bool(flags & _FLAG_SUBSAMPLE)
    validate_plane_count(num_planes, grayscale)
    validate_header_dims(height, width)
    if num_scans < 1:
        raise CorruptStreamError("stream declares zero scans")

    offset = _HEADER.size
    if offset + num_scans > len(data):
        raise CorruptStreamError("truncated scan band table")
    bands = tuple(data[offset : offset + num_scans])
    offset += num_scans
    if bands[0] < 1 or bands[-1] != 64 or any(
        b2 <= b1 for b1, b2 in zip(bands, bands[1:])
    ):
        raise CorruptStreamError(f"invalid scan band table {bands}")

    directory_size = _LENGTH.size * num_scans * num_planes
    if offset + directory_size > len(data):
        raise CorruptStreamError("truncated scan directory")
    lengths: List[Tuple[int, ...]] = []
    for _ in range(num_scans):
        row = []
        for _ in range(num_planes):
            (length,) = _LENGTH.unpack_from(data, offset)
            offset += _LENGTH.size
            row.append(length)
        lengths.append(tuple(row))

    scan_offsets = [offset]
    for row in lengths:
        scan_offsets.append(scan_offsets[-1] + sum(row))

    available = 0
    for scan in range(num_scans):
        if scan_offsets[scan + 1] <= len(data):
            available = scan + 1
        else:
            break
    if len(data) != scan_offsets[available]:
        if len(data) > scan_offsets[-1]:
            raise CorruptStreamError(
                f"{len(data) - scan_offsets[-1]} trailing bytes after the last scan"
            )
        raise CorruptStreamError(
            f"stream ends mid-scan ({len(data)} bytes is not a scan boundary)"
        )
    if available < 1:
        raise CorruptStreamError("stream carries no complete scan")
    return _ParsedStream(
        flags=flags,
        quality=quality,
        height=height,
        width=width,
        grayscale=grayscale,
        subsampled=subsampled,
        num_planes=num_planes,
        bands=bands,
        lengths=tuple(lengths),
        scan_offsets=tuple(scan_offsets),
        available_scans=available,
    )


class ProgressiveJpegCodec:
    """Layered image codec whose streams decode from any scan prefix."""

    def __init__(self, config: Optional[ProgressiveCodecConfig] = None) -> None:
        self.config = config if config is not None else ProgressiveCodecConfig()

    # -- encoding ---------------------------------------------------------

    def encode(self, image: np.ndarray) -> bytes:
        """Encode an (H, W, 3) or (H, W) uint8 image as a progressive stream."""
        image = ToyJpegCodec._validate(image)
        height, width = image.shape[:2]
        base = self.config.base
        grayscale, planes, tables = split_planes(image, base)

        flags = 0
        if grayscale:
            flags |= _FLAG_GRAYSCALE
        elif base.subsample:
            flags |= _FLAG_SUBSAMPLE

        coefficients = [
            quantize_plane(plane, table) for plane, table in zip(planes, tables)
        ]
        bands = self.config.scan_bands
        payloads: List[List[bytes]] = []
        for scan in range(len(bands)):
            lo = 0 if scan == 0 else bands[scan - 1]
            hi = bands[scan]
            payloads.append(
                [
                    zlib.compress(
                        np.ascontiguousarray(flat[:, lo:hi]).astype("<i2").tobytes(),
                        base.zlib_level,
                    )
                    for flat in coefficients
                ]
            )

        out = [
            _HEADER.pack(
                PROGRESSIVE_MAGIC,
                _VERSION,
                flags,
                base.quality,
                height,
                width,
                len(planes),
                len(bands),
            ),
            bytes(bands),
        ]
        for scan_payloads in payloads:
            for payload in scan_payloads:
                out.append(_LENGTH.pack(len(payload)))
        for scan_payloads in payloads:
            out.extend(scan_payloads)
        return b"".join(out)

    # -- decoding ---------------------------------------------------------

    def decode(
        self,
        data: bytes,
        scan_count: Optional[int] = None,
        window: Optional[Window] = None,
    ) -> np.ndarray:
        """Decode a scan prefix of ``data`` into a uint8 image.

        scan_count: how many leading scans to use; None means every scan
            the stream carries.  Decoding all scans of a complete stream
            is byte-identical to :meth:`ToyJpegCodec.decode` on the
            baseline encoding of the same image.
        window: (top, left, height, width) pixels to decode, as in
            :meth:`ToyJpegCodec.decode`; None means the whole image.

        Baseline (``TJPG``) streams are accepted too -- and delegated to
        :class:`ToyJpegCodec` -- so a pipeline's decode op handles stored
        objects of either format; ``scan_count`` must be None for them.
        """
        if data[:4] == _BASELINE_MAGIC:
            if scan_count is not None:
                raise CorruptStreamError(
                    "baseline stream has no scans to select from"
                )
            return ToyJpegCodec(self.config.base).decode(data, window)
        parsed = _parse_stream(data)
        if scan_count is None:
            scan_count = parsed.available_scans
        if not 1 <= scan_count <= parsed.num_scans:
            raise CorruptStreamError(
                f"scan_count {scan_count} outside [1, {parsed.num_scans}]"
            )
        if scan_count > parsed.available_scans:
            raise CorruptStreamError(
                f"stream carries {parsed.available_scans} scan(s), "
                f"{scan_count} requested"
            )
        window = image_window(window, parsed.height, parsed.width)

        luma_table = quality_scaled_table(BASE_LUMA_TABLE, parsed.quality)
        chroma_table = quality_scaled_table(BASE_CHROMA_TABLE, parsed.quality)
        planes: List[np.ndarray] = []
        for index in range(parsed.num_planes):
            p_h, p_w = parsed.plane_dims(index)
            blocks = num_blocks_for(p_h, p_w)
            flat = np.zeros((blocks, 64), dtype=np.int64)
            offset_base = parsed.scan_offsets
            for scan in range(scan_count):
                lo, hi = parsed.band_range(scan)
                start = offset_base[scan] + sum(parsed.lengths[scan][:index])
                payload = data[start : start + parsed.lengths[scan][index]]
                raw = inflate_exact(payload, blocks * (hi - lo) * 2)
                band = np.frombuffer(raw, dtype="<i2").reshape(blocks, hi - lo)
                flat[:, lo:hi] = band
            table = luma_table if index == 0 else chroma_table
            planes.append(
                reconstruct_plane(
                    flat,
                    p_w,
                    table,
                    plane_window(window, index, parsed.grayscale, parsed.subsampled),
                )
            )
        return assemble_image(planes, parsed.grayscale, parsed.subsampled, window)

    # -- stream introspection ---------------------------------------------

    def num_scans(self, data: bytes) -> int:
        """Complete scans present in ``data``."""
        return _parse_stream(data).available_scans


def scan_count_of(data: bytes) -> int:
    """Complete scans present in a progressive stream."""
    return _parse_stream(data).available_scans


def scan_sizes(data: bytes) -> Tuple[int, ...]:
    """Cumulative byte size of each scan prefix of ``data``.

    Entry ``k - 1`` is ``len(truncate_scans(data, k))``; sizes come from
    the scan directory, so they are valid even for a truncated stream
    (the directory always describes the full sequence).
    """
    parsed = _parse_stream(data)
    return tuple(parsed.scan_offsets[1:])


def truncate_scans(data: bytes, scan_count: int) -> bytes:
    """Keep the first ``scan_count`` scans of a progressive stream.

    Pure byte slicing -- deterministic, allocation-free beyond the copy,
    and idempotent (truncating to the stream's own scan count returns the
    stream unchanged).
    """
    parsed = _parse_stream(data)
    if not 1 <= scan_count <= parsed.num_scans:
        raise ValueError(
            f"scan_count {scan_count} outside [1, {parsed.num_scans}]"
        )
    if scan_count > parsed.available_scans:
        raise ValueError(
            f"stream carries {parsed.available_scans} scan(s), "
            f"cannot keep {scan_count}"
        )
    return data[: parsed.scan_offsets[scan_count]]


@dataclasses.dataclass(frozen=True)
class ScanFidelity:
    """Fidelity of one scan prefix, measured against the full decode."""

    scan_count: int
    prefix_bytes: int
    mse: float
    psnr_db: float


def scan_prefix_metrics(
    data: bytes,
    codec: Optional[ProgressiveJpegCodec] = None,
    reference: Optional[np.ndarray] = None,
) -> Tuple[ScanFidelity, ...]:
    """PSNR/MSE of every scan prefix of a progressive stream.

    reference: image to measure against; defaults to the full-scan decode,
        under which the final entry is exact (infinite PSNR) and fidelity
        improves monotonically as scans accumulate.
    """
    codec = codec if codec is not None else ProgressiveJpegCodec()
    parsed = _parse_stream(data)
    sizes = scan_sizes(data)
    if reference is None:
        reference = codec.decode(data, scan_count=parsed.available_scans)
    out = []
    for count in range(1, parsed.available_scans + 1):
        decoded = codec.decode(data, scan_count=count)
        error = mse(reference, decoded)
        out.append(
            ScanFidelity(
                scan_count=count,
                prefix_bytes=sizes[count - 1],
                mse=error,
                psnr_db=psnr(reference, decoded),
            )
        )
    return tuple(out)
