"""Reference codec kernels the in-place decode path is checked against.

These are the decode kernels as they were before they were rewritten to
make fewer passes over the pixels: a zeros-then-scatter inverse zigzag, a
float64 copy of the coefficient window before the table multiply, chroma
upsampled with two ``np.repeat`` calls, ``np.stack`` of the three planes,
and a fresh array for every arithmetic step.  The production kernels must
return byte-identical arrays.
"""

from typing import List

import numpy as np
from scipy.fft import idctn

from repro.codec.blocks import from_blocks
from repro.codec.colorspace import _YCBCR_TO_RGB
from repro.codec.jpeg import Window
from repro.codec.zigzag import zigzag_indices


def inverse_zigzag_reference(flat: np.ndarray, n: int = 8) -> np.ndarray:
    """Scatter zigzag-ordered coefficients into zeroed n x n blocks."""
    if flat.shape[-1] != n * n:
        raise ValueError(f"expected trailing axis of {n * n}, got {flat.shape}")
    rows, cols = zigzag_indices(n)
    out = np.zeros(flat.shape[:-1] + (n, n), dtype=flat.dtype)
    out[..., rows, cols] = flat
    return out


def ycbcr_to_rgb_reference(ycc: np.ndarray) -> np.ndarray:
    """Copy, center the chroma, multiply, then round and clip into new arrays."""
    shifted = ycc.astype(np.float64)
    shifted[..., 1:] -= 128.0
    rgb = shifted @ _YCBCR_TO_RGB.T
    return np.clip(np.round(rgb), 0, 255).astype(np.uint8)


def upsample_420_reference(channel: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbour upsample by repeating rows, then columns."""
    up = np.repeat(np.repeat(channel, 2, axis=0), 2, axis=1)
    return up[:out_h, :out_w]


def reconstruct_plane_reference(
    flat: np.ndarray, width: int, table: np.ndarray, window: Window
) -> np.ndarray:
    """Widen the coefficient window to float64, then dequantize and IDCT it."""
    top, left, win_h, win_w = window
    cols = (width + 7) // 8
    r0, c0 = top // 8, left // 8
    r1, c1 = (top + win_h + 7) // 8, (left + win_w + 7) // 8
    dc = np.cumsum(flat[:, 0], dtype=np.int64).reshape(-1, cols)[r0:r1, c0:c1]
    grid = flat.reshape(-1, cols, 64)[r0:r1, c0:c1].astype(np.float64)
    grid[..., 0] = dc
    coeffs = inverse_zigzag_reference(grid.reshape(-1, 64)) * table
    blocks = idctn(coeffs, axes=(-2, -1), norm="ortho") + 128.0
    plane = from_blocks(blocks, (r1 - r0) * 8, (c1 - c0) * 8)
    top, left = top - r0 * 8, left - c0 * 8
    return plane[top : top + win_h, left : left + win_w]


def assemble_image_reference(
    planes: List[np.ndarray], grayscale: bool, subsampled: bool, window: Window
) -> np.ndarray:
    """Upsample chroma, stack the planes, and colour-convert the stack."""
    if grayscale:
        return np.clip(np.round(planes[0]), 0, 255).astype(np.uint8)
    top, left, height, width = window
    luma, cb, cr = planes
    if subsampled:
        dy, dx = top % 2, left % 2
        cb = upsample_420_reference(cb, dy + height, dx + width)[dy:, dx:]
        cr = upsample_420_reference(cr, dy + height, dx + width)[dy:, dx:]
    ycc = np.stack([luma, cb, cr], axis=-1)
    return ycbcr_to_rgb_reference(ycc)
