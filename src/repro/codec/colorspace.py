"""RGB <-> YCbCr conversion and chroma subsampling (BT.601 full range)."""

from typing import Tuple

import numpy as np

# BT.601 full-range matrix, as used by JFIF.
_RGB_TO_YCBCR = np.array(
    [
        [0.299, 0.587, 0.114],
        [-0.168736, -0.331264, 0.5],
        [0.5, -0.418688, -0.081312],
    ]
)
_YCBCR_TO_RGB = np.linalg.inv(_RGB_TO_YCBCR)


def rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    """Convert an (H, W, 3) uint8 RGB image to float64 YCbCr.

    Y is in [0, 255]; Cb/Cr are centered on 128.
    """
    pixels = rgb.astype(np.float64)
    ycc = pixels @ _RGB_TO_YCBCR.T
    ycc[..., 1:] += 128.0
    return ycc


def ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    """Convert float64 YCbCr back to uint8 RGB, clipping to [0, 255]."""
    shifted = ycc.astype(np.float64)
    shifted[..., 1:] -= 128.0
    return centered_ycbcr_to_rgb(shifted)


def centered_ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    """uint8 RGB from float64 YCbCr whose chroma is already centered on 0.

    The colour matrix multiplies ``ycc`` with its own shape: flattening an
    (H, W, 3) image to (H*W, 3) lets BLAS pick another kernel, which can
    move a product by an ulp and a rounded pixel by one level.
    """
    return to_uint8(ycc @ _YCBCR_TO_RGB.T)


def to_uint8(pixels: np.ndarray) -> np.ndarray:
    """Round float pixels half-to-even and clip them to uint8.

    Rounds and clips in ``pixels`` itself: pass a float array the caller
    owns and no longer needs.
    """
    np.round(pixels, out=pixels)
    return np.clip(pixels, 0, 255, out=pixels).astype(np.uint8)


def subsample_420(channel: np.ndarray) -> np.ndarray:
    """2x2 average-pool a chroma channel (4:2:0 subsampling).

    Odd dimensions are handled by edge replication before pooling.
    """
    h, w = channel.shape
    if h % 2 or w % 2:
        channel = np.pad(channel, ((0, h % 2), (0, w % 2)), mode="edge")
        h, w = channel.shape
    pooled = channel.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))
    return pooled


def upsample_420(
    channel: np.ndarray, out: np.ndarray, phase: Tuple[int, int] = (0, 0)
) -> np.ndarray:
    """Nearest-neighbour upsample a subsampled chroma plane into ``out``.

    Pixel (i, j) of ``out`` takes ``channel[(i + dy) // 2, (j + dx) // 2]``
    for ``phase = (dy, dx)`` in {0, 1}: a window that starts on an odd row
    or column of the full-size image has phase 1 on that axis.  Each of the
    four row/column parities is one strided copy, so every output pixel is
    written once.  Returns ``out``.
    """
    dy, dx = phase
    for row_parity in (0, 1):
        top = (row_parity + dy) // 2
        for col_parity in (0, 1):
            left = (col_parity + dx) // 2
            dst = out[row_parity::2, col_parity::2]
            dst[...] = channel[top : top + dst.shape[0], left : left + dst.shape[1]]
    return out
