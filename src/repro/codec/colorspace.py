"""RGB <-> YCbCr conversion and chroma subsampling (BT.601 full range)."""

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
    rgb = shifted @ _YCBCR_TO_RGB.T
    return np.clip(np.round(rgb), 0, 255).astype(np.uint8)


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


def upsample_420(channel: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbour upsample of a subsampled chroma plane."""
    up = np.repeat(np.repeat(channel, 2, axis=0), 2, axis=1)
    return up[:out_h, :out_w]
