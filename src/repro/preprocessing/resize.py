"""Bilinear image resize on numpy arrays (PIL.Image.resize stand-in)."""

import numpy as np


def resize_bilinear(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize an (H, W, C) or (H, W) array to (out_h, out_w) bilinearly.

    Uses align-corners=False sampling (the torchvision default), with edge
    clamping.  Returns the same dtype as the input; float intermediates are
    rounded for integer inputs.
    """
    if out_h < 1 or out_w < 1:
        raise ValueError(f"bad output size {out_h}x{out_w}")
    in_h, in_w = image.shape[:2]
    if (in_h, in_w) == (out_h, out_w):
        return image.copy()

    # Source coordinates for each output pixel center.
    ys = (np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5
    ys = np.clip(ys, 0, in_h - 1)
    xs = np.clip(xs, 0, in_w - 1)

    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    if image.ndim == 3:
        wy = wy[..., None]
        wx = wx[..., None]

    # Gather on the input dtype, then widen only the sampled pixels.
    rows0, rows1 = image[y0], image[y1]
    p00, p01 = rows0[:, x0].astype(np.float64), rows0[:, x1].astype(np.float64)
    p10, p11 = rows1[:, x0].astype(np.float64), rows1[:, x1].astype(np.float64)
    top = p00 * (1 - wx) + p01 * wx
    bottom = p10 * (1 - wx) + p11 * wx
    out = top * (1 - wy) + bottom * wy

    if np.issubdtype(image.dtype, np.integer):
        info = np.iinfo(image.dtype)
        return np.clip(np.round(out), info.min, info.max).astype(image.dtype)
    return out.astype(image.dtype)
