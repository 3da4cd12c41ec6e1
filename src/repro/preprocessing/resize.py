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
    if in_h < 1 or in_w < 1:
        raise ValueError(f"cannot resize an empty {in_h}x{in_w} image")
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
    wx = xs - x0

    # Rows are flattened to (width * channels) so every gather copies whole
    # rows or single values.  Each distinct source row is interpolated
    # along x once (gathered on the input dtype, widened by the multiply),
    # then row pairs are blended along y by index: the same products and
    # sums, per pixel and channel, as blending four gathered corners.
    channels = int(np.prod(image.shape[2:], dtype=np.intp))
    lanes = np.arange(channels)
    col0 = (x0[:, None] * channels + lanes).ravel()
    col1 = (x1[:, None] * channels + lanes).ravel()
    wx = np.repeat(wx, channels)
    rows, pair = np.unique(np.concatenate([y0, y1]), return_inverse=True)
    src = image[rows].reshape(len(rows), in_w * channels)
    across = np.multiply(src[:, col0], 1 - wx)
    across += np.multiply(src[:, col1], wx)
    out = across[pair[:out_h]]
    out *= 1 - wy
    bottom = across[pair[out_h:]]
    bottom *= wy
    out += bottom
    out = out.reshape((out_h, out_w) + image.shape[2:])

    if np.issubdtype(image.dtype, np.integer):
        info = np.iinfo(image.dtype)
        np.round(out, out=out)
        return np.clip(out, info.min, info.max, out=out).astype(image.dtype)
    return out.astype(image.dtype)
