"""Reference implementations the fused data path is checked against.

:func:`run_unfused` is :meth:`Pipeline.run` as it was before Decode
learned to decode only RandomResizedCrop's window: every op runs on its
own, so Decode always decodes the whole image and the crop slices it.
:func:`resize_bilinear_reference` is ``resize_bilinear`` as it was
before it gathered rows on the input dtype: it widens the whole image to
float64 first.  :func:`to_tensor_reference` and :func:`normalize_reference`
are ``ToTensor`` and ``Normalize`` as they were before they divided in
place: one fresh array per arithmetic step.
"""

from typing import List, Optional

import numpy as np

from repro.preprocessing.payload import Payload
from repro.preprocessing.pipeline import Pipeline, PipelineRun, StageTrace
from repro.utils.rng import op_rng


def run_unfused(
    pipeline: Pipeline,
    payload: Payload,
    *,
    seed: int,
    epoch: int,
    sample_id: int,
    start: int = 0,
    stop: Optional[int] = None,
) -> PipelineRun:
    """Execute ops ``start..stop-1`` one at a time: full decode, then crop."""
    stop = len(pipeline.ops) if stop is None else stop
    stages: List[StageTrace] = []
    meta = payload.meta
    for index in range(start, stop):
        op = pipeline.ops[index]
        rng = op_rng(seed, epoch, sample_id, index)
        params = op.draw_params(rng, meta)
        payload = op.apply(payload, params)
        out_meta = payload.meta
        in_px, out_px = op.work_pixels(meta, out_meta, params)
        cost = pipeline.cost_model.op_seconds(op.name, in_px, out_px)
        stages.append(StageTrace(op.name, index + 1, params, out_meta, cost))
        meta = out_meta
    return PipelineRun(payload=payload, out_meta=meta, stages=stages)


def resize_bilinear_reference(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize that widens the whole input to float64 up front."""
    if out_h < 1 or out_w < 1:
        raise ValueError(f"bad output size {out_h}x{out_w}")
    in_h, in_w = image.shape[:2]
    if (in_h, in_w) == (out_h, out_w):
        return image.copy()

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

    pixels = image.astype(np.float64)
    top = pixels[y0][:, x0] * (1 - wx) + pixels[y0][:, x1] * wx
    bottom = pixels[y1][:, x0] * (1 - wx) + pixels[y1][:, x1] * wx
    out = top * (1 - wy) + bottom * wy

    if np.issubdtype(image.dtype, np.integer):
        info = np.iinfo(image.dtype)
        return np.clip(np.round(out), info.min, info.max).astype(image.dtype)
    return out.astype(image.dtype)


def to_tensor_reference(image: np.ndarray) -> np.ndarray:
    """uint8 HWC -> float32 CHW in [0, 1], through separate temporaries."""
    return np.ascontiguousarray((image.astype(np.float32) / 255.0).transpose(2, 0, 1))


def normalize_reference(tensor: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Channel-wise ``(x - mean) / std`` with ``mean``/``std`` shaped (C, 1, 1)."""
    return (tensor - mean) / std
