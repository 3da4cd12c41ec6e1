"""Pipeline composition with arbitrary split points.

A :class:`Pipeline` is an ordered list of ops.  ``run`` executes a
contiguous range of ops over real data; ``simulate`` runs the same range
over metadata only.  Both draw augmentation parameters from per-op derived
generators (see :mod:`repro.utils.rng`), so a run split across two nodes is
bit-identical to a local run.
"""

import dataclasses
from typing import List, Optional, Sequence

from repro.preprocessing.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.preprocessing.ops import (
    Decode,
    Normalize,
    Op,
    Params,
    RandomHorizontalFlip,
    RandomResizedCrop,
    ToTensor,
)
from repro.preprocessing.payload import Payload, StageMeta
from repro.utils.rng import op_rng


@dataclasses.dataclass(frozen=True)
class StageTrace:
    """What one op did to one sample: parameters, output size, CPU cost."""

    op_name: str
    op_index: int  # 1-based stage number
    params: Params
    out_meta: StageMeta
    cost_s: float


@dataclasses.dataclass
class PipelineRun:
    """Result of running (or simulating) a contiguous op range."""

    payload: Optional[Payload]  # None for simulated runs
    out_meta: StageMeta
    stages: List[StageTrace]

    @property
    def total_cost_s(self) -> float:
        return sum(s.cost_s for s in self.stages)


class Pipeline:
    """An ordered preprocessing pipeline with splittable execution."""

    def __init__(self, ops: Sequence[Op], cost_model: CostModel = DEFAULT_COST_MODEL) -> None:
        if not ops:
            raise ValueError("pipeline must contain at least one op")
        for prev, nxt in zip(ops, ops[1:]):
            if prev.output_kind is not nxt.input_kind:
                raise ValueError(
                    f"op chain broken: {prev.name} outputs {prev.output_kind.value}, "
                    f"{nxt.name} expects {nxt.input_kind.value}"
                )
        self.ops: List[Op] = list(ops)
        self.cost_model = cost_model

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:
        return f"Pipeline([{', '.join(op.name for op in self.ops)}])"

    @property
    def op_names(self) -> List[str]:
        return [op.name for op in self.ops]

    def _check_range(self, start: int, stop: int) -> None:
        if not 0 <= start <= stop <= len(self.ops):
            raise ValueError(
                f"bad op range [{start}, {stop}) for a {len(self.ops)}-op pipeline"
            )

    # -- execution --------------------------------------------------------

    def run(
        self,
        payload: Payload,
        *,
        seed: int,
        epoch: int,
        sample_id: int,
        start: int = 0,
        stop: Optional[int] = None,
        cost_model: Optional[CostModel] = None,
    ) -> PipelineRun:
        """Execute ops ``start..stop-1`` (0-based op indices) over real data.

        ``start=0, stop=None`` runs the whole pipeline.  Costs are *virtual*
        (from the cost model), not wall-clock.

        A Decode followed by a RandomResizedCrop in the range decodes only
        the crop's window; payload and traces equal decoding the whole
        image and cropping it (the Decode trace keeps the full image meta).
        """
        stop = len(self.ops) if stop is None else stop
        self._check_range(start, stop)
        model = cost_model if cost_model is not None else self.cost_model

        stages: List[StageTrace] = []
        meta = payload.meta
        index = start
        while index < stop:
            op = self.ops[index]
            params = op.draw_params(op_rng(seed, epoch, sample_id, index), meta)
            crop = self.ops[index + 1] if index + 1 < stop else None
            if isinstance(op, Decode) and isinstance(crop, RandomResizedCrop):
                # The crop is drawn from the meta a full decode would have.
                decoded = op.simulate(meta, params)
                stages.append(self._trace(op, index, params, meta, decoded, model))
                box = crop.draw_params(op_rng(seed, epoch, sample_id, index + 1), decoded)
                window = (box["top"], box["left"], box["crop_h"], box["crop_w"])
                region = op.apply(payload, params, window)
                op, params, meta, index = crop, box, decoded, index + 1
                payload = op.apply(region, {**params, "top": 0, "left": 0})
            else:
                payload = op.apply(payload, params)
            stages.append(self._trace(op, index, params, meta, payload.meta, model))
            meta = payload.meta
            index += 1
        return PipelineRun(payload=payload, out_meta=meta, stages=stages)

    def simulate(
        self,
        meta: StageMeta,
        *,
        seed: int,
        epoch: int,
        sample_id: int,
        start: int = 0,
        stop: Optional[int] = None,
        cost_model: Optional[CostModel] = None,
    ) -> PipelineRun:
        """Metadata-only twin of :meth:`run`; identical sizes and costs."""
        stop = len(self.ops) if stop is None else stop
        self._check_range(start, stop)
        model = cost_model if cost_model is not None else self.cost_model

        stages: List[StageTrace] = []
        for index in range(start, stop):
            op = self.ops[index]
            params = op.draw_params(op_rng(seed, epoch, sample_id, index), meta)
            out_meta = op.simulate(meta, params)
            stages.append(self._trace(op, index, params, meta, out_meta, model))
            meta = out_meta
        return PipelineRun(payload=None, out_meta=meta, stages=stages)

    @staticmethod
    def _trace(
        op: Op, index: int, params: Params, meta: StageMeta, out_meta: StageMeta, model: CostModel
    ) -> StageTrace:
        in_px, out_px = op.work_pixels(meta, out_meta, params)
        cost = model.op_seconds(op.name, in_px, out_px)
        return StageTrace(op.name, index + 1, params, out_meta, cost)

    # -- derived views -----------------------------------------------------

    def stage_sizes(
        self, raw_meta: StageMeta, *, seed: int, epoch: int, sample_id: int
    ) -> List[int]:
        """Byte size of the sample at stages 0..n (0 = raw encoded)."""
        run = self.simulate(raw_meta, seed=seed, epoch=epoch, sample_id=sample_id)
        return [raw_meta.nbytes] + [s.out_meta.nbytes for s in run.stages]


def standard_pipeline(
    crop_size: int = 224,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    codec=None,
) -> Pipeline:
    """The paper's five-op image-classification pipeline."""
    return Pipeline(
        [
            Decode(codec),
            RandomResizedCrop(size=crop_size),
            RandomHorizontalFlip(),
            ToTensor(),
            Normalize(),
        ],
        cost_model=cost_model,
    )
