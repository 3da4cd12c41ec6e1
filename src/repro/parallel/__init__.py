"""Deterministic vectorized execution for profiling/planning.

The profiling hot path (one :class:`SampleRecord` per sample) dominates
every figure and benchmark run.  This package builds those records with
NumPy lane arithmetic without changing a single output bit:

- :mod:`repro.parallel.pcg` -- vectorized bit-exact emulation of the
  ``op_rng`` generator derivation and draw paths.
- :mod:`repro.parallel.vectorized` -- batch twin of
  ``Pipeline.simulate`` producing a ``RecordTable`` whose rows are
  identical :class:`SampleRecord`\\ s.

Entry point: :func:`build_records`.  Every profiling caller
(``PolicyContext.records``, the stage-one and stage-two profilers, the
decision service) goes through it and so through the vectorized builder,
and gets back one :class:`~repro.preprocessing.records.RecordTable`;
``parallel="sequential"`` selects the per-sample ``build_record`` loop,
kept as the reference the identity tests compare against.
"""

from typing import Optional, Sequence

from repro.data.dataset import Dataset
from repro.parallel import vectorized
from repro.parallel.vectorized import (
    build_records_vectorized,
    left_fold,
    simulate_batch,
)
from repro.preprocessing.cost_model import CostModel
from repro.preprocessing.pipeline import Pipeline
from repro.preprocessing.records import RecordTable, build_record

#: The production record builder, then the reference it must equal.
_BUILDERS = ("vectorized", "sequential")


def build_records(
    pipeline: Pipeline,
    dataset: Dataset,
    *,
    seed: int,
    epoch: int = 0,
    cost_model: Optional[CostModel] = None,
    parallel: str = "vectorized",
    sample_ids: Optional[Sequence[int]] = None,
) -> RecordTable:
    """Profile ``dataset`` through ``pipeline``, one table row per sample.

    ``parallel="sequential"`` runs the classic per-sample ``build_record``
    loop instead of the vectorized builder; the records are identical.
    """
    if parallel not in _BUILDERS:
        raise ValueError(f"parallel must be one of {_BUILDERS}, got {parallel!r}")
    ids = list(dataset.sample_ids()) if sample_ids is None else list(sample_ids)
    if parallel == "sequential":
        return RecordTable.from_records(
            [
                build_record(
                    pipeline,
                    dataset.raw_meta(sample_id),
                    sample_id,
                    seed=seed,
                    epoch=epoch,
                    cost_model=cost_model,
                )
                for sample_id in ids
            ]
        )
    return vectorized.build_records_vectorized(
        pipeline, dataset.raw_metas(ids), ids, seed=seed, epoch=epoch, cost_model=cost_model
    )


__all__ = [
    "RecordTable",
    "build_records",
    "build_records_vectorized",
    "left_fold",
    "simulate_batch",
]
