"""Metadata-only dataset backed by per-sample (size, dims) records."""

from typing import Optional, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.preprocessing.payload import BatchMeta, PayloadKind, StageMeta


class TraceDataset(Dataset):
    """A dataset of raw-size/dimension records, no pixels.

    This is the fidelity used for large parameter sweeps: SOPHON's decision
    logic and the event simulator consume only stage sizes and op costs,
    both of which are exact functions of these records (asserted against the
    materialized path by integration tests).
    """

    def __init__(
        self,
        raw_bytes: Sequence[int],
        heights: Sequence[int],
        widths: Sequence[int],
        name: str = "trace",
    ) -> None:
        self._raw_bytes = np.asarray(raw_bytes, dtype=np.int64)
        self._heights = np.asarray(heights, dtype=np.int64)
        self._widths = np.asarray(widths, dtype=np.int64)
        if not (len(self._raw_bytes) == len(self._heights) == len(self._widths)):
            raise ValueError(
                "raw_bytes, heights, widths must have equal length: "
                f"{len(self._raw_bytes)}, {len(self._heights)}, {len(self._widths)}"
            )
        if len(self._raw_bytes) and int(self._raw_bytes.min()) <= 0:
            raise ValueError("raw sizes must be positive")
        if len(self._heights) and (int(self._heights.min()) < 1 or int(self._widths.min()) < 1):
            raise ValueError("dimensions must be positive")
        self.name = name

    def __len__(self) -> int:
        return len(self._raw_bytes)

    def raw_meta(self, sample_id: int) -> StageMeta:
        self._check_id(sample_id)
        return StageMeta.for_encoded(
            int(self._raw_bytes[sample_id]),
            int(self._heights[sample_id]),
            int(self._widths[sample_id]),
        )

    def raw_metas(self, sample_ids: Sequence[int]) -> BatchMeta:
        """The raw metas of ``sample_ids`` as one batch, straight from the arrays."""
        ids = np.asarray(sample_ids, dtype=np.int64)
        outside = np.flatnonzero((ids < 0) | (ids >= len(self)))
        if outside.shape[0]:
            self._check_id(int(ids[outside[0]]))
        return BatchMeta(
            kind=PayloadKind.ENCODED,
            nbytes=self._raw_bytes[ids],
            height=self._heights[ids],
            width=self._widths[ids],
            channels=np.full(ids.shape[0], 3, dtype=np.int64),
        )

    @property
    def total_raw_bytes(self) -> int:
        return int(self._raw_bytes.sum())

    @property
    def raw_sizes(self) -> np.ndarray:
        """All raw sizes as an array (read-only view)."""
        view = self._raw_bytes.view()
        view.setflags(write=False)
        return view

    def benefit_fraction(self, threshold_bytes: int) -> float:
        """Fraction of samples strictly larger than ``threshold_bytes``."""
        if len(self) == 0:
            return 0.0
        return float((self._raw_bytes > threshold_bytes).mean())

    def subset(self, sample_ids: Sequence[int], name: Optional[str] = None) -> "TraceDataset":
        """A new trace dataset restricted to the given ids (re-numbered)."""
        ids = np.asarray(sample_ids, dtype=np.intp)
        return TraceDataset(
            self._raw_bytes[ids],
            self._heights[ids],
            self._widths[ids],
            name=name if name is not None else f"{self.name}-subset",
        )
