"""Per-sample profile records: the currency of SOPHON's decision engine.

A :class:`SampleRecord` captures what the stage-two profiler learns about
one sample: its serialized size at every pipeline stage and the CPU cost of
every op.  From it we derive the sample's best split point, the traffic
saved by offloading to that split, and the paper's *offloading efficiency*
(bytes saved per CPU-second of offloaded work).
"""

import dataclasses
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple, Union, overload

import numpy as np

from repro.preprocessing.cost_model import CostModel
from repro.preprocessing.payload import StageMeta
from repro.preprocessing.pipeline import Pipeline

if TYPE_CHECKING:
    from repro.cluster.epoch_model import EpochMetrics


@dataclasses.dataclass(frozen=True)
class SampleRecord:
    """Stage sizes and op costs for one sample.

    stage_sizes: length n_ops + 1; entry 0 is the raw encoded size, entry k
        the serialized size after op k.
    op_costs: length n_ops; single-core seconds for op k (1-based -> index
        k-1).
    """

    sample_id: int
    stage_sizes: Tuple[int, ...]
    op_costs: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.stage_sizes) != len(self.op_costs) + 1:
            raise ValueError(
                "stage_sizes must have one more entry than op_costs "
                f"({len(self.stage_sizes)} vs {len(self.op_costs)})"
            )
        if any(s < 0 for s in self.stage_sizes):
            raise ValueError(f"negative stage size in {self.stage_sizes}")
        if any(c < 0 for c in self.op_costs):
            raise ValueError(f"negative op cost in {self.op_costs}")
        # Cache cumulative costs so prefix_cost/suffix_cost/total_cost are
        # O(1) lookups -- the decision engine calls them for every candidate
        # split of every sample.  Each entry is built with the same
        # left-to-right fold ``sum(slice)`` performs (including sum's int-0
        # start), so the cached values are bit-identical to the re-summed
        # ones; in particular suffix entries are NOT derived as
        # total - prefix, which would round differently.
        prefix: List[float] = []
        for split in range(len(self.op_costs) + 1):
            acc: float = 0
            for cost in self.op_costs[:split]:
                acc = acc + cost
            prefix.append(acc)
        suffix: List[float] = []
        for split in range(len(self.op_costs) + 1):
            acc = 0
            for cost in self.op_costs[split:]:
                acc = acc + cost
            suffix.append(acc)
        object.__setattr__(self, "_prefix_costs", tuple(prefix))
        object.__setattr__(self, "_suffix_costs", tuple(suffix))
        # The first smallest stage: ties break toward the earliest split.
        sizes = self.stage_sizes
        object.__setattr__(self, "_min_stage", sizes.index(min(sizes)))

    # -- sizes -------------------------------------------------------------

    @property
    def raw_size(self) -> int:
        return self.stage_sizes[0]

    @property
    def num_ops(self) -> int:
        return len(self.op_costs)

    @property
    def min_stage(self) -> int:
        """The stage (split point) at which this sample is smallest.

        Ties break toward the earliest stage: equal size for less offloaded
        CPU work is strictly better.
        """
        return self._min_stage  # type: ignore[attr-defined, no-any-return]

    @property
    def min_size(self) -> int:
        return self.stage_sizes[self.min_stage]

    def size_at(self, split: int) -> int:
        """Wire size when ops 1..split run remotely (0 = raw)."""
        return self.stage_sizes[split]

    # -- costs -------------------------------------------------------------

    def prefix_cost(self, split: int) -> float:
        """Single-core CPU seconds for ops 1..split."""
        if not 0 <= split <= self.num_ops:
            raise ValueError(f"bad split {split} for {self.num_ops}-op record")
        return self._prefix_costs[split]  # type: ignore[attr-defined]

    def suffix_cost(self, split: int) -> float:
        """Single-core CPU seconds for ops split+1..n."""
        if not 0 <= split <= self.num_ops:
            raise ValueError(f"bad split {split} for {self.num_ops}-op record")
        return self._suffix_costs[split]  # type: ignore[attr-defined]

    @property
    def total_cost(self) -> float:
        return self._prefix_costs[-1]  # type: ignore[attr-defined]

    # -- offloading value ---------------------------------------------------

    def savings(self, split: int) -> int:
        """Bytes kept off the wire by offloading to ``split``."""
        return self.raw_size - self.size_at(split)

    @property
    def best_savings(self) -> int:
        return self.savings(self.min_stage)

    @property
    def offload_efficiency(self) -> float:
        """Paper section 3.2: size reduction / preprocessing time.

        Zero when the sample is smallest in raw form (no offload is
        worthwhile), matching the 24%-at-ratio-0 population of Figure 1c.
        """
        split = self.min_stage
        if split == 0:
            return 0.0
        cost = self.prefix_cost(split)
        if cost <= 0.0:
            # A free size reduction; rank it above everything costed.
            return float("inf")
        return self.savings(split) / cost


@dataclasses.dataclass(frozen=True)
class ProgressiveSampleRecord(SampleRecord):
    """A :class:`SampleRecord` whose raw encoding is a progressive stream.

    Adds the fidelity axis: the raw object can be fetched as any scan
    prefix, so the planner may choose *how many bytes* of the sample to
    ship instead of (or before) choosing where to split the pipeline.

    scan_sizes: cumulative wire size of each scan prefix; entry k-1 is the
        byte size when only the first k scans ship.  The final entry is the
        complete stream, so ``scan_sizes[-1] == stage_sizes[0]``.
    scan_psnr_db: PSNR of each prefix decode against the full decode; the
        final entry is ``inf`` (the full prefix is exact) and values are
        non-decreasing (fidelity only improves as scans accumulate).
    """

    scan_sizes: Tuple[int, ...] = ()
    scan_psnr_db: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.scan_sizes:
            raise ValueError("progressive record needs at least one scan")
        if len(self.scan_psnr_db) != len(self.scan_sizes):
            raise ValueError(
                f"{len(self.scan_psnr_db)} PSNR entries for "
                f"{len(self.scan_sizes)} scans"
            )
        if any(b <= a for a, b in zip(self.scan_sizes, self.scan_sizes[1:])):
            raise ValueError(f"scan sizes must strictly increase: {self.scan_sizes}")
        if self.scan_sizes[-1] != self.stage_sizes[0]:
            raise ValueError(
                f"full scan prefix is {self.scan_sizes[-1]} bytes but the raw "
                f"stage size is {self.stage_sizes[0]}"
            )
        if any(b < a for a, b in zip(self.scan_psnr_db, self.scan_psnr_db[1:])):
            raise ValueError(
                f"scan PSNR must be non-decreasing: {self.scan_psnr_db}"
            )
        if self.scan_psnr_db[-1] != float("inf"):
            raise ValueError("full-prefix PSNR must be inf (exact reconstruction)")

    @property
    def num_scans(self) -> int:
        return len(self.scan_sizes)

    def size_at_fidelity(self, scan_count: int) -> int:
        """Wire size when only the first ``scan_count`` scans ship."""
        if not 1 <= scan_count <= self.num_scans:
            raise ValueError(
                f"scan_count {scan_count} outside [1, {self.num_scans}]"
            )
        return self.scan_sizes[scan_count - 1]

    def psnr_at(self, scan_count: int) -> float:
        """Fidelity (dB vs. the full decode) of a ``scan_count`` prefix."""
        if not 1 <= scan_count <= self.num_scans:
            raise ValueError(
                f"scan_count {scan_count} outside [1, {self.num_scans}]"
            )
        return self.scan_psnr_db[scan_count - 1]

    def fidelity_savings(self, scan_count: int) -> int:
        """Bytes kept off the wire by shipping only ``scan_count`` scans."""
        return self.raw_size - self.size_at_fidelity(scan_count)


def left_fold(costs: np.ndarray, start: int = 0, stop: Optional[int] = None) -> List[float]:
    """Per-row ``sum(row[start:stop])`` with sequential-identical rounding.

    The scalar code folds op costs left to right with Python floats from
    an int-0 start (``SampleRecord``'s cached folds, ``sum(costs[:split])``
    on Python < 3.12); NumPy's pairwise ``sum`` would round differently, so
    accumulate column by column instead and hand back Python floats.  An
    empty column range gives int 0 per row, exactly like ``sum([])``.
    """
    stop = costs.shape[1] if stop is None else stop
    if start >= stop:
        return [0] * costs.shape[0]  # type: ignore[list-item]
    total = costs[:, start] + 0.0  # 0 + x, so -0.0 folds to 0.0 like sum()
    for column in range(start + 1, stop):
        total = total + costs[:, column]
    return total.tolist()  # type: ignore[no-any-return]


def split_folds(costs: np.ndarray, splits: np.ndarray) -> Tuple[List[float], List[float]]:
    """Each row's ``sum(costs[:split])`` and ``sum(costs[split:])`` at its
    split: one :func:`left_fold` per split group (an empty fold is int 0).
    Rows whose split is outside ``0..n_ops`` get 0 for both."""
    n, n_ops = costs.shape
    groups = np.unique(splits).tolist()
    if len(groups) == 1 and 0 <= groups[0] <= n_ops:  # one group: fold in place
        return left_fold(costs, 0, groups[0]), left_fold(costs, groups[0])
    # Object arrays keep the folds' Python numbers as they are.
    prefix, suffix = np.zeros(n, dtype=object), np.zeros(n, dtype=object)
    for split in groups:
        if not 0 <= split <= n_ops:
            continue
        rows = np.flatnonzero(splits == split)
        sub = costs[rows]
        prefix[rows] = left_fold(sub, 0, split)
        suffix[rows] = left_fold(sub, split)
    return prefix.tolist(), suffix.tolist()


class RecordTable(Sequence[SampleRecord]):
    """Columnar :class:`SampleRecord`\\ s: one matrix per field.

    ``stage_sizes`` is int64 ``(n, n_ops + 1)`` and ``op_costs`` float64
    ``(n, n_ops)``; row ``i`` describes sample ``sample_ids[i]``.  The
    per-sample values the planners rank by -- ``min_stage``,
    ``best_savings``, the prefix cost moved at the best split
    (``best_cost``) and ``offload_efficiency`` -- are computed once, column
    by column, with the same left-to-right folds and tie-breaks as the
    scalar properties, so each entry equals the matching
    :class:`SampleRecord` property bit for bit.

    The table is a ``Sequence[SampleRecord]``: indexing and iteration
    return real rows built by the :class:`SampleRecord` constructor (once,
    on first access), so audit, serialization and every row-wise consumer
    see the same objects a list of records would give them.
    """

    def __init__(
        self,
        sample_ids: Sequence[int],
        stage_sizes: np.ndarray,
        op_costs: np.ndarray,
        *,
        rows: Optional[List[SampleRecord]] = None,
    ) -> None:
        ids = np.asarray(sample_ids, dtype=np.int64)
        sizes = np.asarray(stage_sizes, dtype=np.int64)
        costs = np.asarray(op_costs, dtype=np.float64)
        n = ids.shape[0]
        if sizes.ndim != 2 or costs.ndim != 2 or sizes.shape[0] != n or costs.shape[0] != n:
            raise ValueError(
                f"{n} sample ids need (n, k+1) sizes and (n, k) costs, got "
                f"{sizes.shape} and {costs.shape}"
            )
        if n and sizes.shape[1] != costs.shape[1] + 1:
            raise ValueError(
                "stage_sizes must have one more entry than op_costs "
                f"({sizes.shape[1]} vs {costs.shape[1]})"
            )
        # Same checks (and messages) as SampleRecord, raised at the first
        # offending row, sizes before costs within a row.
        bad_size = (sizes < 0).any(axis=1)
        bad_cost = (costs < 0).any(axis=1)
        bad = np.flatnonzero(bad_size | bad_cost)
        if bad.shape[0]:
            row = int(bad[0])
            if bad_size[row]:
                raise ValueError(f"negative stage size in {tuple(sizes[row].tolist())}")
            raise ValueError(f"negative op cost in {tuple(costs[row].tolist())}")
        self.sample_ids = ids
        self.stage_sizes = sizes
        self.op_costs = costs
        self._rows = rows

        index = np.arange(n)
        self.min_stage = np.argmin(sizes, axis=1) if n else np.zeros(0, dtype=np.int64)
        self.raw_size = sizes[:, 0] if n else np.zeros(0, dtype=np.int64)
        self.best_savings = self.raw_size - sizes[index, self.min_stage]
        # prefix[:, j] is left_fold(costs, 0, j): the first j costs folded
        # left to right from 0, like SampleRecord's cached prefix costs.
        prefix = np.zeros((n, costs.shape[1] + 1))
        for column in range(costs.shape[1]):
            prefix[:, column + 1] = prefix[:, column] + costs[:, column]
        self.best_cost = prefix[index, self.min_stage]
        efficiency = np.zeros(n)
        offloadable = self.min_stage > 0
        free = offloadable & (self.best_cost <= 0.0)
        costed = offloadable & ~free
        efficiency[free] = float("inf")
        with np.errstate(over="ignore"):  # a tiny cost overflows to inf, as in Python
            efficiency[costed] = self.best_savings[costed] / self.best_cost[costed]
        self.offload_efficiency = efficiency

    @classmethod
    def from_records(cls, records: Sequence[SampleRecord]) -> "RecordTable":
        """The table of ``records`` (kept as its rows, so rows are the originals).

        Records must all have the same op count; a ragged list raises.
        """
        if isinstance(records, RecordTable):
            return records
        rows = list(records)
        widths = {record.num_ops for record in rows}
        if len(widths) > 1:
            raise ValueError(f"records mix op counts {sorted(widths)}")
        k = widths.pop() if widths else 0
        sizes = np.array([r.stage_sizes for r in rows], dtype=np.int64).reshape(len(rows), k + 1)
        costs = np.array([r.op_costs for r in rows], dtype=np.float64).reshape(len(rows), k)
        return cls([r.sample_id for r in rows], sizes, costs, rows=rows)

    @classmethod
    def covering(cls, records: Sequence[SampleRecord]) -> "RecordTable":
        """:meth:`from_records`, checked to hold sample ids 0..n-1 in order --
        the input every planner indexes its per-sample answers by."""
        table = cls.from_records(records)
        if not np.array_equal(table.sample_ids, np.arange(len(table))):
            raise ValueError(
                "records must be ordered by sample id covering 0..n-1 "
                "(as produced by the stage-two profiler)"
            )
        return table

    @property
    def num_ops(self) -> int:
        return int(self.op_costs.shape[1])

    def epoch_metrics(
        self,
        gpu_time_s: float,
        overhead_bytes: int,
        splits: Optional[Sequence[int]] = None,
        scan_counts: Optional[Sequence[Optional[int]]] = None,
    ) -> "EpochMetrics":
        """The :class:`~repro.cluster.epoch_model.EpochMetrics` of running
        row ``i`` to ``splits[i]`` (``None``: all 0, the No-Off baseline),
        shipping ``scan_counts[i]`` scans where that is not None.  Each
        total is a builtin sum, in sample order, over :func:`split_folds`.
        """
        from repro.cluster.epoch_model import EpochMetrics  # repro.cluster imports this module

        n = len(self)
        split_arr = np.zeros(n, dtype=np.int64) if splits is None else np.asarray(splits, dtype=np.int64)
        wire = self.wire_bytes(split_arr, scan_counts)
        prefix, suffix = split_folds(self.op_costs, split_arr)
        return EpochMetrics(
            gpu_time_s=gpu_time_s,
            compute_cpu_s=float(sum(suffix)),
            storage_cpu_s=float(sum(prefix)),
            traffic_bytes=float(sum(wire) + overhead_bytes * n),
        )

    def wire_bytes(
        self, splits: Sequence[int], scan_counts: Optional[Sequence[Optional[int]]] = None
    ) -> List[int]:
        """Each row's wire size at ``splits[i]``, or of its first
        ``scan_counts[i]`` scans where that is not None."""
        split_arr = np.asarray(splits, dtype=np.int64)
        bad = np.flatnonzero((split_arr < 0) | (split_arr > self.num_ops))
        if bad.shape[0]:
            raise ValueError(f"bad split {int(split_arr[bad[0]])} for {self.num_ops}-op record")
        wire: List[int] = self.stage_sizes[np.arange(len(self)), split_arr].tolist()
        for row, count in enumerate(scan_counts or ()):
            if count is None:
                continue
            record = self[row]
            if not isinstance(record, ProgressiveSampleRecord):
                raise ValueError(
                    f"sample {record.sample_id}: plan truncates scans but the "
                    "record is not progressive"
                )
            wire[row] = record.size_at_fidelity(count)
        return wire

    @property
    def rows(self) -> List[SampleRecord]:
        """Every row as a :class:`SampleRecord`, built once on first use."""
        rows = self._rows
        if rows is None:
            rows = [
                SampleRecord(sample_id, tuple(size_row), tuple(cost_row))
                for sample_id, size_row, cost_row in zip(
                    self.sample_ids.tolist(), self.stage_sizes.tolist(), self.op_costs.tolist()
                )
            ]
            self._rows = rows
        return rows

    def __len__(self) -> int:
        return int(self.sample_ids.shape[0])

    @overload
    def __getitem__(self, index: int) -> SampleRecord: ...

    @overload
    def __getitem__(self, index: slice) -> List[SampleRecord]: ...

    def __getitem__(self, index: Union[int, slice]) -> Union[SampleRecord, List[SampleRecord]]:
        return self.rows[index]

    def __iter__(self) -> Iterator[SampleRecord]:
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (RecordTable, list, tuple)):
            return self.rows == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RecordTable({len(self)} samples, {self.num_ops} ops)"


def build_record(
    pipeline: Pipeline,
    raw_meta: StageMeta,
    sample_id: int,
    *,
    seed: int,
    epoch: int = 0,
    cost_model: Optional[CostModel] = None,
) -> SampleRecord:
    """Profile one sample through ``pipeline`` (metadata simulation)."""
    run = pipeline.simulate(
        raw_meta, seed=seed, epoch=epoch, sample_id=sample_id, cost_model=cost_model
    )
    sizes = (raw_meta.nbytes,) + tuple(s.out_meta.nbytes for s in run.stages)
    costs = tuple(s.cost_s for s in run.stages)
    return SampleRecord(sample_id=sample_id, stage_sizes=sizes, op_costs=costs)


def best_split(records: Sequence[SampleRecord]) -> List[int]:
    """The per-sample best split point for a collection of records."""
    return [r.min_stage for r in records]
