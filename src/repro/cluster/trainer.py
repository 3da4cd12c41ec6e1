"""Event-driven simulation of one training epoch on the two-node cluster.

Per sample: the compute node issues a fetch; the storage node runs the
sample's offloaded pipeline prefix on its CPU pool; the (partially
preprocessed) payload crosses the bandwidth-capped link; the compute node
runs the remaining ops on its own CPU pool; completed batches feed the GPU
in order, with the input pipeline allowed to work ``prefetch_batches`` ahead
(PyTorch DataLoader-style flow control).

Everything the paper measures falls out: epoch time (makespan), data
traffic (bytes that crossed the link), and GPU utilization.

``run_epoch(faults=...)`` additionally injects a deterministic
:class:`~repro.faults.FaultSchedule`: storage-node crash windows interrupt
offloaded prefixes in flight (the sample demotes to a split-0 raw fetch and
finishes locally -- the No-Off fallback, so no sample is ever lost), link
brownouts stretch transfers and RTTs, CPU drift slows the storage cores,
and corrupted payloads are re-transmitted (the extra bytes count as
traffic, exactly as a checksum-triggered re-fetch would on the wire).  An
empty schedule leaves the simulation byte-identical to the fault-free
path.

Every epoch runs on the cursor engine (:mod:`repro.cluster.engine`);
``kernel="reference"`` replays the frozen seed kernel and launcher
(:mod:`repro.cluster.refsim`) instead, as the byte-identity oracle.
A sharded storage cluster is a ``placement`` the one :class:`TrainerSim`
takes, not another simulator.  Single-node, sharded and shared-link runs
all register their epochs through :meth:`TrainerSim._launch`; they differ
only in the :class:`JobHandles` resource set they hand it.
"""

import dataclasses
import functools
import math
import numbers
from types import ModuleType
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, cast,
)

import numpy as np

from repro.cluster import refsim as _reference_kernel
from repro.cluster import sim as _fast_kernel
from repro.cluster.engine import launch_training_job
from repro.cluster.epoch_model import EpochMetrics
from repro.cluster.sim import Environment, Resource
from repro.cluster.spec import ClusterSpec
from repro.data.dataset import Dataset
from repro.faults.schedule import FaultReport, FaultSchedule
from repro.metrics.timeline import Timeline
from repro.preprocessing.pipeline import Pipeline
from repro.preprocessing.records import split_folds
from repro.telemetry.spans import Tracer
from repro.utils.floats import checked, flag_type
from repro.workloads.models import ModelProfile

#: run_epoch(kernel=...) choices: "fast" (default) runs the cursor engine;
#: "reference" replays the frozen seed kernel and launcher with the
#: sequential work builder -- the byte-identity oracle.
KERNEL_CHOICES = ("fast", "reference")


def _kernel(kernel: str) -> ModuleType:
    """The DES module behind a ``kernel=`` choice."""
    if kernel not in KERNEL_CHOICES:
        raise ValueError(f"kernel must be one of {KERNEL_CHOICES}, got {kernel!r}")
    return _reference_kernel if kernel == "reference" else _fast_kernel


@dataclasses.dataclass(frozen=True)
class SampleWork:
    """Precomputed per-sample work for one epoch."""

    sample_id: int
    split: int
    wire_bytes: int
    prefix_cpu_s: float
    suffix_cpu_s: float


class EpochWork(Mapping[int, SampleWork]):
    """One epoch's per-sample work as four columns indexed by sample id.

    What :meth:`TrainerSim._epoch_work` builds and the cursor engine
    reads: entry ``i`` of ``split``, ``wire_bytes``, ``prefix_cpu_s`` and
    ``suffix_cpu_s`` belongs to sample ``i``.  As a mapping it reads like
    the reference builder's ``{sample_id: SampleWork}`` dict -- rows are
    built on access -- so the two compare equal exactly when every field
    of every sample does.
    """

    __slots__ = ("split", "wire_bytes", "prefix_cpu_s", "suffix_cpu_s")

    def __init__(
        self,
        split: List[int],
        wire_bytes: List[int],
        prefix_cpu_s: List[float],
        suffix_cpu_s: List[float],
    ) -> None:
        self.split = split
        self.wire_bytes = wire_bytes
        self.prefix_cpu_s = prefix_cpu_s
        self.suffix_cpu_s = suffix_cpu_s

    @classmethod
    def from_rows(cls, rows: Iterable[SampleWork]) -> "EpochWork":
        """Columns of per-sample rows given in sample-id order 0..n-1."""
        rows = list(rows)
        return cls(
            [row.split for row in rows],
            [row.wire_bytes for row in rows],
            [row.prefix_cpu_s for row in rows],
            [row.suffix_cpu_s for row in rows],
        )

    def __len__(self) -> int:
        return len(self.split)

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self.split)))

    def __getitem__(self, sample_id: int) -> SampleWork:
        if not 0 <= sample_id < len(self.split):
            raise KeyError(sample_id)
        return SampleWork(
            sample_id=sample_id,
            split=self.split[sample_id],
            wire_bytes=self.wire_bytes[sample_id],
            prefix_cpu_s=self.prefix_cpu_s[sample_id],
            suffix_cpu_s=self.suffix_cpu_s[sample_id],
        )

    def set_row(self, item: SampleWork) -> None:
        """Overwrite one sample's entries with ``item``."""
        index = item.sample_id
        self.split[index] = item.split
        self.wire_bytes[index] = item.wire_bytes
        self.prefix_cpu_s[index] = item.prefix_cpu_s
        self.suffix_cpu_s[index] = item.suffix_cpu_s


def _split_index(split: Any, n_ops: int) -> int:
    """``split`` as an int, or ``ValueError`` unless it is a whole number
    in ``0..n_ops`` (1.7 and NaN are rejected, not truncated)."""
    if isinstance(split, numbers.Real) and 0 <= split <= n_ops and split == split // 1:
        return int(split)
    raise ValueError(f"bad split {split} for {n_ops}-op pipeline")


@dataclasses.dataclass(frozen=True)
class WorkAdjustment:
    """Extension hook: per-sample deltas applied on top of the plan.

    Used by the selective-compression extension (paper section 6): shrink
    the wire payload and charge the compress/decompress CPU time to the
    respective nodes.  The byte delta is an integer of either sign; the
    CPU seconds are finite and >= 0 (ValueError otherwise).
    """

    wire_bytes_delta: int = 0
    extra_storage_cpu_s: float = 0.0
    extra_compute_cpu_s: float = 0.0

    def __post_init__(self) -> None:
        checked("wire_bytes_delta", self.wire_bytes_delta, -math.inf, integral=True)
        checked("extra_storage_cpu_s", self.extra_storage_cpu_s, 0.0)
        checked("extra_compute_cpu_s", self.extra_compute_cpu_s, 0.0)

    def apply(self, work: SampleWork) -> SampleWork:
        wire = work.wire_bytes + self.wire_bytes_delta
        if wire < 0:
            raise ValueError(
                f"adjustment drives sample {work.sample_id} wire size negative"
            )
        return dataclasses.replace(
            work,
            wire_bytes=wire,
            prefix_cpu_s=work.prefix_cpu_s + self.extra_storage_cpu_s,
            suffix_cpu_s=work.suffix_cpu_s + self.extra_compute_cpu_s,
        )


@dataclasses.dataclass
class EpochStats:
    """What one simulated epoch measured."""

    epoch_time_s: float
    traffic_bytes: int
    num_samples: int
    num_batches: int
    offloaded_samples: int
    gpu_utilization: float
    compute_cpu_utilization: float
    storage_cpu_utilization: float
    link_utilization: float
    analytic: EpochMetrics
    #: Per-batch timeline, populated when run_epoch(record_timeline=True).
    timeline: Optional[Timeline] = None
    #: Fault accounting, populated when run_epoch(faults=...) injected any.
    faults: Optional[FaultReport] = None
    #: Per-sample span tracer (virtual timestamps), populated when
    #: run_epoch(record_spans=True).
    spans: Optional[Tracer] = None
    #: Busy fraction of each shard's storage CPU pool, in shard order, on
    #: a sharded storage cluster; empty on a single node.
    shard_utilization: List[float] = dataclasses.field(default_factory=list)

    def __str__(self) -> str:
        return (
            f"EpochStats(time={self.epoch_time_s:.2f}s, "
            f"traffic={self.traffic_bytes / 1e6:.1f}MB, "
            f"gpu={self.gpu_utilization:.0%}, offloaded={self.offloaded_samples})"
        )


@dataclasses.dataclass
class JobHandles:
    """The simulation resources one training job runs against.

    In single-job runs every resource is private; in multi-job runs the
    link and the storage pool are shared across jobs -- see
    :mod:`repro.cluster.multijob`.  ``storage_pools`` holds one pool on a
    single node or a shared link, one per shard on a sharded storage
    cluster (a :class:`TrainerSim` ``placement``), where ``shard_of`` picks
    the pool of the shard holding each sample, and none without storage
    cores.
    """

    compute_cpu: Resource
    link: Resource
    gpu: Resource
    prefetch: Resource
    #: Storage CPU pools offloaded prefixes run on (empty: no storage cores).
    storage_pools: Sequence[Resource]
    #: Flow identifier for fair-queued shared links (None on private links).
    flow_key: object = None
    #: sample id -> index into ``storage_pools`` (sharded clusters); also
    #: stamps a ``shard`` label onto per-sample spans.
    shard_of: Optional[Callable[[int], int]] = None
    #: Tenant name stamped as a ``job`` label onto every span this job
    #: emits (multi-job runs share one tracer across tenants).
    job_label: Optional[str] = None

    def storage_pool(self, sample_id: int) -> Optional[Resource]:
        """The storage CPU pool an offloaded prefix of ``sample_id`` uses."""
        if not self.storage_pools:
            return None
        return self.storage_pools[0 if self.shard_of is None else self.shard_of(sample_id)]

    def storage_utilization(self, horizon: float) -> float:
        """Aggregate storage-CPU busy fraction across every pool."""
        capacity = sum(pool.capacity for pool in self.storage_pools)
        if horizon <= 0 or capacity == 0:
            return 0.0
        return sum(pool.busy_time for pool in self.storage_pools) / (capacity * horizon)

    def span_attrs(self, sample_id: Optional[int] = None) -> Dict[str, object]:
        """Shard/tenant labels for spans about ``sample_id`` (or job-wide)."""
        attrs: Dict[str, object] = {}
        if self.job_label is not None:
            attrs["job"] = self.job_label
        if sample_id is not None and self.shard_of is not None:
            attrs["shard"] = self.shard_of(sample_id)
        return attrs


def round_robin_placement(num_samples: int, num_shards: int) -> List[int]:
    """sample_id -> shard, spreading consecutive ids across shards."""
    checked("num_shards", num_shards, 1, integral=True)
    return [i % num_shards for i in range(num_samples)]


#: argparse type of a ``--shards`` flag: an integer >= 1.
shard_count = flag_type("shard_count", 1, integral=True)


class TrainerSim:
    """Simulate training epochs for a (dataset, pipeline, model) workload.

    Batches take the samples in id order.  The storage side is one node,
    or, given a ``placement``, a sharded storage cluster: the paper's
    "remote storage clusters such as distributed file systems or object
    stores" -- many nodes, each holding a shard of the dataset and
    contributing CPU for near-storage preprocessing, all draining through
    the one inter-cluster link.  Each shard gets its own pool of
    ``spec.storage_cores`` cores (aggregate storage CPU is ``num_shards *
    storage_cores``), a sample's offloaded prefix runs on the pool of the
    shard holding it (the data is there), its spans gain a ``shard``
    label, and the stats report each shard's busy fraction
    (``EpochStats.shard_utilization``).

    The interesting failure mode is placement skew: if the offload-heavy
    samples cluster on one shard, that node becomes the bottleneck while
    the others idle -- aggregate cores stop being the right capacity
    measure.

    placement: sample id -> shard id, one integer >= 0 per sample (e.g.
        :func:`round_robin_placement`); None (default) is a single node.
    num_shards: explicit shard count (needs a ``placement``); defaults to
        ``max(placement) + 1``.  Pass it when trailing shards may receive
        no samples (e.g. a contiguous placement of 4 samples over 8
        shards), so the idle shards still show up in
        ``shard_utilization`` instead of silently vanishing.
    """

    def __init__(
        self,
        dataset: Dataset,
        pipeline: Pipeline,
        model: ModelProfile,
        spec: ClusterSpec,
        batch_size: Optional[int] = None,
        seed: int = 0,
        job_label: Optional[str] = None,
        *,
        placement: Optional[Sequence[int]] = None,
        num_shards: Optional[int] = None,
    ) -> None:
        self.dataset = dataset
        self.pipeline = pipeline
        self.model = model
        self.spec = spec
        self.batch_size = batch_size if batch_size is not None else model.batch_size
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        self.seed = seed
        #: Tenant name stamped onto spans as a ``job`` label (None = no label).
        self.job_label = job_label
        #: Shard of each sample and the shard count (both None: single node).
        self.placement: Optional[List[int]] = None
        self.num_shards: Optional[int] = None
        if placement is None:
            if num_shards is not None:
                raise ValueError("num_shards needs a placement")
            return
        if len(placement) != len(dataset):
            raise ValueError(
                f"placement covers {len(placement)} samples, dataset has {len(dataset)}"
            )
        shards: List[int] = []
        for shard in placement:
            if isinstance(shard, bool) or not isinstance(shard, numbers.Integral) or shard < 0:
                raise ValueError(f"shard ids must be integers >= 0, got {shard!r}")
            shards.append(int(shard))
        inferred = (max(shards) + 1) if shards else 1
        if num_shards is None:
            num_shards = inferred
        else:
            num_shards = int(checked("num_shards", num_shards, 1, integral=True))
            if inferred > num_shards:
                raise ValueError(
                    f"placement references shard {inferred - 1} but num_shards is "
                    f"{num_shards}"
                )
        self.placement = shards
        self.num_shards = num_shards

    # -- work precomputation ------------------------------------------------

    def sample_work(self, sample_id: int, split: int, epoch: int) -> SampleWork:
        """Wire size and CPU cost split for one sample at one split point."""
        meta = self.dataset.raw_meta(sample_id)
        run = self.pipeline.simulate(
            meta, seed=self.seed, epoch=epoch, sample_id=sample_id
        )
        split = _split_index(split, len(run.stages))
        sizes = [meta.nbytes] + [s.out_meta.nbytes for s in run.stages]
        costs = [s.cost_s for s in run.stages]
        return SampleWork(
            sample_id=sample_id,
            split=split,
            wire_bytes=sizes[split],
            prefix_cpu_s=sum(costs[:split]),
            suffix_cpu_s=sum(costs[split:]),
        )

    def _check_work(self, item: SampleWork) -> None:
        """Reject storage-side work this cluster cannot run (one sample)."""
        if item.split == 0 and item.prefix_cpu_s > 0:
            raise ValueError(
                f"sample {item.sample_id} has storage-side work but split 0"
            )
        if item.split > 0 and not self.spec.can_offload:
            raise ValueError(
                f"sample {item.sample_id} plans split {item.split} but the "
                "cluster has no storage cores; clamp the plan first"
            )

    def _reference_epoch_work(
        self,
        splits: Optional[Sequence[int]],
        epoch: int,
        adjustments: Optional[Dict[int, "WorkAdjustment"]] = None,
    ) -> Dict[int, SampleWork]:
        """The per-sample :meth:`sample_work` loop: ``kernel="reference"``'s
        work builder and the oracle :meth:`_epoch_work` must equal."""
        work: Dict[int, SampleWork] = {}
        for sample_id in self.dataset.sample_ids():
            split = 0 if splits is None else splits[sample_id]
            item = self.sample_work(sample_id, split, epoch)
            if adjustments is not None and sample_id in adjustments:
                item = adjustments[sample_id].apply(item)
            self._check_work(item)
            work[sample_id] = item
        return work

    def _epoch_work(
        self,
        splits: Optional[Sequence[int]],
        epoch: int,
        adjustments: Optional[Dict[int, "WorkAdjustment"]] = None,
    ) -> EpochWork:
        """Every sample's work for one epoch, as columns, from one batch
        simulation (:meth:`_stages` cut by :meth:`_fold_work`)."""
        return self._fold_work(self._stages(epoch), splits, adjustments)

    def _stages(self, epoch: int) -> Tuple[np.ndarray, np.ndarray]:
        """Every sample's stage-size and op-cost matrices at ``epoch``, from
        one :func:`~repro.parallel.vectorized.simulate_batch` call."""
        from repro.parallel import vectorized

        ids = self.dataset.sample_ids()
        return vectorized.simulate_batch(
            self.pipeline, self.dataset.raw_metas(ids), ids, seed=self.seed, epoch=epoch
        )

    def _fold_work(
        self,
        stages: Tuple[np.ndarray, np.ndarray],
        splits: Optional[Sequence[int]],
        adjustments: Optional[Dict[int, "WorkAdjustment"]] = None,
    ) -> EpochWork:
        """The epoch work ``splits`` cuts from the :meth:`_stages` matrices.

        :func:`~repro.preprocessing.records.split_folds` sums each sample's
        prefix and suffix in the association order ``sum(costs[:split])``
        uses (empty folds stay int 0), so ``splits=None`` gives exactly the
        split-0 :meth:`sample_work` rows a demoted sample falls back to.
        Validation is column-wise and raises :meth:`_reference_epoch_work`'s
        messages at the same first sample.
        """
        sizes, costs = stages
        n, n_ops = costs.shape
        if splits is None:
            values = np.zeros(n)
        else:
            values = np.asarray(splits[:n], dtype=np.float64)
        # Whole numbers in 0..n_ops only (NaN fails every comparison).
        in_range = (values >= 0) & (values <= n_ops) & (values == np.floor(values))
        split_arr = np.where(in_range, values, 0).astype(np.int64)

        # The first sample a check rejects outright: a bad split, or any
        # offload on a cluster without storage cores.  Adjusted samples are
        # checked one by one below (an adjustment can add storage work).
        rejected = ~in_range
        if not self.spec.can_offload:
            rejected |= split_arr > 0
        first_rejected = int(np.argmax(rejected)) if rejected.any() else n

        prefix, suffix = split_folds(costs, split_arr)
        work = EpochWork(
            split_arr.tolist(), sizes[np.arange(n), split_arr].tolist(), prefix, suffix
        )

        def checked_work(sample_id: int) -> SampleWork:
            item = work[sample_id]
            if adjustments is not None and sample_id in adjustments:
                item = adjustments[sample_id].apply(item)
            self._check_work(item)
            return item

        for sample_id in sorted(adjustments or ()):
            if 0 <= sample_id < first_rejected:
                work.set_row(checked_work(sample_id))
        if first_rejected < n:
            if not in_range[first_rejected]:
                assert splits is not None
                raise ValueError(
                    f"bad split {splits[first_rejected]} for {n_ops}-op pipeline"
                )
            checked_work(first_rejected)  # raises
        return work

    # -- simulation -----------------------------------------------------------

    def _build_handles(
        self, env: Environment, kernel: ModuleType = _fast_kernel
    ) -> JobHandles:
        """The private resource set one epoch runs against.

        ``kernel`` supplies the Resource classes so reference-kernel runs
        build refsim resources against a refsim environment.  No storage
        cores means no storage pools at all, on any number of shards: a
        split > 0 plan is rejected by the work builder instead of silently
        granting a phantom core.
        """
        spec = self.spec
        names: List[str] = []
        if spec.can_offload:
            shards = self.num_shards
            names = ["storage-cpu"] if shards is None else [f"shard-{s}-cpu" for s in range(shards)]
        pools = [kernel.Resource(env, spec.storage_cores, name) for name in names]
        shard_of = None if self.placement is None else self.placement.__getitem__
        return JobHandles(
            compute_cpu=kernel.Resource(env, spec.compute_cores, "compute-cpu"),
            link=kernel.Resource(env, 1, "link"),
            gpu=kernel.Resource(env, 1, "gpu"),
            prefetch=kernel.Resource(env, spec.prefetch_batches, "prefetch-window"),
            storage_pools=pools,
            shard_of=shard_of,
            job_label=self.job_label,
        )

    def run_epoch(
        self,
        splits: Optional[Sequence[int]] = None,
        epoch: int = 0,
        adjustments: Optional[Dict[int, WorkAdjustment]] = None,
        record_timeline: bool = False,
        faults: Optional[FaultSchedule] = None,
        record_spans: bool = False,
        kernel: str = "fast",
    ) -> EpochStats:
        """Simulate one epoch under the given per-sample offload splits.

        splits: index = sample id, value = number of leading ops executed on
            the storage node (0 = fetch raw).  None means no offloading.
        adjustments: optional per-sample work deltas (see WorkAdjustment).
        record_timeline: attach a per-batch Timeline to the stats (for
            stall-breakdown analysis via repro.metrics).
        faults: optional deterministic fault schedule (virtual-time axis);
            the epoch survives every fault class by demoting failed
            offloads to the split-0 No-Off path.  Empty/None schedules are
            byte-identical to the fault-free run.
        record_spans: attach a per-sample span Tracer (stats.spans) whose
            clock is the simulator's virtual time; the simulated schedule
            is identical with or without it.
        kernel: "fast" (default) runs the cursor engine; "reference"
            replays the frozen seed kernel and launcher end to end.  Both
            produce byte-identical stats, fault reports, spans and
            timelines -- the contract ``repro.bench`` gates on.
        """
        return self._simulate(
            splits, epoch, adjustments, record_timeline, faults, record_spans, kernel
        )[0]

    def _simulate(
        self,
        splits: Optional[Sequence[int]] = None,
        epoch: int = 0,
        adjustments: Optional[Dict[int, WorkAdjustment]] = None,
        record_timeline: bool = False,
        faults: Optional[FaultSchedule] = None,
        record_spans: bool = False,
        kernel: str = "fast",
    ) -> Tuple[EpochStats, Environment]:
        """:meth:`run_epoch`, also returning the drained environment (whose
        sequence counter tells how many heap pushes the epoch made)."""
        kernel_mod = _kernel(kernel)
        if faults is not None and faults.is_empty:
            faults = None
        fault_report = FaultReport() if faults is not None else None
        # The two kernels are duck-compatible; refsim environments carry
        # refsim resources (built below), so the cast is safe.
        env = cast(Environment, kernel_mod.Environment())
        handles = self._build_handles(env, kernel_mod)
        timeline = Timeline() if record_timeline else None
        tracer = Tracer(clock=lambda: env.now) if record_spans else None
        columns, batches, traffic = self._launch(
            env, handles, kernel, splits, epoch, adjustments,
            timeline=timeline, faults=faults, fault_report=fault_report, tracer=tracer,
        )
        env.run()

        horizon = env.now
        split = columns.split
        overhead = self.spec.response_overhead_bytes
        # Left folds over the columns in sample order, as the per-row sums
        # over the reference builder's dict run.
        analytic = EpochMetrics(
            gpu_time_s=sum(self.model.batch_time_s(len(ids)) for ids in batches),
            # Raw single-core seconds; EpochModel applies the CPU factors.
            compute_cpu_s=sum(columns.suffix_cpu_s),
            storage_cpu_s=sum([p for s, p in zip(split, columns.prefix_cpu_s) if s > 0]),
            traffic_bytes=sum([wire + overhead for wire in columns.wire_bytes]),
        )
        shard_utilization: List[float] = []
        if self.num_shards is not None:
            shard_utilization = [
                pool.utilization(horizon) for pool in handles.storage_pools
            ] or [0.0] * self.num_shards
        stats = EpochStats(
            epoch_time_s=horizon,
            traffic_bytes=traffic["bytes"],
            num_samples=len(split),
            num_batches=len(batches),
            offloaded_samples=len(split) - split.count(0),
            gpu_utilization=handles.gpu.utilization(horizon),
            compute_cpu_utilization=handles.compute_cpu.utilization(horizon),
            storage_cpu_utilization=handles.storage_utilization(horizon),
            link_utilization=handles.link.utilization(horizon),
            analytic=analytic,
            timeline=timeline,
            faults=fault_report,
            spans=tracer,
            shard_utilization=shard_utilization,
        )
        return stats, env

    def _launch(
        self,
        env: Environment,
        handles: JobHandles,
        kernel: str,
        splits: Optional[Sequence[int]],
        epoch: int,
        adjustments: Optional[Dict[int, WorkAdjustment]] = None,
        timeline: Optional[Timeline] = None,
        faults: Optional[FaultSchedule] = None,
        fault_report: Optional[FaultReport] = None,
        tracer: Optional[Tracer] = None,
    ) -> Tuple[EpochWork, List[List[int]], Dict[str, Any]]:
        """Register this job's epoch on ``env`` against ``handles``: the one
        launch path single-node, sharded and shared-link runs share.

        Checks ``splits`` against the dataset, builds the epoch work with
        ``kernel``'s builder (on the fast kernel, the split-0 demotion
        fallback comes from the same ``simulate_batch`` call), batches the
        samples in id order and calls ``kernel``'s launcher.  Returns the work
        columns, the batches and the job's live traffic counter.
        """
        if splits is not None and len(splits) != len(self.dataset):
            raise ValueError(
                f"splits has {len(splits)} entries, dataset has {len(self.dataset)}"
            )
        launch: Callable[..., Dict[str, Any]]
        work: Mapping[int, SampleWork]
        fallback_work: Optional[Callable[[int], SampleWork]] = None
        if kernel == "reference":
            launch = _reference_kernel.launch_training_processes
            work = self._reference_epoch_work(splits, epoch, adjustments)
            columns = EpochWork.from_rows(work.values())
            if faults is not None:
                fallback_work = functools.partial(self.sample_work, split=0, epoch=epoch)
        else:
            launch = launch_training_job
            stages = self._stages(epoch)
            work = columns = self._fold_work(stages, splits, adjustments)
            if faults is not None:
                fallback_work = self._fold_work(stages, None).__getitem__
        n, size = len(self.dataset), self.batch_size
        batches = [list(range(start, min(start + size, n))) for start in range(0, n, size)]
        traffic = launch(
            env, self.spec, work, batches, self.model, handles,
            timeline=timeline, faults=faults, fault_report=fault_report,
            fallback_work=fallback_work, tracer=tracer, epoch=epoch,
        )
        return columns, batches, traffic
