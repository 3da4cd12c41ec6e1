"""Many training jobs sharing one storage egress link (paper section 5).

"GPU clusters often run hundreds or thousands of DL training jobs
simultaneously, putting substantial strain on the network between GPU
clusters and remote storage. For example, a 400 V100 GPU cluster requires
an aggregate I/O bandwidth of 200 Gbps, while Azure's maximum egress
bandwidth is only 120 Gbps."

This module simulates J concurrent jobs: each job has its own compute
node (CPU pool, GPU, prefetch window) but all jobs contend for one shared
egress link and one shared storage-node CPU pool.  The per-job epoch
completion times quantify how many jobs a given egress budget sustains --
with and without SOPHON shrinking each job's wire bytes.  Each tenant
launches through :class:`~repro.cluster.trainer.TrainerSim`'s one launch
path, so its plan is checked and its work built exactly as on a single
node; this module owns only the shared resources, the per-tenant handles
and the result rows.

``run_epoch`` accepts the same telemetry switches as the single-node
trainer: ``record_spans`` collects every tenant's per-sample spans into
one shared :class:`~repro.telemetry.spans.Tracer` (each span carries a
``job`` label naming its tenant, on the same ``trace_id(sample, epoch)``
ids as the single-node path), and ``record_timeline`` attaches one batch
:class:`~repro.metrics.timeline.Timeline` per job.  The simulated
schedule is byte-identical with or without either.
"""

import dataclasses
from typing import Dict, Optional, Sequence, cast

from repro.cluster.sim import Environment
from repro.cluster.spec import ClusterSpec
from repro.cluster.trainer import JobHandles, TrainerSim, WorkAdjustment, _kernel
from repro.data.dataset import Dataset
from repro.metrics.timeline import Timeline
from repro.preprocessing.pipeline import Pipeline
from repro.telemetry.spans import Tracer
from repro.workloads.models import ModelProfile


@dataclasses.dataclass
class SharedJob:
    """One tenant of the shared link."""

    name: str
    dataset: Dataset
    pipeline: Pipeline
    model: ModelProfile
    splits: Optional[Sequence[int]] = None
    batch_size: Optional[int] = None
    seed: int = 0
    #: Optional per-sample work deltas (selective compression et al.),
    #: applied exactly as TrainerSim.run_epoch(adjustments=...) would.
    adjustments: Optional[Dict[int, WorkAdjustment]] = None


@dataclasses.dataclass
class SharedJobResult:
    """Per-job outcome of a shared-link run."""

    name: str
    epoch_time_s: float
    traffic_bytes: int


@dataclasses.dataclass
class SharedLinkStats:
    """Outcome of running all jobs to completion on the shared link."""

    results: Dict[str, SharedJobResult]
    makespan_s: float
    total_traffic_bytes: int
    link_utilization: float
    storage_cpu_utilization: float
    #: Every tenant's span events on one tracer (``job`` label names the
    #: tenant), populated when run_epoch(record_spans=True).
    spans: Optional[Tracer] = None
    #: Per-job batch timelines, populated when run_epoch(record_timeline=True).
    timelines: Optional[Dict[str, Timeline]] = None

    def epoch_time(self, name: str) -> float:
        return self.results[name].epoch_time_s

    @property
    def mean_epoch_time_s(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.epoch_time_s for r in self.results.values()) / len(self.results)


class SharedLinkSim:
    """Run several jobs' epochs concurrently over one egress link.

    ``spec.bandwidth_mbps`` is the *aggregate* egress budget;
    ``spec.storage_cores`` the shared storage-side preprocessing pool.
    Per-job compute resources come from the same spec (each job gets its
    own compute node, as in a GPU cluster).
    """

    def __init__(self, spec: ClusterSpec) -> None:
        self.spec = spec

    def run_epoch(
        self,
        jobs: Sequence[SharedJob],
        epoch: int = 0,
        record_timeline: bool = False,
        record_spans: bool = False,
        kernel: str = "fast",
    ) -> SharedLinkStats:
        """Run every job's epoch to completion on the shared link.

        record_spans: collect all tenants' per-sample spans on one tracer
            (stats.spans); each span carries a ``job`` label.
        record_timeline: attach one per-batch Timeline per job
            (stats.timelines, keyed by job name).
        kernel: same contract as :meth:`TrainerSim.run_epoch` -- "fast"
            runs every tenant on the cursor engine, "reference" replays
            the frozen seed kernel and launcher, and both are
            byte-identical.
        Neither telemetry switch perturbs the simulated schedule.
        """
        kernel_mod = _kernel(kernel)
        names = [job.name for job in jobs]
        if len(set(names)) != len(names):
            raise ValueError(f"job names must be unique, got {names}")
        if not jobs:
            raise ValueError("need at least one job")

        env = cast(Environment, kernel_mod.Environment())
        spec = self.spec
        # Fair-queued: concurrent jobs share bandwidth round-robin at chunk
        # granularity instead of draining whole bursts FIFO.
        link = kernel_mod.FairResource(env, 1, "shared-link")
        storage_pools = (
            [kernel_mod.Resource(env, spec.storage_cores, "shared-storage-cpu")]
            if spec.can_offload
            else []
        )
        tracer = Tracer(clock=lambda: env.now) if record_spans else None
        timelines: Optional[Dict[str, Timeline]] = (
            {job.name: Timeline() for job in jobs} if record_timeline else None
        )

        counters: Dict[str, Dict] = {}
        for job in jobs:
            trainer = TrainerSim(
                dataset=job.dataset,
                pipeline=job.pipeline,
                model=job.model,
                spec=spec,
                batch_size=job.batch_size,
                seed=job.seed,
            )
            handles = JobHandles(
                compute_cpu=kernel_mod.Resource(
                    env, spec.compute_cores, f"{job.name}-cpu"
                ),
                link=link,
                gpu=kernel_mod.Resource(env, 1, f"{job.name}-gpu"),
                prefetch=kernel_mod.Resource(
                    env, spec.prefetch_batches, f"{job.name}-prefetch"
                ),
                storage_pools=storage_pools,
                flow_key=job.name,
                job_label=job.name,
            )
            _, _, counters[job.name] = trainer._launch(
                env, handles, kernel, job.splits, epoch, job.adjustments,
                timeline=timelines[job.name] if timelines is not None else None,
                tracer=tracer,
            )

        env.run()
        makespan = env.now

        results = {}
        for job in jobs:
            counter = counters[job.name]
            if not counter["done"]:
                raise RuntimeError(f"job {job.name} did not finish")
            results[job.name] = SharedJobResult(
                name=job.name,
                epoch_time_s=counter["finished_at"],
                traffic_bytes=counter["bytes"],
            )
        return SharedLinkStats(
            results=results,
            makespan_s=makespan,
            total_traffic_bytes=sum(r.traffic_bytes for r in results.values()),
            link_utilization=link.utilization(makespan),
            storage_cpu_utilization=(
                storage_pools[0].utilization(makespan) if storage_pools else 0.0
            ),
            spans=tracer,
            timelines=timelines,
        )
