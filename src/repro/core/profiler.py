"""SOPHON's two-stage profiler (paper section 3.1).

Stage one answers "is this workload I/O-bound?" by probing the three
throughputs the paper measures over the first 50 batches:

1. GPU throughput -- the model trained on synthetic in-memory data;
2. I/O throughput -- raw fetch from remote storage, no CPU/GPU work;
3. CPU throughput -- preprocessing over data cached by probe 2.

Stage two collects per-sample metrics (stage sizes, per-op CPU time) during
the first real epoch, which runs without offloading, so profiling adds no
extra pass over the dataset.
"""

import dataclasses
import enum
from typing import Optional

from repro.cluster.spec import ClusterSpec
from repro.data.dataset import Dataset
from repro.parallel import build_records
from repro.parallel.vectorized import left_fold, simulate_batch
from repro.preprocessing.pipeline import Pipeline
from repro.preprocessing.records import RecordTable, SampleRecord
from repro.workloads.models import ModelProfile


class BottleneckKind(enum.Enum):
    GPU = "gpu"
    CPU = "cpu"
    IO = "io"


@dataclasses.dataclass(frozen=True)
class ThroughputProbe:
    """Stage-one result: throughput (batches/s) under each isolated setting."""

    gpu_batches_per_s: float
    io_batches_per_s: float
    cpu_batches_per_s: float
    probe_batches: int

    @property
    def bottleneck(self) -> BottleneckKind:
        slowest = min(
            (self.gpu_batches_per_s, BottleneckKind.GPU),
            (self.io_batches_per_s, BottleneckKind.IO),
            (self.cpu_batches_per_s, BottleneckKind.CPU),
        )
        return slowest[1]

    @property
    def io_bound(self) -> bool:
        return self.bottleneck is BottleneckKind.IO


class StageOneProfiler:
    """Probe GPU / I/O / CPU throughput over the first ``probe_batches``."""

    def __init__(self, probe_batches: int = 50) -> None:
        if probe_batches < 1:
            raise ValueError(f"probe_batches must be >= 1, got {probe_batches}")
        self.probe_batches = probe_batches

    def probe(
        self,
        dataset: Dataset,
        pipeline: Pipeline,
        spec: ClusterSpec,
        model: ModelProfile,
        batch_size: Optional[int] = None,
        seed: int = 0,
    ) -> ThroughputProbe:
        """Probe the three throughputs.

        The CPU probe (setting 3) runs on the vectorized batch simulator;
        the per-sample costs and their accumulation order are the
        sequential loop's, so the probe is bit-identical to it.
        """
        batch_size = batch_size if batch_size is not None else model.batch_size
        num_probe = min(len(dataset), self.probe_batches * batch_size)
        if num_probe == 0:
            raise ValueError("cannot profile an empty dataset")
        probe_ids = list(range(num_probe))
        metas = [dataset.raw_meta(i) for i in probe_ids]
        batches = max(1, num_probe // batch_size)

        # Setting 1: synthetic data straight to the GPU.
        gpu_rate = 1.0 / model.batch_time_s(batch_size)

        # Setting 2: raw fetch only; throughput set by the link.
        raw_bytes = sum(meta.nbytes for meta in metas)
        raw_bytes += num_probe * spec.response_overhead_bytes
        io_seconds = raw_bytes / spec.bandwidth_bytes_per_s
        io_rate = batches / io_seconds if io_seconds > 0 else float("inf")

        # Setting 3: preprocess the cached probe data on the compute cores.
        _, costs = simulate_batch(pipeline, metas, probe_ids, seed=seed, epoch=0)
        cpu_seconds = 0.0
        for total in left_fold(costs):
            cpu_seconds += total
        cpu_seconds = cpu_seconds * spec.compute_cpu_factor / spec.compute_cores
        cpu_rate = batches / cpu_seconds if cpu_seconds > 0 else float("inf")

        return ThroughputProbe(
            gpu_batches_per_s=gpu_rate,
            io_batches_per_s=io_rate,
            cpu_batches_per_s=cpu_rate,
            probe_batches=batches,
        )


class StageTwoProfiler:
    """Collect per-sample records during the first (non-offloaded) epoch.

    On trace datasets the records come from the pipeline's metadata
    simulation; on materialized datasets ``use_real_execution=True`` runs
    the actual ops instead -- the two agree exactly (asserted by tests), the
    real path just also touches pixels.
    """

    def __init__(self, use_real_execution: bool = False) -> None:
        self.use_real_execution = use_real_execution

    def profile(
        self,
        dataset: Dataset,
        pipeline: Pipeline,
        seed: int = 0,
        epoch: int = 0,
    ) -> RecordTable:
        """Build one record per sample."""
        if self.use_real_execution and not dataset.is_materialized:
            raise ValueError("real-execution profiling needs a materialized dataset")
        if not self.use_real_execution:
            return build_records(pipeline, dataset, seed=seed, epoch=epoch)
        records = []
        for sample_id in dataset.sample_ids():
            payload = dataset.raw_payload(sample_id)
            run = pipeline.run(payload, seed=seed, epoch=epoch, sample_id=sample_id)
            sizes = (payload.nbytes,) + tuple(s.out_meta.nbytes for s in run.stages)
            costs = tuple(s.cost_s for s in run.stages)
            records.append(
                SampleRecord(sample_id=sample_id, stage_sizes=sizes, op_costs=costs)
            )
        return RecordTable.from_records(records)
