"""The traffic-vs-fidelity frontier: what degrading buys under pressure.

The new scenario axis from *Progressive Compressed Records* (PAPERS.md):
re-encode a dataset's raw objects as progressive streams, then sweep the
fidelity planner's quality floor and record, at each floor, how much
traffic the plan ships and how much fidelity it gives up.  Relaxing the
floor can only shed bytes (truncation is monotone), so the sweep traces a
frontier; ``sophon-repro frontier`` renders it as a table and JSON in one
invocation.
"""

import dataclasses
import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.spec import ClusterSpec, standard_cluster
from repro.codec.progressive import (
    ProgressiveCodecConfig,
    ProgressiveJpegCodec,
    scan_prefix_metrics,
    scan_sizes,
)
from repro.core.decision import DecisionConfig, DecisionEngine
from repro.core.fidelity import FidelityConfig, FidelityPlanner
from repro.core.plan import OffloadPlan
from repro.data.dataset import Dataset
from repro.parallel import build_records
from repro.preprocessing.pipeline import Pipeline, standard_pipeline
from repro.preprocessing.records import ProgressiveSampleRecord
from repro.utils.tables import render_table
from repro.utils.units import format_bytes, format_seconds
from repro.workloads.models import get_model_profile

#: Quality floors swept by default, from "barely degrade" to "anything
#: decodable goes"; None is the fidelity-free baseline point.
DEFAULT_FLOORS: Tuple[Optional[float], ...] = (None, 45.0, 40.0, 35.0, 30.0, 25.0)


def build_progressive_records(
    dataset: Dataset,
    pipeline: Optional[Pipeline] = None,
    seed: int = 0,
    codec: Optional[ProgressiveJpegCodec] = None,
) -> List[ProgressiveSampleRecord]:
    """Profile ``dataset`` with its raw objects re-encoded progressively.

    Each sample's stored bytes are decoded and re-encoded with ``codec``,
    so the record's raw stage size is the progressive stream's size and
    its scan ladder (cumulative prefix sizes, prefix PSNRs vs. the full
    decode) comes from the actual stream.  Downstream stage sizes and op
    costs are profiled exactly as for plain records -- they depend on the
    decoded image, which the full progressive stream reproduces.
    """
    if not dataset.is_materialized:
        raise ValueError("progressive profiling needs a materialized dataset")
    if pipeline is None:
        pipeline = standard_pipeline()
    if codec is None:
        codec = ProgressiveJpegCodec(ProgressiveCodecConfig())
    records: List[ProgressiveSampleRecord] = []
    for base in build_records(pipeline, dataset, seed=seed):
        sample_id = base.sample_id
        # decode() delegates baseline (TJPG) streams, so either stored
        # format re-encodes cleanly.
        image = codec.decode(dataset.raw_payload(sample_id).data)
        stream = codec.encode(image)
        fidelities = scan_prefix_metrics(stream, codec)
        records.append(
            ProgressiveSampleRecord(
                sample_id=sample_id,
                stage_sizes=(len(stream),) + base.stage_sizes[1:],
                op_costs=base.op_costs,
                scan_sizes=scan_sizes(stream),
                scan_psnr_db=tuple(f.psnr_db for f in fidelities),
            )
        )
    return records


@dataclasses.dataclass(frozen=True)
class FrontierPoint:
    """One quality floor's outcome on the traffic-vs-fidelity frontier."""

    #: PSNR floor in dB; None is the fidelity-free baseline.
    min_psnr_db: Optional[float]
    traffic_bytes: int
    saved_bytes: int
    offloaded_samples: int
    degraded_samples: int
    #: Lowest PSNR any shipped sample was degraded to (None: none degraded).
    worst_psnr_db: Optional[float]
    epoch_estimate_s: float
    bottleneck: str
    network_bound: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "min_psnr_db": self.min_psnr_db,
            "traffic_bytes": self.traffic_bytes,
            "saved_bytes": self.saved_bytes,
            "offloaded_samples": self.offloaded_samples,
            "degraded_samples": self.degraded_samples,
            "worst_psnr_db": self.worst_psnr_db,
            "epoch_estimate_s": self.epoch_estimate_s,
            "bottleneck": self.bottleneck,
            "network_bound": self.network_bound,
        }


@dataclasses.dataclass
class FidelityFrontier:
    """The swept frontier plus enough provenance to reproduce it."""

    dataset_name: str
    num_samples: int
    gpu_time_s: float
    spec: ClusterSpec
    points: List[FrontierPoint]

    def render(self) -> str:
        rows = []
        for point in self.points:
            floor = (
                "off" if point.min_psnr_db is None else f"{point.min_psnr_db:.0f}dB"
            )
            worst = (
                "-" if point.worst_psnr_db is None else f"{point.worst_psnr_db:.1f}dB"
            )
            rows.append(
                (
                    floor,
                    format_bytes(point.traffic_bytes),
                    format_bytes(point.saved_bytes),
                    point.offloaded_samples,
                    point.degraded_samples,
                    worst,
                    format_seconds(point.epoch_estimate_s),
                    point.bottleneck,
                )
            )
        title = (
            f"[{self.dataset_name}] traffic-vs-fidelity frontier "
            f"({self.num_samples} samples, "
            f"{self.spec.bandwidth_mbps:.0f} Mbps link)"
        )
        table = render_table(
            (
                "Floor",
                "Traffic",
                "Saved",
                "Offloaded",
                "Degraded",
                "WorstPSNR",
                "Epoch",
                "Bottleneck",
            ),
            rows,
        )
        return f"{title}\n{table}"

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": "fidelity-frontier",
                "version": 1,
                "dataset": self.dataset_name,
                "num_samples": self.num_samples,
                "gpu_time_s": self.gpu_time_s,
                "bandwidth_mbps": self.spec.bandwidth_mbps,
                "storage_cores": self.spec.storage_cores,
                "points": [p.to_dict() for p in self.points],
            },
            indent=2,
        )


def _point(
    floor: Optional[float],
    plan: OffloadPlan,
    records: Sequence[ProgressiveSampleRecord],
    overhead_bytes: int,
) -> FrontierPoint:
    traffic = plan.expected_traffic_bytes(records, overhead_bytes=overhead_bytes)
    full = sum(r.raw_size for r in records) + overhead_bytes * len(records)
    degraded_psnrs = [
        record.psnr_at(count)
        for record, count in zip(records, plan.scan_counts or [None] * len(records))
        if count is not None
    ]
    assert plan.expected is not None
    return FrontierPoint(
        min_psnr_db=floor,
        traffic_bytes=traffic,
        saved_bytes=full - traffic,
        offloaded_samples=plan.num_offloaded,
        degraded_samples=plan.num_degraded,
        worst_psnr_db=min(degraded_psnrs) if degraded_psnrs else None,
        epoch_estimate_s=plan.expected.epoch_time_s,
        bottleneck=plan.expected.bottleneck.value,
        network_bound=plan.expected.network_bound,
    )


def fidelity_frontier(
    dataset: Dataset,
    spec: Optional[ClusterSpec] = None,
    floors: Sequence[Optional[float]] = DEFAULT_FLOORS,
    seed: int = 0,
    gpu_time_s: Optional[float] = None,
    pipeline: Optional[Pipeline] = None,
    records: Optional[Sequence[ProgressiveSampleRecord]] = None,
) -> FidelityFrontier:
    """Sweep fidelity floors against one cluster spec.

    Records are profiled once (or passed in) and shared across floors --
    only the planner re-runs per point.  ``floors`` entries are PSNR
    minima in dB; ``None`` plans without the fidelity axis, anchoring the
    frontier at full fidelity.
    """
    if spec is None:
        # The frontier is about bandwidth pressure: default to a tight link
        # so the fidelity pass actually has traffic to shed.
        spec = standard_cluster().with_bandwidth(50.0)
    if records is None:
        records = build_progressive_records(dataset, pipeline=pipeline, seed=seed)
    if gpu_time_s is None:
        gpu_time_s = get_model_profile("alexnet", "rtx6000").epoch_gpu_time_s(
            len(records)
        )
    engine = DecisionEngine(DecisionConfig())
    points: List[FrontierPoint] = []
    for floor in floors:
        if floor is None:
            plan = engine.plan(records, spec, gpu_time_s)
        else:
            plan = FidelityPlanner(engine, FidelityConfig(min_psnr_db=floor)).plan(
                records, spec, gpu_time_s
            )
        points.append(
            _point(floor, plan, records, overhead_bytes=spec.response_overhead_bytes)
        )
    return FidelityFrontier(
        dataset_name=dataset.name,
        num_samples=len(records),
        gpu_time_s=gpu_time_s,
        spec=spec,
        points=points,
    )
