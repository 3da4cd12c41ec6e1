"""Chaos experiment: one epoch under each fault class vs the clean baseline.

For a fixed SOPHON plan, run the event-driven trainer once fault-free and
once under each :class:`~repro.faults.FaultSchedule` scenario (storage
crash, link brownout, storage CPU drift, payload corruption), and report
what the faults cost: epoch-time and traffic deltas, demotion counts, and
recovery latency.  Zero samples may be lost under any scenario -- the
degraded-mode machinery serves every demoted sample at split 0.

Run it as a module (``make chaos``)::

    PYTHONPATH=src python -m repro.harness.chaos --samples 160 --seed 7
"""

import argparse
import contextlib
import dataclasses
from typing import List, Optional

from repro.cluster.spec import ClusterSpec, standard_cluster
from repro.cluster.trainer import EpochStats, TrainerSim, round_robin_placement, shard_count
from repro.core.decision import DecisionConfig, DecisionEngine
from repro.core.policy import PolicyContext
from repro.data.catalog import make_openimages
from repro.data.dataset import Dataset
from repro.faults import FaultSchedule
from repro.harness.telemetry import emit_artifacts, record_epoch_stats
from repro.preprocessing.pipeline import Pipeline, standard_pipeline
from repro.telemetry.audit import AuditLog
from repro.telemetry.registry import MetricsRegistry, use_registry
from repro.utils.floats import flag_type
from repro.utils.tables import render_table
from repro.utils.units import format_bytes, format_seconds
from repro.workloads.models import ModelProfile, get_model_profile

#: Small batches stagger offloads across the epoch, so post-restart fetches
#: exist and recovery latency is observable (one giant batch launches every
#: offload before the crash window opens).
CHAOS_BATCH_SIZE = 16

#: Shallow prefetch for the same reason: with the default depth of 8 the
#: whole dataset is in flight at t=0 and a mid-epoch crash finds nothing
#: left to interrupt.
CHAOS_PREFETCH_BATCHES = 2

#: Every run simulates the first planned epoch (epoch 0 profiles).
_EPOCH = 1


@dataclasses.dataclass(frozen=True)
class ChaosScenario:
    """One named fault schedule to survive."""

    name: str
    schedule: FaultSchedule
    description: str = ""


@dataclasses.dataclass
class ChaosRun:
    """One scenario's epoch next to the fault-free baseline."""

    scenario: ChaosScenario
    stats: EpochStats
    baseline: EpochStats

    @property
    def epoch_delta_s(self) -> float:
        return self.stats.epoch_time_s - self.baseline.epoch_time_s

    @property
    def traffic_delta_bytes(self) -> int:
        return self.stats.traffic_bytes - self.baseline.traffic_bytes

    @property
    def lost_samples(self) -> int:
        """Samples the faulty epoch failed to deliver (must be zero)."""
        return self.baseline.num_samples - self.stats.num_samples

    @property
    def demoted_samples(self) -> int:
        return self.stats.faults.demoted_samples if self.stats.faults else 0

    @property
    def corrupted_payloads(self) -> int:
        return self.stats.faults.corrupted_payloads if self.stats.faults else 0

    @property
    def recovery_latency_s(self) -> Optional[float]:
        return self.stats.faults.recovery_latency_s if self.stats.faults else None


@dataclasses.dataclass
class ChaosReport:
    """Every scenario's outcome for one (dataset, plan, cluster) setup."""

    dataset_name: str
    baseline: EpochStats
    runs: List[ChaosRun]
    #: Populated by ``run_chaos(telemetry=True)``: the planning audit log
    #: and the registry every counter from the run landed in.
    audit: Optional[AuditLog] = None
    registry: Optional[MetricsRegistry] = None

    @property
    def survived(self) -> bool:
        return all(run.lost_samples == 0 for run in self.runs)

    def run_named(self, name: str) -> ChaosRun:
        for run in self.runs:
            if run.scenario.name == name:
                return run
        raise KeyError(f"no chaos scenario named {name!r}")

    def render(self) -> str:
        rows = [
            (
                "baseline",
                format_seconds(self.baseline.epoch_time_s),
                format_bytes(self.baseline.traffic_bytes),
                0,
                0,
                "-",
                0,
            )
        ]
        for run in self.runs:
            latency = run.recovery_latency_s
            rows.append(
                (
                    run.scenario.name,
                    format_seconds(run.stats.epoch_time_s),
                    format_bytes(run.stats.traffic_bytes),
                    run.demoted_samples,
                    run.corrupted_payloads,
                    format_seconds(latency) if latency is not None else "-",
                    run.lost_samples,
                )
            )
        title = f"[{self.dataset_name}] epoch under injected faults"
        table = render_table(
            ("Scenario", "Epoch", "Traffic", "Demoted", "Corrupted", "Recovery", "Lost"),
            rows,
        )
        return f"{title}\n{table}"


def default_scenarios(epoch_time_s: float, seed: int = 0) -> List[ChaosScenario]:
    """The four fault classes, windowed relative to the clean epoch time.

    Windows open at ~30% of the baseline epoch, after the pipeline has
    warmed up but with plenty of work still in flight.
    """
    if epoch_time_s <= 0:
        raise ValueError(f"epoch_time_s must be > 0, got {epoch_time_s}")
    t = epoch_time_s
    base = FaultSchedule(seed=seed)
    return [
        ChaosScenario(
            name="storage-crash",
            schedule=base.with_crash(0.3 * t, duration=0.3 * t),
            description="storage node down for 30% of the epoch, then restarts",
        ),
        ChaosScenario(
            name="link-brownout",
            schedule=base.with_brownout(
                0.3 * t, duration=0.4 * t, bandwidth_factor=0.1, extra_rtt_s=0.002
            ),
            description="bandwidth collapses to 10% and RTT rises for 40% of the epoch",
        ),
        ChaosScenario(
            name="storage-cpu-drift",
            schedule=base.with_cpu_drift(0.3 * t, duration=0.5 * t, factor=4.0),
            description="storage CPUs run 4x slower for half the epoch",
        ),
        ChaosScenario(
            name="payload-corruption",
            schedule=base.with_corruption(0.05),
            description="5% of wire payloads fail their checksum and are resent",
        ),
    ]


def run_chaos(
    dataset: Dataset,
    spec: Optional[ClusterSpec] = None,
    model: Optional[ModelProfile] = None,
    pipeline: Optional[Pipeline] = None,
    batch_size: int = CHAOS_BATCH_SIZE,
    seed: int = 0,
    scenarios: Optional[List[ChaosScenario]] = None,
    telemetry: bool = False,
    shards: Optional[int] = None,
) -> ChaosReport:
    """Plan once with SOPHON's decision engine, then survive each scenario.

    The same plan and epoch index are used for every run, so any delta vs
    the baseline is attributable to the injected faults alone.

    With ``shards=N`` the epochs run on a sharded storage cluster
    (a round-robin ``placement``, ``spec.storage_cores`` per shard)
    through the very same ``run_epoch`` calls -- faults, spans and
    timelines included.

    With ``telemetry=True`` the run becomes fully observable: planning
    writes a decision audit log, every epoch records per-sample spans and
    a batch timeline, and all counters land in a fresh registry scoped to
    this call -- the report carries ``audit`` and ``registry``, ready for
    :func:`write_chaos_telemetry`.  The simulated epochs themselves are
    byte-identical with telemetry on or off.
    """
    if spec is None:
        spec = dataclasses.replace(
            standard_cluster(), prefetch_batches=CHAOS_PREFETCH_BATCHES
        )
    model = model if model is not None else get_model_profile("alexnet")
    pipeline = pipeline if pipeline is not None else standard_pipeline()

    registry = MetricsRegistry() if telemetry else None
    audit = AuditLog() if telemetry else None
    with contextlib.ExitStack() as stack:
        if registry is not None:
            stack.enter_context(use_registry(registry))
        context = PolicyContext(
            dataset=dataset,
            pipeline=pipeline,
            spec=spec,
            model=model,
            batch_size=batch_size,
            seed=seed,
        )
        plan = DecisionEngine(DecisionConfig()).plan(
            context.records(), spec, gpu_time_s=context.epoch_gpu_time_s, audit=audit
        )
        trainer = TrainerSim(
            dataset=dataset,
            pipeline=pipeline,
            model=model,
            spec=spec,
            batch_size=batch_size,
            seed=seed,
            placement=(
                None if shards is None else round_robin_placement(len(dataset), shards)
            ),
            num_shards=shards,
        )
        baseline = trainer.run_epoch(
            list(plan.splits), epoch=_EPOCH,
            record_spans=telemetry, record_timeline=telemetry,
        )
        if telemetry:
            record_epoch_stats(baseline, "baseline", registry)
        if scenarios is None:
            scenarios = default_scenarios(baseline.epoch_time_s, seed=seed)

        runs: List[ChaosRun] = []
        for scenario in scenarios:
            stats = trainer.run_epoch(
                list(plan.splits), epoch=_EPOCH, faults=scenario.schedule,
                record_spans=telemetry, record_timeline=telemetry,
            )
            if telemetry:
                record_epoch_stats(stats, scenario.name, registry)
            runs.append(ChaosRun(scenario=scenario, stats=stats, baseline=baseline))
    return ChaosReport(
        dataset_name=dataset.name,
        baseline=baseline,
        runs=runs,
        audit=audit,
        registry=registry,
    )


def write_chaos_telemetry(report: ChaosReport, out_dir: str) -> List[str]:
    """Write the chaos artifact tree under ``out_dir``; returns the paths.

    Per run (baseline + each scenario): a span JSONL and a chrome trace.
    Once per report: ``chaos.telemetry.jsonl`` holding the metrics
    snapshot and the planning audit, plus ``chaos.metrics.prom``.
    """
    if report.registry is None:
        raise ValueError(
            "report carries no telemetry; produce it with run_chaos(telemetry=True)"
        )
    paths = emit_artifacts(out_dir, "baseline", [(_EPOCH, report.baseline)])
    for run in report.runs:
        paths.extend(
            emit_artifacts(out_dir, run.scenario.name, [(_EPOCH, run.stats)])
        )
    paths.extend(
        emit_artifacts(out_dir, "chaos", registry=report.registry, audit=report.audit)
    )
    return paths


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one epoch under each fault class and report the damage."
    )
    parser.add_argument("--samples", type=flag_type("samples", 1, integral=True),
                        default=160, help="dataset size")
    parser.add_argument("--seed", type=flag_type("seed", 0, integral=True), default=7,
                        help="dataset + fault seed")
    parser.add_argument("--batch-size", type=flag_type("batch_size", 1, integral=True),
                        default=CHAOS_BATCH_SIZE, help="training batch size")
    parser.add_argument(
        "--telemetry-dir",
        help="also write telemetry artifacts (span JSONL, chrome traces, "
        "Prometheus text, decision audit) under this directory",
    )
    parser.add_argument(
        "--shards",
        type=shard_count,
        default=None,
        help="run the epochs on a sharded storage tier with this many shards "
        "(round-robin placement)",
    )
    args = parser.parse_args(argv)

    dataset = make_openimages(num_samples=args.samples, seed=args.seed)
    report = run_chaos(
        dataset,
        batch_size=args.batch_size,
        seed=args.seed,
        telemetry=args.telemetry_dir is not None,
        shards=args.shards,
    )
    print(report.render())
    if args.telemetry_dir is not None:
        for path in write_chaos_telemetry(report, args.telemetry_dir):
            print(f"telemetry written to {path}")
    if not report.survived:
        print("FAIL: samples were lost under injected faults")
        return 1
    print("All scenarios survived with zero lost samples.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
