"""The offline bench: profile -> plan -> simulate, layer by layer.

Each scale makes one pass over an OpenImages trace of that size: build
the dataset once, build its records with the sequential reference and
the vectorized builder, plan on the resulting
:class:`~repro.preprocessing.records.RecordTable` and on the sequential
records handed over as a plain list, then simulate an epoch under the
frozen seed kernel (``kernel="reference"``) and the cursor engine
(``kernel="fast"``) with every split depth (``i % 6``) in play.  The
results go to ``BENCH.json`` with schema ``sophon-bench/v2``: per scale,
one row per layer, keyed by the layer names ``BENCHMARK.json`` uses,
holding best-of seconds and µs per sample for each path (reference path
first); the ``cluster.run_epoch`` row adds the fast path's µs per sample
with faults, spans and timeline all on (``instrumented_us_per_sample``).
The smallest scale's record-building and epoch rows also carry
tracemalloc peak bytes and live blocks.

Every production path is gated against its reference, and a speed
number from a path that diverges is meaningless, so ``identical: false``
fails the run.  The gates: vectorized records equal the sequential ones,
the table plan equals the list plan, and the fast epoch's
:func:`stats_fingerprint` equals the reference's, fault-free and under
crash/brownout/corruption faults; :func:`aux_gates` adds spans,
timelines, the sharded trainer and the shared-link multi-job sim, and
:func:`bench_profiler_e2e` the real-pixel profile -> plan -> simulate
flow.

``--million`` adds the headline entry: a full 10^6-sample pass on the
production paths (the reference paths are never timed there --
extrapolate from the measured scales).

Run it via ``make bench`` or directly::

    PYTHONPATH=src python -m repro.bench --million --out BENCH.json

Wall-clock use is injectable (``timer=time.perf_counter``) and confined
to the measurement loop; everything measured is itself deterministic.
"""

import argparse
import dataclasses
import functools
import json
import time
import tracemalloc
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.multijob import SharedJob, SharedLinkSim
from repro.cluster.spec import standard_cluster
from repro.cluster.trainer import EpochStats, TrainerSim, round_robin_placement
from repro.core.decision import DecisionConfig, DecisionEngine
from repro.core.plan import OffloadPlan
from repro.core.policy import PolicyContext
from repro.data.catalog import make_openimages
from repro.data.dataset import Dataset
from repro.faults import FaultSchedule
from repro.parallel import build_records
from repro.preprocessing.pipeline import standard_pipeline
from repro.preprocessing.records import RecordTable, SampleRecord
from repro.utils.floats import flag_type
from repro.workloads.models import get_model_profile

Clock = Callable[[], float]

#: Schema tag for ``BENCH.json``.  Bump only when the layout changes
#: incompatibly; tools reading the file key off this string.
SCHEMA = "sophon-bench/v2"

#: Default dataset sizes.  The largest carries the headline numbers; the
#: smaller ones show how the gaps scale.
DEFAULT_SCALES = (400, 4000, 32000)

#: Timed layers in report order, each with its (reference, production)
#: paths.
LAYERS: Dict[str, Tuple[str, str]] = {
    "parallel.build_records": ("sequential", "vectorized"),
    "core.plan": ("list", "table"),
    "cluster.epoch_work": ("reference", "fast"),
    "cluster.run_epoch": ("reference", "fast"),
}

#: Layers whose rows carry tracemalloc figures at the smallest scale.
ALLOCATION_LAYERS = ("parallel.build_records", "cluster.run_epoch")


def best_of(fn: Callable[[], object], repeats: int, timer: Clock) -> float:
    """Minimum wall time of ``repeats`` calls -- the least-noisy estimator."""
    best = float("inf")
    for _ in range(repeats):
        started = timer()
        fn()
        elapsed = timer() - started
        if elapsed < best:
            best = elapsed
    return best


def allocation_stats(fn: Callable[[], object]) -> Tuple[int, int]:
    """tracemalloc ``(peak_bytes, live_blocks)`` of one call of ``fn``.

    ``peak_bytes`` is the high-water mark of traced allocations;
    ``live_blocks`` counts blocks still held when the call returns (its
    result plus anything the path failed to recycle).  Call it after
    ``fn`` has run once, so warm-up caches are not counted.
    """
    tracemalloc.start()
    result = fn()
    snapshot = tracemalloc.take_snapshot()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del result
    return peak, len(snapshot.traces)


def stats_fingerprint(stats: Any) -> str:
    """Every float of an EpochStats, serialized exactly.

    ``spans`` is excluded -- Tracer objects carry no deterministic repr
    (memory addresses leak in) -- and compared via :func:`span_fingerprint`
    instead.
    """
    payload = dataclasses.asdict(stats)
    payload.pop("spans", None)
    return json.dumps(payload, sort_keys=True, default=repr)


def span_fingerprint(stats: Any) -> List[str]:
    """Every span event of an instrumented run, in emission order."""
    if stats.spans is None:
        return []
    return [repr(event) for event in stats.spans.events]


def heap_pushes(trainer: TrainerSim, splits: Sequence[int], kernel: str) -> int:
    """Heap pushes of one epoch: its environment's sequence counter once
    the run has drained."""
    _, env = trainer._simulate(splits, epoch=1, kernel=kernel)
    return next(env._counter)


def _trainer_and_splits(dataset: Dataset, seed: int) -> Tuple[TrainerSim, List[int]]:
    """A trainer over ``dataset`` plus splits of every depth (``i % 6``),
    so the engine's prefix/suffix, chunking and offload branches all see
    traffic."""
    trainer = TrainerSim(
        dataset=dataset,
        pipeline=standard_pipeline(),
        model=get_model_profile("alexnet"),
        spec=standard_cluster(storage_cores=48),
        seed=seed,
    )
    return trainer, [i % 6 for i in range(len(dataset))]


def bench_scale(
    num_samples: int,
    seed: int = 7,
    repeats: int = 3,
    timer: Clock = time.perf_counter,
    allocation: bool = False,
) -> Dict[str, object]:
    """Gate and time every layer at one dataset scale; returns its entry.

    ``allocation`` adds tracemalloc figures to the rows of
    :data:`ALLOCATION_LAYERS`.
    """
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    dataset = make_openimages(num_samples=num_samples, seed=seed)
    trainer, splits = _trainer_and_splits(dataset, seed)
    engine = DecisionEngine(DecisionConfig())
    gpu_time_s = trainer.model.epoch_gpu_time_s(num_samples)

    def build(path: str) -> RecordTable:
        return build_records(trainer.pipeline, dataset, seed=seed, parallel=path)

    records = {path: build(path) for path in LAYERS["parallel.build_records"]}
    plan_inputs: Dict[str, Sequence[SampleRecord]] = {
        "list": list(records["sequential"]),
        "table": records["vectorized"],
    }

    def plan(path: str) -> OffloadPlan:
        return engine.plan(plan_inputs[path], trainer.spec, gpu_time_s)

    def epoch_work(path: str) -> object:
        if path == "reference":
            return trainer._reference_epoch_work(splits, epoch=1)
        return trainer._epoch_work(splits, epoch=1)

    def simulate(path: str, faults: Optional[FaultSchedule] = None) -> EpochStats:
        return trainer.run_epoch(splits, epoch=1, faults=faults, kernel=path)

    table_plan = plan("table")
    ref = simulate("reference")
    # Fault injection drives the engine's crash, brownout and corruption
    # paths, pinned here against the seed launcher.
    faults = (
        FaultSchedule()
        .with_crash(0.3 * ref.epoch_time_s, duration=0.15 * ref.epoch_time_s)
        .with_brownout(
            0.6 * ref.epoch_time_s,
            duration=0.1 * ref.epoch_time_s,
            bandwidth_factor=0.4,
        )
        .with_corruption(0.02)
    )

    def instrumented() -> EpochStats:
        return trainer.run_epoch(
            splits, epoch=1, faults=faults, record_spans=True, record_timeline=True
        )

    gates = {
        "records": records["vectorized"] == records["sequential"],
        "plan": table_plan == plan("list"),
        "epoch": stats_fingerprint(simulate("fast")) == stats_fingerprint(ref),
        "epoch_faulted": stats_fingerprint(simulate("fast", faults))
        == stats_fingerprint(simulate("reference", faults)),
    }

    runs: Dict[str, Callable[[str], object]] = {
        "parallel.build_records": build,
        "core.plan": plan,
        "cluster.epoch_work": epoch_work,
        "cluster.run_epoch": simulate,
    }
    layers: Dict[str, object] = {}
    for layer, paths in LAYERS.items():
        run = runs[layer]
        seconds = {
            path: best_of(functools.partial(run, path), repeats, timer) for path in paths
        }
        row: Dict[str, object] = {
            "seconds": seconds,
            "us_per_sample": {
                path: elapsed / num_samples * 1e6 for path, elapsed in seconds.items()
            },
        }
        if allocation and layer in ALLOCATION_LAYERS:
            measured = {path: allocation_stats(functools.partial(run, path)) for path in paths}
            row["peak_bytes"] = {path: peak for path, (peak, _) in measured.items()}
            row["live_blocks"] = {path: live for path, (_, live) in measured.items()}
        if layer == "cluster.run_epoch":
            row["instrumented_us_per_sample"] = {
                "fast": best_of(instrumented, repeats, timer) / num_samples * 1e6
            }
            pushes = {path: heap_pushes(trainer, splits, path) for path in paths}
            row["heap_pushes_per_sample"] = {
                path: count / num_samples for path, count in pushes.items()
            }
            row["us_per_push"] = {
                path: seconds[path] / count * 1e6 for path, count in pushes.items()
            }
        layers[layer] = row

    return {
        "num_samples": num_samples,
        "seed": seed,
        "repeats": repeats,
        "identical": all(gates.values()),
        "gates": gates,
        "layers": layers,
        "num_offloaded": table_plan.num_offloaded,
        "epoch_time_s": ref.epoch_time_s,
        "traffic_bytes": ref.traffic_bytes,
    }


def aux_gates(num_samples: int = 240, seed: int = 7) -> Dict[str, bool]:
    """Identity gates for every mode the per-scale loop does not time.

    spans/timeline pin the engine's instrumented runs; sharded and
    multijob pin it under per-shard pools and fair-queued shared links.
    """
    trainer, splits = _trainer_and_splits(
        make_openimages(num_samples=num_samples, seed=seed), seed
    )

    ref = trainer.run_epoch(splits, epoch=1, record_spans=True, kernel="reference")
    fast = trainer.run_epoch(splits, epoch=1, record_spans=True)
    spans_ok = stats_fingerprint(ref) == stats_fingerprint(
        fast
    ) and span_fingerprint(ref) == span_fingerprint(fast)

    ref_tl = trainer.run_epoch(splits, epoch=1, record_timeline=True, kernel="reference")
    fast_tl = trainer.run_epoch(splits, epoch=1, record_timeline=True)
    timeline_ok = stats_fingerprint(ref_tl) == stats_fingerprint(fast_tl)

    sharded = TrainerSim(
        trainer.dataset,
        trainer.pipeline,
        trainer.model,
        trainer.spec,
        seed=seed,
        placement=round_robin_placement(num_samples, 4),
    )
    sharded_ok = stats_fingerprint(
        sharded.run_epoch(splits, epoch=0, kernel="reference")
    ) == stats_fingerprint(sharded.run_epoch(splits, epoch=0, kernel="fast"))

    jobs = [
        SharedJob(
            name=f"tenant-{i}",
            dataset=make_openimages(num_samples=num_samples // 2, seed=seed + i),
            pipeline=trainer.pipeline,
            model=trainer.model,
            splits=[j % 6 for j in range(num_samples // 2)],
            batch_size=16,
            seed=seed + i,
        )
        for i in range(2)
    ]
    multi = SharedLinkSim(trainer.spec)
    multi_ref = multi.run_epoch(jobs, epoch=0, kernel="reference")
    multi_fast = multi.run_epoch(jobs, epoch=0, kernel="fast")
    multijob_ok = stats_fingerprint(multi_ref) == stats_fingerprint(multi_fast)

    return {
        "spans_identical": spans_ok,
        "timeline_identical": timeline_ok,
        "sharded_identical": sharded_ok,
        "multijob_identical": multijob_ok,
    }


def bench_profiler_e2e(
    seed: int = 7,
    repeats: int = 3,
    timer: Clock = time.perf_counter,
) -> Dict[str, object]:
    """End-to-end profile -> plan -> simulate over real pixels.

    Times the real-execution :class:`StageTwoProfiler` pass on a
    materialized dataset, plans from the profiled records, and gates the
    fast epoch simulation of that plan against the reference kernel.
    """
    from repro.core.profiler import StageTwoProfiler
    from repro.data.synthetic import ImageContentConfig, SyntheticImageDataset

    dataset = SyntheticImageDataset(
        num_samples=32,
        seed=seed,
        content=ImageContentConfig(min_side=64, max_side=160),
        name="bench-e2e",
    )
    pipeline = standard_pipeline()
    profiler = StageTwoProfiler(use_real_execution=True)

    records = profiler.profile(dataset, pipeline, seed=seed)
    profile_s = {
        "sequential": best_of(
            lambda: profiler.profile(dataset, pipeline, seed=seed), repeats, timer
        ),
    }

    spec = standard_cluster(storage_cores=48)
    model = get_model_profile("alexnet")
    context = PolicyContext(
        dataset=dataset, pipeline=pipeline, spec=spec, model=model, seed=seed
    )
    plan = DecisionEngine(DecisionConfig()).plan(records, spec, context.epoch_gpu_time_s)
    trainer = TrainerSim(
        dataset=dataset, pipeline=pipeline, model=model, spec=spec, seed=seed
    )
    ref = trainer.run_epoch(plan.splits, epoch=1, kernel="reference")
    fast = trainer.run_epoch(plan.splits, epoch=1, kernel="fast")
    return {
        "num_samples": len(dataset),
        "identical": stats_fingerprint(ref) == stats_fingerprint(fast),
        "profile_seconds": profile_s,
        "num_offloaded": plan.num_offloaded,
        "epoch_time_s": ref.epoch_time_s,
    }


def bench_million(
    num_samples: int = 1_000_000,
    seed: int = 7,
    timer: Clock = time.perf_counter,
) -> Dict[str, object]:
    """The headline run: profile, plan and simulate 10^6 samples, fast path.

    Single-shot (no best-of) -- at this scale one pass is minutes of work
    and run-to-run noise is a rounding error on the phase totals.  The
    reference kernel is deliberately never run here; its cost is
    extrapolated from the measured scales.
    """
    dataset = make_openimages(num_samples=num_samples, seed=seed)
    pipeline = standard_pipeline()
    spec = standard_cluster(storage_cores=48)
    model = get_model_profile("alexnet")

    started = timer()
    records = build_records(pipeline, dataset, seed=seed)
    records_s = timer() - started

    context = PolicyContext(
        dataset=dataset, pipeline=pipeline, spec=spec, model=model, seed=seed
    )
    engine = DecisionEngine(DecisionConfig())
    started = timer()
    plan = engine.plan(records, spec, context.epoch_gpu_time_s)
    plan_s = timer() - started

    trainer = TrainerSim(
        dataset=dataset, pipeline=pipeline, model=model, spec=spec, seed=seed
    )
    started = timer()
    stats = trainer.run_epoch(plan.splits, epoch=1, kernel="fast")
    simulate_s = timer() - started

    return {
        "num_samples": num_samples,
        "completed": True,
        "seconds": {
            "profile_records": records_s,
            "plan": plan_s,
            "simulate_epoch": simulate_s,
            "total": records_s + plan_s + simulate_s,
        },
        "simulate_us_per_sample": simulate_s / num_samples * 1e6,
        "num_offloaded": plan.num_offloaded,
        "epoch_time_s": stats.epoch_time_s,
        "traffic_bytes": stats.traffic_bytes,
    }


def run_bench(
    scales: Sequence[int] = DEFAULT_SCALES,
    seed: int = 7,
    repeats: int = 3,
    million: Optional[int] = None,
    timer: Clock = time.perf_counter,
) -> Dict[str, object]:
    """Benchmark every scale; returns the full ``BENCH.json`` dict."""
    if not scales:
        raise ValueError("need at least one scale to benchmark")
    ordered = sorted(scales)
    results = [
        bench_scale(n, seed=seed, repeats=repeats, timer=timer, allocation=index == 0)
        for index, n in enumerate(ordered)
    ]
    gates = aux_gates(num_samples=min(ordered[0], 240), seed=seed)
    e2e = bench_profiler_e2e(seed=seed, repeats=repeats, timer=timer)
    report: Dict[str, object] = {
        "schema": SCHEMA,
        "layers": {layer: list(paths) for layer, paths in LAYERS.items()},
        "scales": results,
        "gates": gates,
        "profiler_e2e": e2e,
        "identical": (
            all(entry["identical"] for entry in results)
            and all(gates.values())
            and bool(e2e["identical"])
        ),
    }
    if million is not None:
        report["million"] = bench_million(num_samples=million, seed=seed, timer=timer)
    return report


def failed_gates(report: Dict[str, Any]) -> List[str]:
    """Every gate of ``report`` that did not hold, by name."""
    failed = [
        f"n={entry['num_samples']} {gate}"
        for entry in report["scales"]
        for gate, ok in entry["gates"].items()
        if not ok
    ]
    failed += [gate for gate, ok in report["gates"].items() if not ok]
    if not report["profiler_e2e"]["identical"]:
        failed.append("profiler_e2e")
    return failed


def render_summary(report: Dict[str, Any]) -> str:
    """A terse human-readable digest of one report."""
    lines = [f"us per sample, reference -> production path ({report['schema']}):"]
    for entry in report["scales"]:
        lines.append(f"  n={entry['num_samples']}:")
        for layer, (reference, production) in report["layers"].items():
            seconds = entry["layers"][layer]["seconds"]
            us = entry["layers"][layer]["us_per_sample"]
            speedup = (
                f" ({seconds[reference] / seconds[production]:.1f}x)"
                if seconds[production] > 0
                else ""
            )
            lines.append(
                f"    {layer:<24} {reference} {us[reference]:.2f} -> "
                f"{production} {us[production]:.2f}{speedup}"
            )
        instrumented = entry["layers"]["cluster.run_epoch"]["instrumented_us_per_sample"]
        lines.append(
            f"    {'cluster.run_epoch':<24} fast + faults, spans, timeline "
            f"{instrumented['fast']:.2f}"
        )
    smallest = report["scales"][0]
    for layer in ALLOCATION_LAYERS:
        row = smallest["layers"][layer]
        if "peak_bytes" in row:
            parts = ", ".join(
                f"{path} {peak / 1024:.0f} KiB, {row['live_blocks'][path]} live blocks"
                for path, peak in row["peak_bytes"].items()
            )
            lines.append(f"peak allocation, {layer} at n={smallest['num_samples']}: {parts}")
    million = report.get("million")
    if million is not None:
        seconds = million["seconds"]
        lines.append(
            f"million-sample pass: simulated {million['num_samples']} samples in "
            f"{seconds['simulate_epoch']:.1f}s "
            f"({million['simulate_us_per_sample']:.1f} us/sample; "
            f"profile+plan+simulate {seconds['total']:.1f}s)"
        )
    failed = failed_gates(report)
    lines.append("gates: all identical" if not failed else f"gates FAILED: {failed}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate and time profile -> plan -> simulate; write BENCH.json."
    )
    parser.add_argument(
        "--scales", type=flag_type("scales", 1, integral=True), nargs="+",
        default=list(DEFAULT_SCALES),
        help=f"dataset sizes to benchmark (default {list(DEFAULT_SCALES)})",
    )
    parser.add_argument("--seed", type=flag_type("seed", 0, integral=True), default=7)
    parser.add_argument(
        "--repeats", type=flag_type("repeats", 1, integral=True), default=3,
        help="timed runs per measurement; best-of is reported (default 3)",
    )
    parser.add_argument(
        "--million", action="store_true",
        help="also run the full 10^6-sample profile->plan->simulate pass",
    )
    parser.add_argument(
        "--million-samples", type=flag_type("million_samples", 1, integral=True),
        default=1_000_000,
        help="sample count for the --million entry (default 1000000)",
    )
    parser.add_argument(
        "--out", default="BENCH.json",
        help="where to write the JSON report (default BENCH.json)",
    )
    args = parser.parse_args(argv)

    report = run_bench(
        scales=args.scales,
        seed=args.seed,
        repeats=args.repeats,
        million=args.million_samples if args.million else None,
    )
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(render_summary(report))
    print(f"report written to {args.out}")
    if not report["identical"]:
        print("FAIL: a production path diverged from its reference")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
