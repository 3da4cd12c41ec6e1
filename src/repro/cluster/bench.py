"""Perf-regression harness for the epoch simulator (DES kernel + engine).

Times ``TrainerSim.run_epoch`` under the frozen seed kernel
(``kernel="reference"``: :mod:`repro.cluster.refsim` plus the sequential
work builder) against the overhauled path (``kernel="fast"``, the
default: the slotted :mod:`repro.cluster.sim` kernel, the vectorized work
builder, and the cursor engine) at several dataset scales, and writes the results
to ``BENCH_sim.json`` with a schema that stays stable across PRs.

Every scale also runs an identity gate: the fast path's
:class:`~repro.cluster.trainer.EpochStats` must serialize *byte-for-byte
equal* to the reference path's, and a faulted run on the engine must
match the seed kernel and launcher exactly.  Auxiliary gates cover
spans, timelines, the sharded trainer, the shared-link multi-job sim and
the end-to-end profile->plan->simulate flow.  A speed number from a path
that diverges is meaningless, so ``identical: false`` fails the run.

``--million`` adds the headline entry: a full 10^6-sample
profile->plan->simulate pass on the fast path (the reference kernel is
never timed there -- extrapolate from the measured scales).

Run it via ``make bench`` or directly::

    PYTHONPATH=src python -m repro.cluster.bench --out BENCH_sim.json --million

Wall-clock use is injectable (``timer=time.perf_counter``) and confined
to the measurement loop; everything measured is itself deterministic.
"""

import argparse
import dataclasses
import json
import time
import tracemalloc
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.multijob import SharedJob, SharedLinkSim
from repro.cluster.sharded import ShardedTrainerSim, round_robin_placement
from repro.cluster.spec import ClusterSpec, standard_cluster
from repro.cluster.trainer import TrainerSim
from repro.core.decision import DecisionConfig, DecisionEngine
from repro.core.policy import PolicyContext
from repro.data.catalog import make_openimages
from repro.faults import FaultSchedule
from repro.parallel import build_records
from repro.parallel.bench import Clock, best_of
from repro.preprocessing.pipeline import standard_pipeline
from repro.workloads.models import get_model_profile

#: Schema tag for ``BENCH_sim.json``.  Bump only when the layout changes
#: incompatibly; tools reading the file key off this string.
SCHEMA = "sophon-bench-sim/v1"

#: Default dataset sizes.  The largest carries the headline speedup
#: claim; the smaller ones show how the gap scales.
DEFAULT_SCALES = (400, 4000, 32000)

#: The two kernel paths every scale is timed under, in report order.
KERNELS = ("reference", "fast")


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


def _make_trainer(
    num_samples: int, seed: int, spec: Optional[ClusterSpec] = None
) -> Tuple[TrainerSim, List[int]]:
    """A trainer over the calibrated OpenImages trace plus a mixed plan."""
    dataset = make_openimages(num_samples=num_samples, seed=seed)
    trainer = TrainerSim(
        dataset=dataset,
        pipeline=standard_pipeline(),
        model=get_model_profile("alexnet"),
        spec=spec if spec is not None else standard_cluster(storage_cores=48),
        seed=seed,
    )
    # Every split depth is exercised, so the engine's prefix/suffix,
    # chunking and offload branches all see traffic.
    splits = [i % 6 for i in range(num_samples)]
    return trainer, splits


def bench_scale(
    num_samples: int,
    seed: int = 7,
    repeats: int = 3,
    timer: Clock = time.perf_counter,
) -> Dict[str, object]:
    """Benchmark one dataset scale; returns its JSON-ready result dict."""
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    trainer, splits = _make_trainer(num_samples, seed)

    ref = trainer.run_epoch(splits, epoch=1, kernel="reference")
    fast = trainer.run_epoch(splits, epoch=1, kernel="fast")
    identical = stats_fingerprint(ref) == stats_fingerprint(fast)

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
    ref_faulted = trainer.run_epoch(splits, epoch=1, faults=faults, kernel="reference")
    fast_faulted = trainer.run_epoch(splits, epoch=1, faults=faults)
    identical_faulted = stats_fingerprint(ref_faulted) == stats_fingerprint(
        fast_faulted
    )

    seconds = {
        kernel: best_of(
            lambda k=kernel: trainer.run_epoch(splits, epoch=1, kernel=k),
            repeats,
            timer,
        )
        for kernel in KERNELS
    }
    fast_s = seconds["fast"]
    return {
        "num_samples": num_samples,
        "seed": seed,
        "repeats": repeats,
        "identical": identical and identical_faulted,
        "identical_fault_free": identical,
        "identical_faulted": identical_faulted,
        "epoch_simulation": {
            "seconds": dict(seconds),
            "speedup_vs_reference": (
                seconds["reference"] / fast_s if fast_s > 0 else None
            ),
            "fast_us_per_sample": fast_s / num_samples * 1e6,
        },
        "epoch_time_s": ref.epoch_time_s,
        "traffic_bytes": ref.traffic_bytes,
    }


def aux_gates(num_samples: int = 240, seed: int = 7) -> Dict[str, bool]:
    """Identity gates for every mode the per-scale loop does not time.

    spans/timeline pin the engine's instrumented runs; sharded and
    multijob pin it under per-shard pools and fair-queued shared links.
    """
    trainer, splits = _make_trainer(num_samples, seed)

    ref = trainer.run_epoch(splits, epoch=1, record_spans=True, kernel="reference")
    fast = trainer.run_epoch(splits, epoch=1, record_spans=True)
    spans_ok = stats_fingerprint(ref) == stats_fingerprint(
        fast
    ) and span_fingerprint(ref) == span_fingerprint(fast)

    ref_tl = trainer.run_epoch(splits, epoch=1, record_timeline=True, kernel="reference")
    fast_tl = trainer.run_epoch(splits, epoch=1, record_timeline=True)
    timeline_ok = stats_fingerprint(ref_tl) == stats_fingerprint(fast_tl)

    sharded = ShardedTrainerSim(
        trainer.dataset,
        trainer.pipeline,
        trainer.model,
        trainer.spec,
        placement=round_robin_placement(num_samples, 4),
        seed=seed,
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


def allocation_stats(num_samples: int = 400, seed: int = 7) -> Dict[str, object]:
    """tracemalloc footprint of one epoch simulation under each kernel.

    ``peak_bytes`` is the high-water mark of traced allocations across
    the run; ``live_blocks`` counts blocks still held when the epoch
    returns (stats payload plus anything the kernel failed to recycle).
    """
    trainer, splits = _make_trainer(num_samples, seed)
    out: Dict[str, object] = {"num_samples": num_samples}
    for kernel in KERNELS:
        trainer.run_epoch(splits, epoch=1, kernel=kernel)  # warm caches
        tracemalloc.start()
        stats = trainer.run_epoch(splits, epoch=1, kernel=kernel)
        snapshot = tracemalloc.take_snapshot()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        out[kernel] = {
            "peak_bytes": peak,
            "live_blocks": len(snapshot.traces),
        }
        del stats, snapshot
    ref_peak = out["reference"]["peak_bytes"]  # type: ignore[index]
    fast_peak = out["fast"]["peak_bytes"]  # type: ignore[index]
    out["peak_ratio_fast_vs_reference"] = (
        fast_peak / ref_peak if ref_peak > 0 else None
    )
    return out


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
    """Benchmark every scale; returns the full ``BENCH_sim.json`` dict."""
    if not scales:
        raise ValueError("need at least one scale to benchmark")
    ordered = sorted(scales)
    results = [
        bench_scale(n, seed=seed, repeats=repeats, timer=timer) for n in ordered
    ]
    gates = aux_gates(num_samples=min(ordered[0], 240), seed=seed)
    allocation = allocation_stats(num_samples=ordered[0], seed=seed)
    e2e = bench_profiler_e2e(seed=seed, repeats=repeats, timer=timer)

    largest = results[-1]
    report: Dict[str, object] = {
        "schema": SCHEMA,
        "kernels": list(KERNELS),
        "scales": results,
        "gates": gates,
        "allocation": allocation,
        "profiler_e2e": e2e,
        "identical": (
            all(r["identical"] for r in results)
            and all(gates.values())
            and bool(e2e["identical"])
        ),
        "largest_scale": largest["num_samples"],
        "largest_scale_speedup": largest["epoch_simulation"][  # type: ignore[index]
            "speedup_vs_reference"
        ],
    }
    if million is not None:
        report["million"] = bench_million(num_samples=million, seed=seed, timer=timer)
    return report


def render_summary(report: Dict[str, object]) -> str:
    """A terse human-readable digest of one report."""
    lines = [f"epoch-simulation speedups vs reference kernel ({report['schema']}):"]
    for entry in report["scales"]:
        sim = entry["epoch_simulation"]
        flag = "" if entry["identical"] else "  [NOT IDENTICAL]"
        lines.append(
            f"  n={entry['num_samples']}: {sim['speedup_vs_reference']:.1f}x "
            f"({sim['fast_us_per_sample']:.0f} us/sample fast){flag}"
        )
    gates = report["gates"]
    failed = [name for name, ok in gates.items() if not ok]
    lines.append(
        "aux gates: all identical" if not failed else f"aux gates FAILED: {failed}"
    )
    alloc = report["allocation"]
    lines.append(
        f"peak allocation at n={alloc['num_samples']}: "
        f"fast/reference = {alloc['peak_ratio_fast_vs_reference']:.2f}"
    )
    million = report.get("million")
    if million is not None:
        seconds = million["seconds"]
        lines.append(
            f"million-sample epoch: simulated {million['num_samples']} samples in "
            f"{seconds['simulate_epoch']:.1f}s "
            f"({million['simulate_us_per_sample']:.1f} us/sample; "
            f"profile+plan+simulate {seconds['total']:.1f}s)"
        )
    lines.append(
        f"largest scale ({report['largest_scale']} samples): "
        f"{report['largest_scale_speedup']:.1f}x epoch-simulation speedup"
    )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time epoch simulation under both kernels; write BENCH_sim.json."
    )
    parser.add_argument(
        "--scales", type=int, nargs="+", default=list(DEFAULT_SCALES),
        help=f"dataset sizes to benchmark (default {list(DEFAULT_SCALES)})",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timed runs per measurement; best-of is reported (default 3)",
    )
    parser.add_argument(
        "--million", action="store_true",
        help="also run the full 10^6-sample profile->plan->simulate pass",
    )
    parser.add_argument(
        "--million-samples", type=int, default=1_000_000,
        help="sample count for the --million entry (default 1000000)",
    )
    parser.add_argument(
        "--out", default="BENCH_sim.json",
        help="where to write the JSON report (default BENCH_sim.json)",
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
        print("FAIL: the fast path diverged from the reference kernel")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
