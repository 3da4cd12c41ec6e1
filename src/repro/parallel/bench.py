"""Perf-regression harness for the profiling -> planning hot path.

Times record building (the sequential reference vs. the vectorized
builder every caller uses, which returns a
:class:`~repro.preprocessing.records.RecordTable`) and
``DecisionEngine.plan`` on that table at several dataset scales, and
writes the results to ``BENCH_profiling.json`` with a schema that stays
stable across PRs, so successive runs on the same machine are directly
comparable.

Every scale also runs a determinism gate: the table's rows must be
*equal* to the sequential records (SampleRecord equality compares every
float exactly), and the plan built from the table must equal the plan
built from the sequential records handed over as a plain list.  A speed
number from a path that diverges is meaningless, so ``identical: false``
fails the run.

Run it via ``make bench`` or directly::

    PYTHONPATH=src python -m repro.parallel.bench --out BENCH_profiling.json

Wall-clock use is injectable (``timer=time.perf_counter``) and confined
to the measurement loop; everything measured is itself deterministic.
"""

import argparse
import json
import time
import tracemalloc
from typing import Callable, Dict, List, Optional, Sequence

from repro.cluster.spec import standard_cluster
from repro.core.decision import DecisionConfig, DecisionEngine
from repro.core.policy import PolicyContext
from repro.data.catalog import make_openimages
from repro.parallel import build_records
from repro.preprocessing.pipeline import standard_pipeline
from repro.workloads.models import get_model_profile

Clock = Callable[[], float]

#: Schema tag for ``BENCH_profiling.json``.  Bump only when the layout
#: changes incompatibly; tools reading the file key off this string.
SCHEMA = "sophon-bench-profiling/v1"

#: Default dataset sizes.  The largest carries the headline speedup
#: claim; the smaller ones show how the gap scales.
DEFAULT_SCALES = (250, 1000, 4000)

#: The record builders every scale is timed under, in report order.
MODES = ("sequential", "vectorized")


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
    dataset = make_openimages(num_samples=num_samples, seed=seed)
    pipeline = standard_pipeline()

    records_by_mode = {
        mode: build_records(pipeline, dataset, seed=seed, parallel=mode)
        for mode in MODES
    }
    baseline = records_by_mode["sequential"]
    identical = all(records_by_mode[mode] == baseline for mode in MODES)

    build_s = {
        mode: best_of(
            lambda m=mode: build_records(pipeline, dataset, seed=seed, parallel=m),
            repeats,
            timer,
        )
        for mode in MODES
    }

    context = PolicyContext(
        dataset=dataset,
        pipeline=pipeline,
        spec=standard_cluster(storage_cores=48),
        model=get_model_profile("alexnet"),
        seed=seed,
    )
    engine = DecisionEngine(DecisionConfig())
    gpu_time_s = context.epoch_gpu_time_s
    table = records_by_mode["vectorized"]
    oracle_list = list(baseline)
    plan = engine.plan(table, context.spec, gpu_time_s)
    identical = identical and plan == engine.plan(oracle_list, context.spec, gpu_time_s)
    plan_s = best_of(lambda: engine.plan(table, context.spec, gpu_time_s), repeats, timer)
    list_plan_s = best_of(
        lambda: engine.plan(oracle_list, context.spec, gpu_time_s), repeats, timer
    )

    sequential_s = build_s["sequential"]
    return {
        "num_samples": num_samples,
        "seed": seed,
        "repeats": repeats,
        "identical": identical,
        "record_building": {
            "seconds": {mode: build_s[mode] for mode in MODES},
            "speedup_vs_sequential": {
                mode: sequential_s / build_s[mode] if build_s[mode] > 0 else None
                for mode in MODES
            },
        },
        "plan": {
            "seconds": plan_s,
            "list_seconds": list_plan_s,
            "num_offloaded": plan.num_offloaded,
        },
    }


def allocation_stats(num_samples: int, seed: int = 7) -> Dict[str, object]:
    """tracemalloc footprint of one record-building pass under each mode.

    ``peak_bytes`` is the high-water mark of traced allocations;
    ``live_blocks`` counts blocks still held when the pass returns (the
    records themselves plus any per-mode scaffolding that outlives it).
    """
    dataset = make_openimages(num_samples=num_samples, seed=seed)
    pipeline = standard_pipeline()
    out: Dict[str, object] = {"num_samples": num_samples}
    for mode in MODES:
        build_records(pipeline, dataset, seed=seed, parallel=mode)  # warm caches
        tracemalloc.start()
        records = build_records(pipeline, dataset, seed=seed, parallel=mode)
        snapshot = tracemalloc.take_snapshot()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        out[mode] = {"peak_bytes": peak, "live_blocks": len(snapshot.traces)}
        del records, snapshot
    return out


def run_bench(
    scales: Sequence[int] = DEFAULT_SCALES,
    seed: int = 7,
    repeats: int = 3,
    timer: Clock = time.perf_counter,
) -> Dict[str, object]:
    """Benchmark every scale; returns the full ``BENCH_profiling.json`` dict."""
    if not scales:
        raise ValueError("need at least one scale to benchmark")
    results = [
        bench_scale(n, seed=seed, repeats=repeats, timer=timer)
        for n in sorted(scales)
    ]
    allocation = allocation_stats(sorted(scales)[0], seed=seed)
    largest = results[-1]
    speedup = largest["record_building"]["speedup_vs_sequential"]["vectorized"]
    return {
        "schema": SCHEMA,
        "modes": list(MODES),
        "scales": results,
        "allocation": allocation,
        "identical": all(r["identical"] for r in results),
        "largest_scale": largest["num_samples"],
        "largest_scale_best_speedup": speedup or 0.0,
    }


def render_summary(report: Dict[str, object]) -> str:
    """A terse human-readable digest of one report."""
    lines = [f"record-building speedups vs sequential ({report['schema']}):"]
    for entry in report["scales"]:
        speedups = entry["record_building"]["speedup_vs_sequential"]
        parts = ", ".join(
            f"{mode} {speedups[mode]:.1f}x"
            for mode in report["modes"]
            if mode != "sequential" and speedups[mode] is not None
        )
        flag = "" if entry["identical"] else "  [NOT IDENTICAL]"
        lines.append(f"  n={entry['num_samples']}: {parts}{flag}")
    alloc = report["allocation"]
    peaks = ", ".join(
        f"{mode} {alloc[mode]['peak_bytes'] / 1024:.0f} KiB"
        for mode in report["modes"]
    )
    lines.append(f"peak allocation at n={alloc['num_samples']}: {peaks}")
    lines.append(
        f"largest scale ({report['largest_scale']} samples): "
        f"{report['largest_scale_best_speedup']:.1f}x vectorized speedup"
    )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time record building and planning; write BENCH_profiling.json."
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
        "--out", default="BENCH_profiling.json",
        help="where to write the JSON report (default BENCH_profiling.json)",
    )
    args = parser.parse_args(argv)

    report = run_bench(scales=args.scales, seed=args.seed, repeats=args.repeats)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(render_summary(report))
    print(f"report written to {args.out}")
    if not report["identical"]:
        print("FAIL: the vectorized builder diverged from the sequential records/plan")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
