"""Command-line entry point: regenerate the paper's tables and figures.

Usage (installed as ``sophon-repro``)::

    sophon-repro table1
    sophon-repro fig1a --dataset openimages
    sophon-repro fig3 --dataset imagenet --samples 1500
    sophon-repro fig4 --cores 0 1 2 3 4 5
    sophon-repro frontier --bandwidth 50 --json frontier.json
    sophon-repro audit 17
    sophon-repro adaptive --epochs 4 --shards 2 --telemetry-dir /tmp/t
    sophon-repro all

``fig1d``, ``fig3`` and ``fig4`` accept ``--telemetry-dir DIR`` to write
the run's metrics as replayable JSONL and Prometheus text; ``audit``
explains one sample's offload decision and its simulated journey;
``replay`` renders a previously exported telemetry JSONL log without
re-running anything.  Every command profiles through the vectorized
record builder in :mod:`repro.parallel`.
"""

import argparse
import contextlib
import sys
import time
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.cluster.spec import standard_cluster
from repro.cluster.trainer import round_robin_placement, shard_count
from repro.core.efficiency import efficiency_distribution
from repro.core.profiler import StageTwoProfiler
from repro.data.catalog import make_imagenet, make_openimages
from repro.harness.fig1 import (
    benefit_fraction,
    gpu_utilization_by_model,
    minstage_fractions,
    representative_samples,
    size_trace,
)
from repro.harness.fig3 import ample_cpu_comparison
from repro.harness.fig4 import limited_cpu_sweep
from repro.harness.table1 import render_capability_matrix
from repro.preprocessing.pipeline import standard_pipeline
from repro.service import loadgen
from repro.service.config import ServiceConfig, add_service_arguments
from repro.telemetry.slo import OK, VIOLATED, judge
from repro.utils.floats import checked, flag_type
from repro.utils.tables import render_table
from repro.workloads.models import MODEL_REGISTRY, get_model_profile

#: argparse type of a link bandwidth: a finite number of Mbps > 0.
mbps = flag_type("mbps", 0.0, open_low=True)

#: The largest ``--samples``.  A 10^6-sample pass peaks near 0.8 GB of
#: RSS, so 10^7 is about what one workstation holds.
MAX_SAMPLES = 10**7

#: ``--dataset``'s choices: name -> catalog factory, in Figure 1b's order.
DATASETS = {"openimages": make_openimages, "imagenet": make_imagenet}


def objective_threshold(text: str) -> Tuple[str, float]:
    """argparse type of ``slo --max``: ``NAME=THRESHOLD``, a finite threshold >= 0."""
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise ValueError(f"want NAME=THRESHOLD, got {text!r}")
    return name, checked(name, float(value), 0.0)


def _dataset(args: argparse.Namespace):
    return DATASETS[args.dataset](num_samples=args.samples, seed=args.seed)


def _placement(num_samples: int, shards: Optional[int]) -> Optional[List[int]]:
    """``--shards``' round-robin sample -> shard map (None: one storage node)."""
    return None if shards is None else round_robin_placement(num_samples, shards)


@contextlib.contextmanager
def _scoped_registry(args: argparse.Namespace) -> Iterator[Optional[object]]:
    """A fresh default metrics registry while --telemetry-dir is set."""
    if getattr(args, "telemetry_dir", None) is None:
        yield None
        return
    from repro.telemetry.registry import MetricsRegistry, use_registry

    with use_registry(MetricsRegistry()) as registry:
        yield registry


def _emit_telemetry(args: argparse.Namespace, name: str, registry) -> None:
    if registry is None:
        return
    from repro.harness.telemetry import emit_artifacts

    for path in emit_artifacts(args.telemetry_dir, name, registry=registry):
        print(f"telemetry written to {path}")


def cmd_table1(args: argparse.Namespace) -> None:
    from repro.harness.table1 import render_published_matrix

    print("Published systems (the paper's Table 1):")
    print(render_published_matrix())
    print("\nImplemented policies in this reproduction:")
    print(render_capability_matrix())


def cmd_sweep(args: argparse.Namespace) -> None:
    from repro.harness.export import write_csv
    from repro.harness.sweeps import grid_sweep

    dataset = _dataset(args)
    axes = {}
    if args.cores:
        axes["storage_cores"] = args.cores
    if args.bandwidths:
        axes["bandwidth_mbps"] = args.bandwidths
    if not axes:
        args.usage_error("give at least one axis (--cores / --bandwidths)")
    table = grid_sweep(dataset, standard_cluster(), axes, seed=args.seed)
    print(table.render())
    if args.csv:
        write_csv(table.to_csv(), args.csv)
        print(f"csv written to {args.csv}")


def cmd_fig1a(args: argparse.Namespace) -> None:
    dataset = _dataset(args)
    try:
        sample_a, sample_b = representative_samples(dataset, seed=args.seed)
    except ValueError as exc:  # too few samples to hold both populations
        args.usage_error(f"{exc}; raise --samples")
    print(f"Sample A (shrinks mid-pipeline, id={sample_a}):")
    print(size_trace(dataset, sample_a, seed=args.seed).render())
    print(f"\nSample B (smallest raw, id={sample_b}):")
    print(size_trace(dataset, sample_b, seed=args.seed).render())


def cmd_fig1b(args: argparse.Namespace) -> None:
    for make in DATASETS.values():
        dataset = make(num_samples=args.samples, seed=args.seed)
        fractions = minstage_fractions(dataset, seed=args.seed)
        rows = [(stage, f"{frac:.1%}") for stage, frac in fractions.items()]
        print(f"[{dataset.name}] minimum-size stage fractions "
              f"(benefit: {benefit_fraction(fractions):.1%})")
        print(render_table(("Stage", "Fraction"), rows))
        print()


def cmd_fig1c(args: argparse.Namespace) -> None:
    dataset = _dataset(args)
    records = StageTwoProfiler().profile(dataset, standard_pipeline(), seed=args.seed)
    print(f"[{dataset.name}] {efficiency_distribution(records)}")


def cmd_fig1d(args: argparse.Namespace) -> None:
    dataset = _dataset(args)
    spec = standard_cluster().with_bandwidth(args.bandwidth)
    with _scoped_registry(args) as registry:
        utilizations = gpu_utilization_by_model(dataset, spec, seed=args.seed)
        if registry is not None:
            gauge = registry.gauge(
                "harness_gpu_utilization",
                "GPU busy fraction over the epoch",
                labels=["run"],
            )
            for model, util in utilizations:
                gauge.set(util, run=model)
    rows = [(model, f"{util:.0%}") for model, util in utilizations]
    print(f"[{dataset.name}] GPU utilization at {args.bandwidth:.0f} Mbps, no offload")
    print(render_table(("Model", "GPU util"), rows))
    _emit_telemetry(args, "fig1d", registry)


def cmd_fig3(args: argparse.Namespace) -> None:
    dataset = _dataset(args)
    cluster = standard_cluster(storage_cores=args.storage_cores)
    with _scoped_registry(args) as registry:
        comparison = ample_cpu_comparison(dataset, cluster, seed=args.seed)
        if registry is not None:
            from repro.harness.telemetry import record_epoch_stats

            for result in comparison.results:
                record_epoch_stats(result.stats, result.policy_name, registry)
    print(comparison.render())
    _emit_telemetry(args, "fig3", registry)
    if getattr(args, "csv", None):
        from repro.harness.export import comparison_to_csv, write_csv

        write_csv(comparison_to_csv(comparison), args.csv)
        print(f"csv written to {args.csv}")


def cmd_fig4(args: argparse.Namespace) -> None:
    dataset = _dataset(args)
    with _scoped_registry(args) as registry:
        sweep = limited_cpu_sweep(dataset, cores=tuple(args.cores), seed=args.seed)
        if registry is not None:
            from repro.harness.telemetry import record_epoch_stats

            for cores in sweep.cores:
                for policy, result in sorted(sweep.results[cores].items()):
                    record_epoch_stats(
                        result.stats, f"{policy}@{cores}c", registry
                    )
    print(sweep.render())
    _emit_telemetry(args, "fig4", registry)
    gains = ", ".join(f"{g:.2f}s" for g in sweep.sophon_marginal_gains())
    print(f"\nSOPHON marginal gain per added core: {gains}")
    if getattr(args, "csv", None):
        from repro.harness.export import sweep_to_csv, write_csv

        write_csv(sweep_to_csv(sweep), args.csv)
        print(f"csv written to {args.csv}")


def cmd_frontier(args: argparse.Namespace) -> None:
    from repro.data.synthetic import ImageContentConfig, SyntheticImageDataset
    from repro.harness.frontier import DEFAULT_FLOORS, fidelity_frontier

    # The fidelity sweep needs real pixels (streams are re-encoded
    # progressively and prefix PSNRs measured), so it runs on a
    # materialized synthetic dataset rather than the metadata traces.
    dataset = SyntheticImageDataset(
        num_samples=args.samples,
        seed=args.seed,
        content=ImageContentConfig(min_side=64, max_side=256),
        name=f"synthetic-{args.dataset}",
    )
    floors = DEFAULT_FLOORS if not args.floors else (None, *args.floors)
    spec = standard_cluster().with_bandwidth(args.bandwidth)
    frontier = fidelity_frontier(
        dataset, spec=spec, floors=floors, seed=args.seed
    )
    print(frontier.render())
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(frontier.to_json())
        print(f"json written to {args.json}")
    else:
        print(frontier.to_json())


def cmd_plan(args: argparse.Namespace) -> None:
    from repro.core.policy import PolicyContext
    from repro.core.serialize import plan_to_json
    from repro.core.sophon import Sophon

    dataset = _dataset(args)
    spec = standard_cluster(storage_cores=args.storage_cores)
    context = PolicyContext(
        dataset=dataset,
        pipeline=standard_pipeline(),
        spec=spec,
        model=get_model_profile(args.model),
        seed=args.seed,
    )
    plan = Sophon().plan(context)
    print(f"[{dataset.name}] {plan.reason}")
    print(f"split histogram: {plan.split_histogram()}")
    if plan.expected is not None:
        print(f"expected epoch: {plan.expected.epoch_time_s:.2f}s "
              f"(bottleneck: {plan.expected.bottleneck.value})")
    if args.save:
        with open(args.save, "w") as handle:
            handle.write(plan_to_json(plan))
        print(f"plan saved to {args.save}")


def cmd_stalls(args: argparse.Namespace) -> None:
    from repro.cluster.trainer import TrainerSim
    from repro.core.policy import PolicyContext
    from repro.core.sophon import Sophon
    from repro.metrics import stall_breakdown

    dataset = _dataset(args)
    spec = standard_cluster(storage_cores=args.storage_cores)
    model = get_model_profile(args.model)
    context = PolicyContext(
        dataset=dataset, pipeline=standard_pipeline(), spec=spec,
        model=model, seed=args.seed,
    )
    plan = Sophon().plan(context)
    trainer = TrainerSim(dataset, context.pipeline, model, spec, seed=args.seed)
    plain = trainer.run_epoch(None, epoch=1, record_timeline=True)
    offloaded = trainer.run_epoch(list(plan.splits), epoch=1, record_timeline=True)
    print(f"[{dataset.name}] no-off : {stall_breakdown(plain.timeline)}")
    print(f"[{dataset.name}] sophon : {stall_breakdown(offloaded.timeline)}")


def cmd_ext_llm(args: argparse.Namespace) -> None:
    from repro.core.decision import DecisionEngine
    from repro.workloads.text import (
        TextCorpusSpec,
        llm_ingestion_records,
        offloadable_fraction,
    )

    records = llm_ingestion_records(
        TextCorpusSpec(num_docs=args.samples), seed=args.seed
    )
    plan = DecisionEngine().plan(
        records, standard_cluster(storage_cores=48), gpu_time_s=60.0
    )
    raw = sum(r.stage_sizes[0] for r in records)
    packed = sum(r.stage_sizes[-1] for r in records)
    print(f"LLM ingestion: raw {raw / 1e6:.1f} MB -> packed {packed / 1e6:.1f} MB "
          f"({packed / raw:.2f}x growth)")
    print(f"offloadable documents: {offloadable_fraction(records):.0%}")
    print(f"decision: {plan.reason}")


def cmd_audit(args: argparse.Namespace) -> None:
    """Explain one sample end-to-end: decision record + simulated spans."""
    from repro.cluster.trainer import TrainerSim
    from repro.core.decision import DecisionConfig, DecisionEngine
    from repro.core.policy import PolicyContext
    from repro.telemetry.audit import AuditLog

    dataset = _dataset(args)
    if args.sample_id >= len(dataset):
        args.usage_error(
            f"sample {args.sample_id} out of range; dataset has {len(dataset)} samples"
        )
    spec = standard_cluster(storage_cores=args.storage_cores)
    model = get_model_profile(args.model)
    context = PolicyContext(
        dataset=dataset, pipeline=standard_pipeline(), spec=spec,
        model=model, seed=args.seed,
    )
    audit = AuditLog()
    plan = DecisionEngine(DecisionConfig()).plan(
        context.records(), spec, gpu_time_s=context.epoch_gpu_time_s, audit=audit
    )
    print(f"[{dataset.name}] {plan.reason}\n")
    print(audit.explain(args.sample_id))

    trainer = TrainerSim(
        dataset, context.pipeline, model, spec, seed=args.seed,
        placement=_placement(len(dataset), args.shards), num_shards=args.shards,
    )
    stats = trainer.run_epoch(list(plan.splits), epoch=args.epoch, record_spans=True)
    events = stats.spans.for_sample(args.sample_id, args.epoch) if stats.spans else []
    print(f"\nsimulated spans for sample {args.sample_id} "
          f"(epoch {args.epoch}, virtual seconds):")
    for event in events:
        attrs = _format_attrs(event.attrs)
        line = f"  [{event.t_s:12.6f}] {event.phase} {event.name}"
        print(f"{line}  {attrs}" if attrs else line)


#: Sorted attr-key orders seen while rendering spans.  A big replay log
#: holds millions of events but only a handful of distinct attr shapes,
#: so the per-event ``sorted()`` is hoisted into this one-per-shape cache.
_ATTR_KEY_ORDERS: Dict[Tuple[str, ...], List[str]] = {}


def _format_attrs(attrs: Mapping[str, object]) -> str:
    """``k=v`` pairs in sorted key order, one ``sorted()`` per key shape."""
    if not attrs:
        return ""
    keys = tuple(attrs)
    order = _ATTR_KEY_ORDERS.get(keys)
    if order is None:
        order = sorted(keys)
        _ATTR_KEY_ORDERS[keys] = order
    return " ".join(f"{k}={attrs[k]}" for k in order)


def _span_breakdowns(events) -> List[str]:
    """Per-epoch / per-shard / per-tenant summary lines for a span log.

    Epochs come from the ``-e<N>`` suffix every trainer trace id carries
    (samples ``s<id>-e<N>`` and batches ``b<i>-e<N>`` alike); shard and
    tenant groups come from the ``shard`` / ``job`` span attrs; service
    and client request phases group by span name.  Groups nobody recorded
    are omitted, so single-epoch single-node logs render exactly as
    before.
    """
    import re

    epoch_pattern = re.compile(r"-e(\d+)$")
    lines: List[str] = []
    epochs: dict = {}
    for event in events:
        match = epoch_pattern.search(event.trace_id)
        if match:
            per = epochs.setdefault(int(match.group(1)), [0, set()])
            per[0] += 1
            per[1].add(event.trace_id)
    if len(epochs) > 1:
        lines.append("per-epoch:")
        for epoch in sorted(epochs):
            count, traces = epochs[epoch]
            lines.append(
                f"  epoch {epoch}: {count} events across {len(traces)} traces"
            )
    for attr, label in (("shard", "per-shard"), ("job", "per-tenant")):
        groups: dict = {}
        for event in events:
            if attr in event.attrs:
                groups[event.attrs[attr]] = groups.get(event.attrs[attr], 0) + 1
        if groups:
            lines.append(f"{label}:")
            for value in sorted(groups, key=str):
                lines.append(f"  {attr} {value}: {groups[value]} events")
    phases: dict = {}
    for event in events:
        if event.name.startswith(("service.", "client.")):
            phases[event.name] = phases.get(event.name, 0) + 1
    if phases:
        lines.append("service phases:")
        for name in sorted(phases):
            lines.append(f"  {name}: {phases[name]} events")
    return lines


def cmd_replay(args: argparse.Namespace) -> None:
    """Render an exported telemetry JSONL log without re-running the sim."""
    from repro.telemetry.exporters import read_jsonl, render_prometheus

    try:
        replayed = read_jsonl(args.log)
    except OSError as exc:
        raise SystemExit(f"cannot read {args.log}: {exc}") from exc
    except ValueError as exc:
        raise SystemExit(f"cannot replay {args.log}: {exc}") from exc

    snapshot = replayed.registry.snapshot()
    events = replayed.tracer.events
    decisions = len(replayed.audit)
    print(f"[{args.log}] {len(snapshot.series)} metric series, "
          f"{len(events)} span events, {decisions} audit records")

    if snapshot.series:
        print("\nmetrics:")
        print(render_prometheus(snapshot), end="")

    if events:
        traces = {event.trace_id for event in events}
        print(f"\nspans: {len(events)} events across {len(traces)} traces")
        for line in _span_breakdowns(events):
            print(line)
        shown = events if args.spans is None else events[: args.spans]
        for event in shown:
            attrs = _format_attrs(event.attrs)
            line = f"  [{event.t_s:12.6f}] {event.phase:7s} {event.trace_id} {event.name}"
            print(f"{line}  {attrs}" if attrs else line)
        if len(shown) < len(events):
            print(f"  ... {len(events) - len(shown)} more (raise --spans)")

    transitions = [e for e in events if e.name == "breaker.transition"]
    if transitions:
        print(f"\nbreaker transitions: {len(transitions)}")
        for event in transitions:
            print(
                f"  [{event.t_s:12.6f}] {event.attrs.get('from_state', '?')}"
                f" -> {event.attrs.get('to_state', '?')}"
                f" ({event.attrs.get('reason', 'unrecorded')})"
            )

    if decisions:
        counts = replayed.audit.outcome_counts()
        summary = ", ".join(f"{name}={counts[name]}" for name in sorted(counts))
        print(f"\naudit: {summary}")
        if args.sample is not None:
            print()
            try:
                print(replayed.audit.explain(args.sample))
            except KeyError as exc:
                raise SystemExit(str(exc)) from exc
    elif args.sample is not None:
        raise SystemExit(f"{args.log} carries no audit records to explain")


def cmd_slo(args: argparse.Namespace) -> None:
    """Re-check the SLO section of a BENCH_service.json without re-running."""
    import json

    try:
        with open(args.report, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except OSError as exc:
        raise SystemExit(f"cannot read {args.report}: {exc}") from exc
    except ValueError as exc:
        raise SystemExit(f"{args.report} is not JSON: {exc}") from exc
    slo = report.get("slo") if isinstance(report, dict) else None
    if not isinstance(slo, dict):
        raise SystemExit(
            f"{args.report} carries no slo section "
            f"(schema {report.get('schema') if isinstance(report, dict) else None!r}; "
            "re-run the loadgen to produce one)"
        )

    overrides = dict(args.max or ())
    objectives = slo.get("objectives", ())
    unknown = sorted(set(overrides) - {o["name"] for o in objectives})
    if unknown:
        known = ", ".join(sorted(o["name"] for o in objectives))
        args.usage_error(
            f"--max names no recorded objective: {', '.join(unknown)} "
            f"(report has: {known})"
        )

    print(
        f"[{args.report}] {slo.get('schema')}: {slo.get('samples')} samples, "
        f"window {'all' if slo.get('window_s') is None else slo.get('window_s')}"
    )
    rows = []
    for objective in objectives:
        threshold = overrides.get(objective["name"], objective["threshold"])
        observed = objective["observed"]
        verdict, burn = judge(observed, threshold)
        rows.append(
            (
                objective["name"],
                objective["kind"],
                "n/a" if observed is None else f"{observed:.6g}",
                f"{threshold:g}",
                "-" if burn is None else f"{burn:.2f}",
                verdict,
            )
        )
    print(render_table(
        ("Objective", "Kind", "Observed", "Threshold", "Burn", "Verdict"), rows
    ))
    verdicts = {row[-1] for row in rows}
    if verdicts - {OK}:
        print("FAIL: SLO violated" if VIOLATED in verdicts else "FAIL: no samples to judge")
        raise SystemExit(1)
    print("all objectives within budget")


def cmd_adaptive(args: argparse.Namespace) -> None:
    """Multi-epoch adaptive run, optionally sharded, with combined telemetry."""
    from repro.harness.adaptive import AdaptiveTrainingRun

    dataset = _dataset(args)
    spec = standard_cluster(storage_cores=args.storage_cores)
    telemetry = args.telemetry_dir is not None
    with _scoped_registry(args) as registry:
        run = AdaptiveTrainingRun(
            dataset,
            spec,
            batch_size=args.batch_size,
            seed=args.seed,
            placement=_placement(len(dataset), args.shards),
            num_shards=args.shards,
            job_name=args.job_name,
        )
        result = run.run(
            args.epochs, record_spans=telemetry, record_timeline=telemetry
        )
        if registry is not None:
            from repro.harness.telemetry import record_epoch_stats

            for epoch, stats in result.instrumented_epochs():
                record_epoch_stats(stats, f"epoch{epoch}", registry)

    rows = []
    for entry in result.epochs:
        rows.append(
            (
                entry.epoch,
                f"{entry.stats.epoch_time_s:.2f}s",
                f"{entry.stats.traffic_bytes / 1e6:.1f} MB",
                "yes" if entry.replanned else "-",
            )
        )
    shard_note = f", {args.shards} shards" if args.shards is not None else ""
    print(f"[{dataset.name}] adaptive run: {args.epochs} epochs{shard_note}, "
          f"{result.replan_count} replans, total {result.total_time_s:.2f}s")
    print(render_table(("Epoch", "Time", "Traffic", "Replanned"), rows))

    if telemetry:
        from repro.harness.telemetry import emit_artifacts

        paths = emit_artifacts(
            args.telemetry_dir,
            args.job_name or "adaptive",
            result.instrumented_epochs(),
            registry=registry,
        )
        for path in paths:
            print(f"telemetry written to {path}")


def cmd_report(args: argparse.Namespace) -> None:
    from repro.harness.report import generate_markdown_report

    report = generate_markdown_report(samples=args.samples, seed=args.seed)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
        print(f"report written to {args.out}")
    else:
        print(report)


def cmd_serve(args: argparse.Namespace) -> None:
    """Run the always-on decision service until interrupted, then drain."""
    import signal

    from repro.service.server import DecisionService

    config = ServiceConfig.from_arguments(
        args, host=args.host, port=args.port, journal_path=args.journal
    )
    service = DecisionService(config).start()
    host, port = service.address
    print(f"decision service listening on http://{host}:{port}")
    if args.journal:
        print(f"journal: {args.journal} "
              f"({service.recovered_grants} grants recovered)")
    print("Ctrl-C drains gracefully (finish in-flight work, checkpoint).")
    # SIGTERM (systemd, k8s, `kill`) must drain exactly like Ctrl-C.
    def _drain_signal(_sig: int, _frame: object) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _drain_signal)
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    drained = service.drain()
    print(f"\ndrained in {drained:.3f}s")


def cmd_all(args: argparse.Namespace) -> None:
    args.dataset = "openimages"
    print("== Table 1 ==")
    cmd_table1(args)
    print("\n== Figure 1a ==")
    cmd_fig1a(args)
    print("\n== Figure 1b ==")
    cmd_fig1b(args)
    print("\n== Figure 1c ==")
    cmd_fig1c(args)
    print("\n== Figure 1d ==")
    cmd_fig1d(args)
    print("\n== Figure 3 (OpenImages) ==")
    cmd_fig3(args)
    print("\n== Figure 3 (ImageNet) ==")
    args.dataset = "imagenet"
    cmd_fig3(args)
    print("\n== Figure 4 ==")
    args.dataset = "openimages"
    cmd_fig4(args)


def _flag(*names: str, **kwargs: Any) -> argparse.ArgumentParser:
    """A parent parser declaring one flag that several subcommands share."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sophon-repro",
        description="Regenerate the SOPHON paper's tables and figures.",
    )
    parser.add_argument("--samples", type=flag_type("samples", 1, high=MAX_SAMPLES, integral=True),
                        default=1000, help="samples per synthesized dataset (default 1000)")
    parser.add_argument("--seed", type=flag_type("seed", 0, integral=True), default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(
        name: str, func: Any, summary: str, *parents: argparse.ArgumentParser
    ) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, parents=list(parents))
        # usage_error: a check only the command can make still exits 2.
        p.set_defaults(func=func, usage_error=p.error)
        return p

    dataset = _flag("--dataset", default="openimages", choices=DATASETS)
    model = _flag("--model", default="alexnet",
                  choices=sorted({name for name, _gpu in MODEL_REGISTRY}))
    storage_cores = _flag("--storage-cores", default=48,
                          type=flag_type("storage_cores", 0, integral=True))
    telemetry = _flag("--telemetry-dir", help="write telemetry artifacts here")
    csv = _flag("--csv", help="also write the data as CSV to this path")
    shards = _flag("--shards", type=shard_count, default=None,
                   help="simulate on a sharded storage tier with this many "
                   "shards (round-robin placement; spans gain shard labels)")
    bandwidth = _flag("--bandwidth", type=mbps, default=1000.0, help="Mbps")
    core_sweep = _flag("--cores", type=flag_type("cores", 0, integral=True), nargs="+",
                       default=[0, 1, 2, 3, 4, 5], help="storage-core counts to sweep")

    command("table1", cmd_table1, "capability matrix")
    command("fig1a", cmd_fig1a, "per-sample size trace", dataset)
    command("fig1b", cmd_fig1b, "minimum-size stage fractions")
    command("fig1c", cmd_fig1c, "offloading-efficiency distribution", dataset)
    command("fig1d", cmd_fig1d, "GPU utilization by model", dataset, bandwidth, telemetry)
    command("fig3", cmd_fig3, "policy comparison, ample storage CPUs",
            dataset, storage_cores, csv, telemetry)
    command("fig4", cmd_fig4, "storage-core sweep", dataset, core_sweep, csv, telemetry)

    p = command("audit", cmd_audit, "explain one sample's offload decision end-to-end",
                dataset, model, storage_cores, shards)
    p.add_argument("sample_id", type=flag_type("sample_id", 0, integral=True),
                   help="sample to explain")
    p.add_argument("--epoch", type=flag_type("epoch", 0, integral=True), default=1,
                   help="epoch to simulate for the span log (default 1)")

    p = command("adaptive", cmd_adaptive, "multi-epoch adaptive run with combined telemetry",
                dataset, storage_cores, shards, telemetry)
    p.add_argument("--epochs", type=flag_type("epochs", 2, integral=True), default=3,
                   help="epochs to simulate (>= 2; epoch 0 profiles)")
    p.add_argument("--batch-size", type=flag_type("batch_size", 1, integral=True),
                   default=None)
    p.add_argument("--job-name", default=None,
                   help="tenant label stamped onto every span")

    p = command("frontier", cmd_frontier,
                "traffic-vs-fidelity frontier (progressive records)", dataset)
    p.add_argument("--bandwidth", type=mbps, default=50.0,
                   help="link bandwidth in Mbps (tight by default so the "
                   "fidelity pass has traffic to shed)")
    p.add_argument("--floors", type=flag_type("psnr_db", 0.0), nargs="+", default=None,
                   help="PSNR floors in dB to sweep (a full-fidelity "
                   "baseline point is always included)")
    p.add_argument("--json", help="write the frontier JSON to this path "
                   "(default: print it after the table)")

    p = command("plan", cmd_plan, "compute (and optionally save) a SOPHON plan",
                dataset, model, storage_cores)
    p.add_argument("--save", help="write the plan as JSON to this path")

    command("stalls", cmd_stalls, "data-stall breakdown, no-off vs sophon",
            dataset, model, storage_cores)
    command("ext-llm", cmd_ext_llm, "the section-5 LLM negative result")

    p = command("replay", cmd_replay, "summarize an exported telemetry JSONL log")
    p.add_argument("log", help="path to a telemetry .jsonl export")
    p.add_argument("--sample", type=flag_type("sample", 0, integral=True), default=None,
                   help="also explain this sample's audited decision")
    p.add_argument("--spans", type=flag_type("spans", 0, integral=True), default=None,
                   help="cap the span listing at this many events (default: all)")

    p = command("slo", cmd_slo, "re-check the SLO section of a BENCH_service.json")
    p.add_argument("report", help="path to a BENCH_service.json report")
    p.add_argument("--max", type=objective_threshold, action="append",
                   metavar="NAME=THRESHOLD",
                   help="override one objective's threshold (repeatable), "
                   "e.g. --max plan_p99=0.5")

    p = command("report", cmd_report, "full markdown results report")
    p.add_argument("--out", help="write to this path instead of stdout")

    p = command("sweep", cmd_sweep, "grid sweep over cluster parameters", dataset, csv)
    p.add_argument("--cores", type=flag_type("cores", 0, integral=True), nargs="+",
                   help="storage_cores axis values")
    p.add_argument("--bandwidths", type=mbps, nargs="+", help="bandwidth_mbps axis values")

    p = command("serve", cmd_serve,
                "run the always-on decision service (Ctrl-C drains gracefully)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=flag_type("port", 0, high=65535, integral=True), default=0,
                   help="0 picks a free port (printed at startup)")
    add_service_arguments(p)
    p.add_argument("--journal", default=None,
                   help="append-only grant journal path (enables crash recovery)")

    # The top-level --seed is the loadgen's seed here, so it declares none.
    loadgen.add_arguments(
        command("loadgen", loadgen.run, "heavy-tailed trainer load -> BENCH_service.json")
    )
    command("all", cmd_all, "everything above", bandwidth, storage_cores, core_sweep)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args) or 0


if __name__ == "__main__":
    sys.exit(main())
