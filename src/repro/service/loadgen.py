"""Trace-driven load generator for the decision service.

Simulates a fleet of trainer clients with seeded, heavy-tailed (Pareto)
think times hammering one service, and reports what the fleet saw:
p50/p90/p99 grant latency, shed and retry rates, and the server's own
queue/budget counters -- written to ``BENCH_service.json`` with a
schema-versioned layout (like ``BENCH.json``) so successive
runs are directly comparable.  Run it via ``make bench`` or::

    PYTHONPATH=src python -m repro.service.loadgen --clients 4 --requests 25

Request *content* is deterministic per seed (job names, dataset shapes,
core asks, release points); only the wall-clock numbers vary between
machines.
"""

import argparse
import dataclasses
import json
import random
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.service.client import (
    ServiceClient,
    ServiceDeadlineError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.service.config import DEFAULT_TOKEN, ServiceConfig, add_service_arguments
from repro.service.server import DecisionService
from repro.telemetry.registry import get_default_registry
from repro.telemetry.slo import (
    Objective,
    SloEvaluator,
    SloReport,
    latency_objective,
    percentile,
    rate_objective,
)
from repro.utils.floats import checked, flag_type

__all__ = [
    "LoadgenConfig",
    "OUTCOMES",
    "RequestResult",
    "SCHEMA",
    "add_arguments",
    "default_objectives",
    "evaluate_slo",
    "main",
    "percentile",
    "render_summary",
    "run",
    "run_loadgen",
]

#: Schema tag for ``BENCH_service.json``.  Bump only when the layout
#: changes incompatibly; tools reading the file key off this string.
SCHEMA = "sophon-bench-service/v1"

#: Every outcome a request can terminate with, in report order.
OUTCOMES = ("granted", "replayed", "shed", "deadline", "failed")

#: Longest think time or deadline a run takes, in seconds (an hour).
#: Far past it, sleeps and socket timeouts overflow.
MAX_WAIT_S = 3600.0


@dataclasses.dataclass(frozen=True)
class LoadgenConfig:
    """The load shape one run drives; every field is :func:`checked`.

    clients: concurrent trainer threads.
    requests_per_client: plan requests each client issues.
    pareto_shape: tail index of the think-time distribution (smaller =
        heavier tail; must be > 1 so the mean exists).
    mean_think_s: average inter-request think time per client, at most
        :data:`MAX_WAIT_S`.
    deadline_s: per-request deadline budget each client enforces (and
        propagates to the server), at most :data:`MAX_WAIT_S`.
    release_every: a client releases its job's cores after every N
        grants, freeing budget for the rest of the fleet.
    num_samples_choices / cores_choices: the per-request job shapes,
        drawn with the client's seeded RNG.
    """

    clients: int = 4
    requests_per_client: int = 25
    seed: int = 7
    pareto_shape: float = 1.5
    mean_think_s: float = 0.002
    deadline_s: float = 5.0
    release_every: int = 5
    num_samples_choices: Tuple[int, ...] = (24, 32, 48)
    cores_choices: Tuple[int, ...] = (4, 8, 12)

    def __post_init__(self) -> None:
        for name, low in (
            ("clients", 1), ("requests_per_client", 1), ("seed", 0), ("release_every", 1)
        ):
            checked(name, getattr(self, name), low, integral=True)
        checked("pareto_shape", self.pareto_shape, 1.0, open_low=True)
        checked("mean_think_s", self.mean_think_s, 0.0, high=MAX_WAIT_S)
        checked("deadline_s", self.deadline_s, 0.0, open_low=True, high=MAX_WAIT_S)
        for name in ("num_samples_choices", "cores_choices"):
            choices = getattr(self, name)
            if not choices:
                raise ValueError(f"{name} must be non-empty")
            for choice in choices:
                checked(name, choice, 1, integral=True)


@dataclasses.dataclass
class RequestResult:
    """One request as a client experienced it."""

    client: int
    index: int
    outcome: str
    latency_s: float
    retries: int


def default_objectives(deadline_s: float) -> List[Objective]:
    """The SLOs ``make bench`` gates on, scaled to the request deadline.

    Latency bounds derive from the per-request deadline (a request that
    takes half its deadline at the median is already in trouble; p99 gets
    2x headroom for retries + heavy-tailed think-time interference), the
    error budget is zero (a failed request is a bug, not load), and up to
    half the fleet may be shed under deliberate overload.
    """
    return [
        latency_objective("plan_p50", 0.50, deadline_s * 0.5),
        latency_objective("plan_p99", 0.99, deadline_s * 2.0),
        rate_objective("error_rate", ("failed",), 0.0),
        rate_objective("shed_rate", ("shed",), 0.5),
    ]


def evaluate_slo(
    results: Sequence[RequestResult], objectives: Sequence[Objective]
) -> SloReport:
    """Batch-evaluate the run's per-request results against objectives."""
    evaluator = SloEvaluator(objectives)
    for result in results:
        evaluator.record(result.latency_s, result.outcome)
    return evaluator.evaluate()


def _think_time(rng: random.Random, shape: float, mean_s: float) -> float:
    """One heavy-tailed inter-arrival draw with the requested mean."""
    if mean_s <= 0:
        return 0.0
    # paretovariate(a) has mean a / (a - 1); rescale to mean_s.
    return mean_s * ((shape - 1.0) / shape) * rng.paretovariate(shape)


def _client_loop(
    client_index: int,
    address: Tuple[str, int],
    token: str,
    config: LoadgenConfig,
    results: List[RequestResult],
    lock: threading.Lock,
    sleep: Callable[[float], None],
    clock: Callable[[], float],
) -> None:
    rng = random.Random((config.seed << 8) ^ client_index)
    client = ServiceClient(
        address,
        token=token,
        deadline_s=config.deadline_s,
        max_attempts=4,
        seed=config.seed * 1000 + client_index,
        sleep=sleep,
        clock=clock,
    )
    job = f"trainer-{client_index}"
    grants = 0
    for index in range(config.requests_per_client):
        sleep(_think_time(rng, config.pareto_shape, config.mean_think_s))
        num_samples = rng.choice(config.num_samples_choices)
        cores = rng.choice(config.cores_choices)
        retries_before = client.stats.retries
        started = clock()
        try:
            grant = client.plan(
                job,
                num_samples=num_samples,
                seed=config.seed,
                storage_cores=cores,
            )
            outcome = "replayed" if grant.replayed else "granted"
            grants += 1
        except ServiceUnavailableError:
            outcome = "shed"
        except ServiceDeadlineError:
            outcome = "deadline"
        except ServiceError:
            outcome = "failed"
        latency = clock() - started
        with lock:
            results.append(
                RequestResult(
                    client=client_index,
                    index=index,
                    outcome=outcome,
                    latency_s=latency,
                    retries=client.stats.retries - retries_before,
                )
            )
            # Per-request latency distribution by outcome; the lock keeps
            # concurrent clients' histogram updates serialized.
            get_default_registry().histogram(
                "loadgen_request_seconds",
                "per-request loadgen latency by outcome",
                labels=["outcome"],
            ).observe(latency, outcome=outcome)
        if grants and grants % config.release_every == 0:
            try:
                client.release(job)
            except ServiceError:
                pass  # budget pressure persists; the run report shows it


def run_loadgen(
    address: Tuple[str, int],
    token: str = DEFAULT_TOKEN,
    config: LoadgenConfig = LoadgenConfig(),
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.perf_counter,
    objectives: Optional[Sequence[Objective]] = None,
) -> Dict[str, object]:
    """Drive the fleet against a live service; returns the report dict.

    The report's ``slo`` section (schema ``sophon-slo/v1``) evaluates
    ``objectives`` (default: :func:`default_objectives` scaled to the
    config's deadline) over every per-request result.
    """
    results: List[RequestResult] = []
    lock = threading.Lock()
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(i, address, token, config, results, lock, sleep, clock),
            daemon=True,
            name=f"loadgen-client-{i}",
        )
        for i in range(config.clients)
    ]
    started = clock()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = clock() - started

    outcomes = {name: 0 for name in OUTCOMES}
    for result in results:
        outcomes[result.outcome] += 1
    total = len(results)
    latencies = [r.latency_s for r in results]
    retries = sum(r.retries for r in results)
    served = outcomes["granted"] + outcomes["replayed"]

    server: Dict[str, object] = {}
    try:
        status = ServiceClient(
            address, token=token, deadline_s=2.0, sleep=sleep, clock=clock
        ).status()
        server = {
            "queue_capacity": status.get("queue_capacity"),
            "queue_max_depth": status.get("queue_max_depth"),
            "shed_count": status.get("shed_count"),
            "committed_cores": status.get("committed_cores"),
            "grants": status.get("grants"),
        }
    except ServiceError:
        pass  # a drained/killed server still yields a client-side report

    slo_report = evaluate_slo(
        results,
        objectives
        if objectives is not None
        else default_objectives(config.deadline_s),
    )

    return {
        "schema": SCHEMA,
        "config": dataclasses.asdict(config),
        "requests": total,
        "elapsed_s": elapsed,
        "throughput_rps": total / elapsed if elapsed > 0 else None,
        "outcomes": outcomes,
        "served": served,
        "shed_rate": outcomes["shed"] / total if total else 0.0,
        "retry_rate": retries / total if total else 0.0,
        "retries": retries,
        "latency_s": {
            "p50": percentile(latencies, 0.50),
            "p90": percentile(latencies, 0.90),
            "p99": percentile(latencies, 0.99),
            "max": max(latencies),
            "mean": sum(latencies) / len(latencies),
        }
        if latencies
        else None,
        "slo": slo_report.to_dict(),
        "server": server,
    }


def render_summary(report: Dict[str, object]) -> str:
    """A terse human-readable digest of one report."""
    latency = report["latency_s"]
    outcomes = report["outcomes"]
    assert isinstance(outcomes, dict)
    parts = ", ".join(f"{name} {outcomes[name]}" for name in OUTCOMES)
    lines = [
        f"service loadgen ({report['schema']}): {report['requests']} requests "
        f"in {report['elapsed_s']:.2f}s",
        f"  outcomes: {parts}",
        f"  shed rate {report['shed_rate']:.1%}, retry rate "
        f"{report['retry_rate']:.2f}/req",
    ]
    if isinstance(latency, dict):
        lines.append(
            f"  latency p50 {latency['p50'] * 1000:.1f}ms, "
            f"p90 {latency['p90'] * 1000:.1f}ms, "
            f"p99 {latency['p99'] * 1000:.1f}ms, "
            f"max {latency['max'] * 1000:.1f}ms"
        )
    slo = report.get("slo")
    if isinstance(slo, dict):
        for objective in slo.get("objectives", ()):
            observed = objective["observed"]
            shown = "n/a" if observed is None else f"{observed:.6g}"
            lines.append(
                f"  slo {objective['name']}: {shown} vs <= "
                f"{objective['threshold']:g} [{objective['verdict']}]"
            )
        lines.append(
            f"  slo overall: {'pass' if slo.get('passed') else 'FAIL'}"
        )
    return "\n".join(lines)


def address(text: str) -> Tuple[str, int]:
    """argparse type of ``--address``: ``host:port``, the port in 1..65535."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"want host:port, got {text!r}")
    return host, int(checked("port", int(port), 1, high=65535, integral=True))


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Every loadgen flag but ``--seed``.

    ``sophon-repro loadgen`` mounts these under its own top-level
    ``--seed``; :func:`main` adds one with the loadgen's default.
    """
    parser.add_argument("--clients", type=flag_type("clients", 1, integral=True),
                        default=LoadgenConfig.clients)
    parser.add_argument("--requests", type=flag_type("requests", 1, integral=True),
                        default=LoadgenConfig.requests_per_client,
                        help="plan requests per client")
    parser.add_argument("--mean-think-s", type=flag_type("mean_think_s", 0.0, high=MAX_WAIT_S),
                        default=LoadgenConfig.mean_think_s)
    parser.add_argument("--deadline-s",
                        type=flag_type("deadline_s", 0.0, open_low=True, high=MAX_WAIT_S),
                        default=LoadgenConfig.deadline_s)
    add_service_arguments(parser)
    parser.add_argument("--address", type=address, default=None,
                        help="host:port of a running service (default: spin "
                        "one up in-process)")
    parser.add_argument("--out", default="BENCH_service.json",
                        help="where to write the JSON report")
    parser.add_argument("--slo-p50-s", type=flag_type("slo_p50_s", 0.0), default=None,
                        help="p50 latency bound (default: deadline/2)")
    parser.add_argument("--slo-p99-s", type=flag_type("slo_p99_s", 0.0), default=None,
                        help="p99 latency bound (default: 2x deadline)")
    parser.add_argument("--slo-error-rate", type=flag_type("slo_error_rate", 0.0),
                        default=None, help="max rate of failed requests (default: 0)")
    parser.add_argument("--slo-shed-rate", type=flag_type("slo_shed_rate", 0.0),
                        default=None, help="max rate of shed requests (default: 0.5)")
    parser.add_argument("--no-slo-gate", action="store_true",
                        help="report SLOs but do not fail the run on them")


def run(args: argparse.Namespace) -> int:
    """One loadgen run from :func:`add_arguments`' flags; the exit code."""
    config = LoadgenConfig(
        clients=args.clients,
        requests_per_client=args.requests,
        seed=args.seed,
        mean_think_s=args.mean_think_s,
        deadline_s=args.deadline_s,
    )
    overrides = {
        "plan_p50": args.slo_p50_s,
        "plan_p99": args.slo_p99_s,
        "error_rate": args.slo_error_rate,
        "shed_rate": args.slo_shed_rate,
    }
    objectives = [
        dataclasses.replace(obj, threshold=overrides[obj.name])
        if overrides.get(obj.name) is not None
        else obj
        for obj in default_objectives(config.deadline_s)
    ]
    if args.address is not None:
        report = run_loadgen(
            args.address, token=args.token, config=config, objectives=objectives
        )
    else:
        with DecisionService(ServiceConfig.from_arguments(args)) as service:
            report = run_loadgen(
                service.address, token=args.token, config=config,
                objectives=objectives,
            )
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(render_summary(report))
    print(f"report written to {args.out}")
    outcomes = report["outcomes"]
    assert isinstance(outcomes, dict)
    if outcomes["failed"] or not report["served"]:
        print("FAIL: requests failed outright (not shed, failed)")
        return 1
    slo = report["slo"]
    assert isinstance(slo, dict)
    if not slo["passed"] and not args.no_slo_gate:
        print("FAIL: SLO violated (see the slo lines above)")
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Drive heavy-tailed trainer load at a decision service "
        "and write BENCH_service.json."
    )
    parser.add_argument("--seed", type=flag_type("seed", 0, integral=True),
                        default=LoadgenConfig.seed)
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
