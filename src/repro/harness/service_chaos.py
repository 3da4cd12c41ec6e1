"""Crash-recovery gate for the decision service: kill it, restart it, diff.

The gate runs one deterministic scripted request sequence twice against
two fresh journals:

- **run A** (reference): one service lives through the whole script and
  drains gracefully;
- **run B** (chaos): the same script, but the service is ``kill()``-ed
  (abrupt, no checkpoint) at scheduled request indices and restarted on
  the same port and journal, with brownout/CPU-drift latency injected on
  the worker's request-index axis; the client rides through the outages
  on its transport retries.
- **run C** (traced): the same script again with tracing fully on -- the
  client stamps every request with ``X-Sophon-Trace`` and the service
  tees its flight recorder into an unbounded tracer.

Run B's pass condition is *byte identity*: the grants its journal holds
must equal run A's exactly -- same sequence numbers, same splits, same
reasons.  Anything less means recovery changed an answer some trainer
already acted on.  Run C's pass condition is *tracing transparency*:
its journal must also match run A byte for byte, proving observability
never leaks into the control plane's outputs.  Run it via
``make chaos-service``::

    PYTHONPATH=src python -m repro.harness.service_chaos --requests 24 --seed 7

``--flight-dir DIR`` additionally keeps each run's flight-recorder dump
(chrome-trace JSON, written on drain) plus the traced run's span stream
as a replayable telemetry JSONL (``sophon-repro replay``).
"""

import argparse
import dataclasses
import json
import os
import random
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.faults.schedule import FaultSchedule
from repro.service.chaos import ScheduleDisturbance, crash_indices
from repro.service.client import ServiceClient, ServiceError
from repro.service.config import ServiceConfig
from repro.service.journal import GrantRecord, read_grants
from repro.service.server import DecisionService
from repro.telemetry.exporters import write_jsonl
from repro.telemetry.spans import Tracer
from repro.utils.floats import flag_type
from repro.utils.tables import render_table

#: How long run B's service stays dead before the restart comes up; the
#: client's transport retries bridge the gap.
RESTART_DELAY_S = 0.05

#: The job shapes the scripted sequence draws from -- small on purpose,
#: so profiling is cheap and the gate runs in seconds.
SCRIPT_NUM_SAMPLES = (24, 32, 48)
SCRIPT_CORES = (4, 8, 12)


@dataclasses.dataclass(frozen=True)
class ScriptedOp:
    """One step of the deterministic request script."""

    kind: str  # "plan" | "replan" | "release"
    job: str
    num_samples: int = 0
    cores: int = 0


def scripted_ops(requests: int, seed: int, jobs: int = 3) -> List[ScriptedOp]:
    """The request script: seeded, heavy on re-grants and releases.

    Every 5th op re-sends the job's previous plan request verbatim (the
    idempotent-replay path a post-crash client retry takes), and every
    7th releases a job's cores (so admission control sees churn).
    """
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    rng = random.Random(seed)
    last_plan: Dict[str, ScriptedOp] = {}
    ops: List[ScriptedOp] = []
    for index in range(requests):
        job = f"job-{index % jobs}"
        if index % 7 == 6 and job in last_plan:
            ops.append(ScriptedOp(kind="release", job=job))
            continue
        if index % 5 == 4 and job in last_plan:
            previous = last_plan[job]
            ops.append(dataclasses.replace(previous, kind="replan"))
            continue
        op = ScriptedOp(
            kind="plan",
            job=job,
            num_samples=rng.choice(SCRIPT_NUM_SAMPLES),
            cores=rng.choice(SCRIPT_CORES),
        )
        last_plan[job] = op
        ops.append(op)
    return ops


def default_service_schedule(requests: int, seed: int) -> FaultSchedule:
    """Crash + brownout + CPU drift on the request-index axis.

    The kill lands at ~40% of the script, the brownout covers the middle
    third, and the drift the final third -- so recovery happens under
    degraded latency, not in calm waters.
    """
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    t = float(requests)
    return (
        FaultSchedule(seed=seed)
        .with_crash(0.4 * t, duration=1.0)
        .with_brownout(0.3 * t, duration=0.3 * t, extra_rtt_s=0.002)
        .with_cpu_drift(0.6 * t, duration=0.3 * t, factor=3.0)
    )


@dataclasses.dataclass
class ScriptRun:
    """What executing the script against one service produced."""

    outcomes: Dict[str, int]
    grants: List[GrantRecord]
    kills: int
    recovered_grants: int
    client_transport_errors: int
    client_retries: int
    drain_s: float


@dataclasses.dataclass
class ServiceChaosReport:
    """All three runs side by side, plus both byte-identity verdicts."""

    requests: int
    seed: int
    reference: ScriptRun
    chaos: ScriptRun
    traced: ScriptRun

    @property
    def identical(self) -> bool:
        """Did the chaos run's journal match the reference byte for byte?"""
        return _grant_lines(self.reference.grants) == _grant_lines(self.chaos.grants)

    @property
    def first_divergence(self) -> Optional[str]:
        return _first_divergence(
            self.reference.grants, self.chaos.grants, "chaos"
        )

    @property
    def tracing_transparent(self) -> bool:
        """Did tracing leave the journal untouched (run C == run A)?"""
        return _grant_lines(self.reference.grants) == _grant_lines(self.traced.grants)

    @property
    def first_trace_divergence(self) -> Optional[str]:
        return _first_divergence(
            self.reference.grants, self.traced.grants, "traced"
        )

    def render(self) -> str:
        rows = []
        runs = (
            ("reference", self.reference),
            ("chaos", self.chaos),
            ("traced", self.traced),
        )
        for name, run in runs:
            rows.append(
                (
                    name,
                    run.outcomes.get("granted", 0),
                    run.outcomes.get("replayed", 0),
                    run.outcomes.get("released", 0),
                    run.kills,
                    run.recovered_grants,
                    run.client_transport_errors,
                    run.client_retries,
                )
            )
        title = (
            f"service crash-recovery gate: {self.requests} scripted requests, "
            f"seed {self.seed}"
        )
        table = render_table(
            ("Run", "Granted", "Replayed", "Released", "Kills", "Recovered",
             "TransportErrs", "Retries"),
            rows,
        )
        verdict = (
            f"journals byte-identical: {len(self.reference.grants)} grants"
            if self.identical
            else f"DIVERGED: {self.first_divergence}"
        )
        trace_verdict = (
            "tracing is byte-transparent: traced journal matches the reference"
            if self.tracing_transparent
            else f"TRACING LEAKED: {self.first_trace_divergence}"
        )
        return f"{title}\n{table}\n{verdict}\n{trace_verdict}"


def _grant_lines(grants: List[GrantRecord]) -> List[str]:
    return [
        json.dumps(
            dataclasses.asdict(grant), sort_keys=True, separators=(",", ":")
        )
        for grant in grants
    ]


def _first_divergence(
    reference: List[GrantRecord], other: List[GrantRecord], label: str
) -> Optional[str]:
    a = _grant_lines(reference)
    b = _grant_lines(other)
    for index, (left, right) in enumerate(zip(a, b)):
        if left != right:
            return f"grant {index}: {left!r} != {right!r}"
    if len(a) != len(b):
        return f"grant count: reference {len(a)} vs {label} {len(b)}"
    return None


def _execute_script(
    ops: List[ScriptedOp],
    journal_path: str,
    config: ServiceConfig,
    schedule: Optional[FaultSchedule] = None,
    telemetry_path: Optional[str] = None,
) -> ScriptRun:
    """Run the script against one service; with a schedule, inject chaos.

    With ``config.trace`` set the client gets its own tracer too, so every
    request carries an ``X-Sophon-Trace`` header -- the tracing-transparency
    leg of the gate.  ``telemetry_path`` (traced runs only) writes the
    service tracer's span stream as a replayable telemetry JSONL.
    """
    kill_at = set(crash_indices(schedule, len(ops))) if schedule is not None else set()
    disturbance = (
        ScheduleDisturbance(schedule) if schedule is not None else None
    )
    base = dataclasses.replace(config, journal_path=journal_path)
    service = DecisionService(base, disturbance=disturbance).start()
    address = service.address
    pinned = dataclasses.replace(base, host=address[0], port=address[1])
    client = ServiceClient(
        address,
        token=config.token,
        deadline_s=30.0,
        max_attempts=10,
        seed=0,
        tracer=Tracer() if config.trace else None,
    )
    outcomes: Dict[str, int] = {}
    kills = 0
    recovered = 0
    try:
        for index, op in enumerate(ops):
            if index in kill_at:
                service.kill()
                kills += 1
                holder: List[DecisionService] = []

                def _restart() -> None:
                    time.sleep(RESTART_DELAY_S)
                    holder.append(
                        DecisionService(
                            pinned, disturbance=disturbance
                        ).start()
                    )

                restarter = threading.Thread(target=_restart, daemon=True)
                restarter.start()
                outcome = _run_op(client, op)
                outcomes[outcome] = outcomes.get(outcome, 0) + 1
                restarter.join(timeout=10.0)
                if not holder:
                    raise RuntimeError("service failed to restart after kill")
                service = holder[0]
                recovered += service.recovered_grants
                continue
            outcome = _run_op(client, op)
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        drain_s = service.drain()
        if telemetry_path is not None and service.tracer is not None:
            write_jsonl(telemetry_path, tracer=service.tracer)
    except BaseException:
        if service.drain_seconds is None and not service._killed:
            service.kill()
        raise
    return ScriptRun(
        outcomes=outcomes,
        grants=list(read_grants(journal_path)),
        kills=kills,
        recovered_grants=recovered,
        client_transport_errors=client.stats.transport_errors,
        client_retries=client.stats.retries,
        drain_s=drain_s,
    )


def _run_op(client: ServiceClient, op: ScriptedOp) -> str:
    if op.kind == "release":
        try:
            released = client.release(op.job)
        except ServiceError:
            return "release_failed"
        return "released" if released is not None else "release_noop"
    try:
        grant = client.plan(
            op.job, num_samples=op.num_samples, storage_cores=op.cores
        )
    except ServiceError:
        return "failed"
    return "replayed" if grant.replayed else "granted"


def run_service_chaos(
    requests: int = 24,
    seed: int = 7,
    workers: int = 2,
    queue_capacity: int = 16,
    total_cores: int = 24,
    journal_dir: Optional[str] = None,
    flight_dir: Optional[str] = None,
) -> ServiceChaosReport:
    """Run the gate; ``identical`` and ``tracing_transparent`` must pass.

    total_cores is deliberately tight relative to the script's core asks,
    so admission control rejects some requests in *all* runs -- recovery
    must reproduce the rejections too, not just the grants.  flight_dir
    keeps each run's flight-recorder dump (written on drain) plus the
    traced run's telemetry JSONL.
    """
    ops = scripted_ops(requests, seed)
    schedule = default_service_schedule(requests, seed)
    config = ServiceConfig(
        workers=workers,
        queue_capacity=queue_capacity,
        total_storage_cores=total_cores,
    )
    if flight_dir is not None:
        os.makedirs(flight_dir, exist_ok=True)

    def _flight(name: str) -> Optional[str]:
        if flight_dir is None:
            return None
        return os.path.join(flight_dir, f"flight_{name}.json")

    def _run(directory: str) -> Tuple[ScriptRun, ScriptRun, ScriptRun]:
        reference = _execute_script(
            ops,
            f"{directory}/journal_reference.jsonl",
            dataclasses.replace(config, flight_path=_flight("reference")),
        )
        chaos = _execute_script(
            ops,
            f"{directory}/journal_chaos.jsonl",
            dataclasses.replace(config, flight_path=_flight("chaos")),
            schedule=schedule,
        )
        traced = _execute_script(
            ops,
            f"{directory}/journal_traced.jsonl",
            dataclasses.replace(
                config, trace=True, flight_path=_flight("traced")
            ),
            telemetry_path=(
                os.path.join(flight_dir, "traced.telemetry.jsonl")
                if flight_dir is not None
                else None
            ),
        )
        return reference, chaos, traced

    if journal_dir is not None:
        reference, chaos, traced = _run(journal_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="sophon-service-chaos-") as tmp:
            reference, chaos, traced = _run(tmp)
    return ServiceChaosReport(
        requests=requests,
        seed=seed,
        reference=reference,
        chaos=chaos,
        traced=traced,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Kill and restart the decision service mid-script and "
        "verify the recovered journal is byte-identical."
    )
    parser.add_argument("--requests", type=flag_type("requests", 1, integral=True), default=24,
                        help="scripted requests per run")
    parser.add_argument("--seed", type=flag_type("seed", 0, integral=True), default=7,
                        help="script + fault-schedule seed")
    parser.add_argument("--workers", type=flag_type("workers", 1, integral=True), default=2)
    parser.add_argument("--cores", type=flag_type("cores", 0, integral=True), default=24,
                        help="storage-core budget (tight, to exercise "
                        "admission rejections)")
    parser.add_argument("--journal-dir", default=None,
                        help="keep the three journals here instead of a "
                        "temporary directory")
    parser.add_argument("--flight-dir", default=None,
                        help="keep each run's flight-recorder dump (and the "
                        "traced run's telemetry JSONL) in this directory")
    args = parser.parse_args(argv)

    report = run_service_chaos(
        requests=args.requests,
        seed=args.seed,
        workers=args.workers,
        total_cores=args.cores,
        journal_dir=args.journal_dir,
        flight_dir=args.flight_dir,
    )
    print(report.render())
    if not report.identical:
        print("FAIL: recovery diverged from the uninterrupted run")
        return 1
    if not report.tracing_transparent:
        print("FAIL: tracing changed the journal (observability leaked into "
              "the control plane)")
        return 1
    if report.chaos.kills == 0:
        print("FAIL: the chaos run never killed the service (gate is vacuous)")
        return 1
    print("Crash recovery is byte-identical; the control plane survived.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
