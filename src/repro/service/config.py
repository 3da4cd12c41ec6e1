"""Configuration for the decision service.

One frozen dataclass holds every operational knob -- capacity, budgets,
timeouts, journal location -- so a service's behaviour is fully described
by its config plus its journal.  Tests construct small configs directly;
``sophon-repro serve`` and the load generator's in-process service build
one from the flags :func:`add_service_arguments` declares.
"""

import argparse
import dataclasses
from typing import Any, Optional

from repro.utils.floats import checked, flag_type

#: The development default.  Real deployments pass their own token; the
#: server refuses to start with an empty one.
DEFAULT_TOKEN = "sophon-dev-token"


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Everything the decision service needs to run.

    Every count is an integer and every duration a finite number, each
    checked against its bound below (NaN and bools are refused).

    token: shared bearer token required on every ``/v1/*`` request.
    host/port: listen address; port 0 picks an ephemeral port (the bound
        address is on :attr:`DecisionService.address`).
    workers: planner worker threads draining the queue.
    queue_capacity: bounded queue depth; a full queue sheds new plan
        requests with 503 + ``Retry-After`` instead of buffering forever.
    total_storage_cores: the storage node's CPU budget that admission
        control protects; committed cores across active jobs never exceed
        this.
    max_samples: upper bound on a job's ``num_samples`` (one request must
        not be able to wedge a worker on an arbitrarily large profile).
    default_deadline_s: applied to requests that carry no deadline header;
        None means such requests never expire server-side.
    retry_after_s: the hint sent with 503 responses (shed / draining /
        budget-rejected).
    drain_timeout_s: how long a graceful drain waits for in-flight work
        before giving up and hard-stopping.
    journal_path: append-only recovery journal; None disables journaling
        (grants are not durable, restarts start from scratch).
    sync_journal: fsync after every journal append.  Durable by default;
        benchmarks may turn it off.
    plan_cache_size: LRU entries of profiled records kept per planner
        (keyed by job parameters), so a fleet re-requesting the same job
        shape does not re-profile every time.
    trace: collect the *full* span stream in an unbounded tee tracer
        (:attr:`DecisionService.tracer`) in addition to the always-on
        bounded flight recorder.  Tracing never touches the journal or
        the grant stream -- the chaos gate checks byte-identity with it
        on and off.
    flight_capacity: ring size (spans and log records each) of the
        always-on flight recorder.
    flight_path: when set, the flight recorder's chrome-trace dump is
        written here on drain *and* on kill, so crashed runs leave a
        timeline behind.
    """

    token: str = DEFAULT_TOKEN
    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    queue_capacity: int = 16
    total_storage_cores: int = 48
    max_samples: int = 20000
    default_deadline_s: Optional[float] = 30.0
    retry_after_s: float = 0.05
    drain_timeout_s: float = 30.0
    journal_path: Optional[str] = None
    sync_journal: bool = True
    plan_cache_size: int = 8
    trace: bool = False
    flight_capacity: int = 2048
    flight_path: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.token:
            raise ValueError("token must be non-empty")
        for name, low in (
            ("workers", 1), ("queue_capacity", 1), ("total_storage_cores", 0),
            ("max_samples", 1), ("plan_cache_size", 0), ("flight_capacity", 1),
        ):
            checked(name, getattr(self, name), low, integral=True)
        checked("port", self.port, 0, high=65535, integral=True)
        if self.default_deadline_s is not None:
            checked("default_deadline_s", self.default_deadline_s, 0.0, open_low=True)
        checked("retry_after_s", self.retry_after_s, 0.0)
        checked("drain_timeout_s", self.drain_timeout_s, 0.0, open_low=True)

    @classmethod
    def from_arguments(cls, args: argparse.Namespace, **fields: Any) -> "ServiceConfig":
        """The config :func:`add_service_arguments`' flags describe, plus ``fields``."""
        return cls(token=args.token, workers=args.workers, queue_capacity=args.queue_capacity,
                   total_storage_cores=args.cores, **fields)


def token(text: str) -> str:
    """argparse type of ``--token``: any non-empty string."""
    if not text:
        raise ValueError("token must be non-empty")
    return text


def add_service_arguments(parser: argparse.ArgumentParser) -> None:
    """The capacity flags of a service: ``serve``'s and the load generator's."""
    parser.add_argument("--token", type=token, default=ServiceConfig.token,
                        help="bearer token clients must present")
    parser.add_argument("--workers", type=flag_type("workers", 1, integral=True),
                        default=ServiceConfig.workers, help="planner worker threads")
    parser.add_argument("--queue-capacity",
                        type=flag_type("queue_capacity", 1, integral=True),
                        default=ServiceConfig.queue_capacity,
                        help="bounded work queue size (beyond it, requests shed)")
    parser.add_argument("--cores", type=flag_type("cores", 0, integral=True),
                        default=ServiceConfig.total_storage_cores,
                        help="storage-CPU budget admission control protects")
