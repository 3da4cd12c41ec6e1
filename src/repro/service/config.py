"""Configuration for the decision service.

One frozen dataclass holds every operational knob -- capacity, budgets,
timeouts, journal location -- so a service's behaviour is fully described
by its config plus its journal.  Tests construct small configs directly;
``sophon-repro serve`` builds one from flags.
"""

import dataclasses
from typing import Optional

from repro.utils.floats import checked

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
        if self.default_deadline_s is not None:
            checked("default_deadline_s", self.default_deadline_s, 0.0, open_low=True)
        checked("retry_after_s", self.retry_after_s, 0.0)
        checked("drain_timeout_s", self.drain_timeout_s, 0.0, open_low=True)
