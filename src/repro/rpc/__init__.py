"""The data-fetch wire protocol between compute and storage nodes.

The paper uses gRPC; here the transport is an in-process channel, but the
*protocol* is real: requests and responses are serialized to bytes, offload
directives ride on each fetch request (Figure 2d), the storage server
executes the requested pipeline prefix (Figure 2e), and every byte crossing
the channel is counted.  Traffic numbers on the materialized path come from
these actual message lengths.

The transport is hardened for unreliable storage nodes: response frames
carry a payload CRC32 (:class:`ChecksumError` is retryable), the
:class:`RetryingClient` backs off exponentially with full jitter and
honours per-fetch deadlines, and a :class:`CircuitBreaker` stops a dead
server from costing every fetch its full retry budget (see
``docs/robustness.md``).
"""

from repro.rpc.messages import (
    FRAME_TYPES,
    REQUEST_HEADER_SIZE,
    RESPONSE_HEADER_SIZE,
    ChecksumError,
    FetchRequest,
    FetchResponse,
    ProtocolError,
    payload_checksum,
)
from repro.preprocessing.payload import SupportsFetch, SupportsScanFetch
from repro.rpc.channel import ChannelStats, InMemoryChannel
from repro.rpc.server import StorageServer
from repro.rpc.client import StorageClient
from repro.rpc.retry import (
    DeadlineExceededError,
    FetchFailedError,
    RetryBudgetExhaustedError,
    RetryingClient,
    RetryStats,
)
from repro.rpc.breaker import (
    BreakerOpenError,
    BreakerState,
    BreakerStats,
    CircuitBreaker,
)

__all__ = [
    "BreakerOpenError",
    "BreakerState",
    "BreakerStats",
    "ChannelStats",
    "ChecksumError",
    "CircuitBreaker",
    "DeadlineExceededError",
    "FRAME_TYPES",
    "FetchFailedError",
    "FetchRequest",
    "FetchResponse",
    "InMemoryChannel",
    "ProtocolError",
    "REQUEST_HEADER_SIZE",
    "RESPONSE_HEADER_SIZE",
    "RetryBudgetExhaustedError",
    "RetryStats",
    "RetryingClient",
    "StorageClient",
    "StorageServer",
    "SupportsFetch",
    "SupportsScanFetch",
    "payload_checksum",
]
