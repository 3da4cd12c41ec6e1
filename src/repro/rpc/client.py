"""The compute-node client of the storage server."""

from typing import Optional

from repro.preprocessing.payload import Payload
from repro.rpc.channel import InMemoryChannel
from repro.rpc.messages import ChecksumError, FetchRequest, FetchResponse, ProtocolError
from repro.telemetry.registry import get_default_registry
from repro.telemetry.spans import Tracer, trace_id


class StorageClient:
    """Fetch samples through a channel; satisfies ``SupportsFetch``."""

    def __init__(
        self, channel: InMemoryChannel, tracer: Optional[Tracer] = None
    ) -> None:
        self.channel = channel
        self.tracer = tracer
        #: Payloads whose CRC32 failed on arrival (each was re-fetched, not
        #: trained on -- the wire-format v2 guarantee).
        self.checksum_failures = 0

    def fetch(self, sample_id: int, epoch: int, split: int) -> Payload:
        """Fetch a sample with ops 1..split applied remotely."""
        registry = get_default_registry()
        request = FetchRequest(sample_id=sample_id, epoch=epoch, split=split)
        wire = self.channel.call(request.to_bytes())
        registry.counter(
            "client_response_bytes_total", "storage -> compute bytes received"
        ).inc(len(wire))
        try:
            response = FetchResponse.from_bytes(wire)
        except ChecksumError:
            self.checksum_failures += 1
            registry.counter(
                "client_checksum_failures_total", "payloads rejected by CRC32"
            ).inc()
            if self.tracer is not None:
                self.tracer.instant(
                    trace_id(sample_id, epoch), "client.checksum_failure", split=split
                )
            raise
        if response.sample_id != sample_id:
            raise ProtocolError(
                f"response for sample {response.sample_id}, expected {sample_id}"
            )
        if response.split != split:
            raise ProtocolError(
                f"server applied split {response.split}, requested {split}"
            )
        return response.to_payload()

    @property
    def traffic_bytes(self) -> int:
        """Storage -> compute bytes observed so far (the paper's metric)."""
        return self.channel.stats.response_bytes
