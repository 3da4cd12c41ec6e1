"""Cluster hardware description (the paper's two-node testbed)."""

import dataclasses

from repro.utils.floats import checked
from repro.utils.units import mbps_to_bytes_per_s


@dataclasses.dataclass(frozen=True)
class ClusterSpec:
    """Compute node + storage node + the link between them.

    compute_cores: logical cores for local preprocessing (paper: 48).
    storage_cores: cores available for offloaded preprocessing on the
        storage node (paper: varied 0..ample); 0 disables offloading.
    bandwidth_mbps: inter-node network cap (paper: 500 Mbps).
    network_rtt_s: per-request round-trip latency added to each fetch.
    compute_cpu_factor / storage_cpu_factor: relative CPU slowness of each
        node (1.0 = the profiled CPU; >1 slower).  The paper assumes
        identical CPUs; heterogeneous values exercise the section-6
        extension.
    prefetch_batches: how many batches the input pipeline works ahead of
        the GPU.
    response_overhead_bytes: protocol framing per fetch, counted as
        traffic.
    link_chunk_bytes: transfer interleaving granularity.  Transmissions
        hold the link one chunk at a time, so concurrent flows share the
        bandwidth round-robin (TCP-fair-ish) instead of serializing whole
        payloads FIFO -- this matters when several jobs share one egress
        link.

    Every field must be finite; the counts (cores, batches, bytes) must be
    integers, not bools or floats.  Anything else raises ValueError.
    """

    compute_cores: int = 48
    storage_cores: int = 48
    bandwidth_mbps: float = 500.0
    network_rtt_s: float = 0.0002
    compute_cpu_factor: float = 1.0
    storage_cpu_factor: float = 1.0
    prefetch_batches: int = 8
    response_overhead_bytes: int = 32
    link_chunk_bytes: int = 262_144

    def __post_init__(self) -> None:
        counts = (
            ("compute_cores", 1),
            ("storage_cores", 0),
            ("prefetch_batches", 1),
            ("response_overhead_bytes", 0),
            ("link_chunk_bytes", 4096),
        )
        for name, low in counts:
            checked(name, getattr(self, name), low, integral=True)
        checked("network_rtt_s", self.network_rtt_s, 0.0)
        for name in ("bandwidth_mbps", "compute_cpu_factor", "storage_cpu_factor"):
            checked(name, getattr(self, name), 0.0, open_low=True)

    @property
    def bandwidth_bytes_per_s(self) -> float:
        return mbps_to_bytes_per_s(self.bandwidth_mbps)

    @property
    def can_offload(self) -> bool:
        return self.storage_cores > 0

    def with_storage_cores(self, storage_cores: int) -> "ClusterSpec":
        return dataclasses.replace(self, storage_cores=storage_cores)

    def with_bandwidth(self, bandwidth_mbps: float) -> "ClusterSpec":
        return dataclasses.replace(self, bandwidth_mbps=bandwidth_mbps)

    def degraded(
        self,
        bandwidth_factor: float = 1.0,
        extra_rtt_s: float = 0.0,
        storage_cpu_factor: float = 1.0,
        storage_down: bool = False,
    ) -> "ClusterSpec":
        """The cluster as an observed outage leaves it.

        Adaptive re-planning feeds the degraded spec to the decision
        engine, so the plan produced during (or after) a fault reflects
        what the cluster can actually deliver: ``storage_down`` removes the
        storage cores entirely (forcing a No-Off plan), a brownout scales
        the bandwidth and inflates the RTT, CPU drift slows the storage
        cores.
        """
        if not 0 < bandwidth_factor <= 1:
            raise ValueError(
                f"bandwidth_factor must be in (0, 1], got {bandwidth_factor}"
            )
        if extra_rtt_s < 0:
            raise ValueError(f"extra_rtt_s must be >= 0, got {extra_rtt_s}")
        if storage_cpu_factor < 1:
            raise ValueError(
                f"storage_cpu_factor must be >= 1, got {storage_cpu_factor}"
            )
        return dataclasses.replace(
            self,
            storage_cores=0 if storage_down else self.storage_cores,
            bandwidth_mbps=self.bandwidth_mbps * bandwidth_factor,
            network_rtt_s=self.network_rtt_s + extra_rtt_s,
            storage_cpu_factor=self.storage_cpu_factor * storage_cpu_factor,
        )


def standard_cluster(
    storage_cores: int = 48,
    bandwidth_mbps: float = 500.0,
    compute_cores: int = 48,
) -> ClusterSpec:
    """The paper's evaluation setup (section 4 Experiment Setup)."""
    return ClusterSpec(
        compute_cores=compute_cores,
        storage_cores=storage_cores,
        bandwidth_mbps=bandwidth_mbps,
    )
