"""The analytic epoch-time model over the paper's four metrics.

Section 3.2 of the paper reasons about an epoch through four quantities:

- T_G: GPU time for one epoch;
- T_CC: compute-node CPU time (total local preprocessing / compute cores);
- T_CS: storage-node CPU time (total offloaded preprocessing / storage
  cores);
- T_Net: wire time (total traffic / bandwidth).

With a pipelined input path these stages overlap, so the epoch lower bound
is the maximum of the four; the decision engine optimizes against this model
while the event simulator provides the measured times (which include
queueing and pipeline fill).
"""

import dataclasses
import enum
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.cluster.spec import ClusterSpec


class Bottleneck(enum.Enum):
    """Which of the four metrics dominates an epoch."""

    GPU = "gpu"
    COMPUTE_CPU = "compute_cpu"
    STORAGE_CPU = "storage_cpu"
    NETWORK = "network"


@dataclasses.dataclass(frozen=True)
class EpochMetrics:
    """Aggregate per-epoch work, before dividing by hardware capacity.

    gpu_time_s: serial GPU seconds (sum of batch times).
    compute_cpu_s: total single-core seconds of local preprocessing.
    storage_cpu_s: total single-core seconds of offloaded preprocessing
        (already scaled for the storage node's CPU speed factor).
    traffic_bytes: total bytes crossing the storage->compute link.
    """

    gpu_time_s: float
    compute_cpu_s: float
    storage_cpu_s: float
    traffic_bytes: float

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            if getattr(self, field.name) < 0:
                raise ValueError(f"{field.name} must be >= 0")

    def replace(self, **changes: float) -> "EpochMetrics":
        return dataclasses.replace(self, **changes)


@dataclasses.dataclass(frozen=True)
class EpochEstimate:
    """The four T metrics of section 3.2 plus the derived epoch estimate."""

    t_g: float
    t_cc: float
    t_cs: float
    t_net: float

    @property
    def epoch_time_s(self) -> float:
        return max(self.t_g, self.t_cc, self.t_cs, self.t_net)

    @property
    def bottleneck(self) -> Bottleneck:
        pairs = [
            (self.t_g, Bottleneck.GPU),
            (self.t_cc, Bottleneck.COMPUTE_CPU),
            (self.t_cs, Bottleneck.STORAGE_CPU),
            (self.t_net, Bottleneck.NETWORK),
        ]
        return max(pairs, key=lambda p: p[0])[1]

    @property
    def network_bound(self) -> bool:
        """True when T_Net is the (weakly) predominant metric."""
        return self.t_net >= max(self.t_g, self.t_cc, self.t_cs)

    @property
    def gpu_utilization(self) -> float:
        """T_G / epoch time -- the fraction of the epoch the GPU computes."""
        epoch = self.epoch_time_s
        if epoch <= 0:
            return 0.0
        return self.t_g / epoch


class EpochModel:
    """Turns aggregate work into the four T metrics for a given cluster."""

    def __init__(self, spec: ClusterSpec) -> None:
        self.spec = spec

    def estimate(self, metrics: EpochMetrics) -> EpochEstimate:
        spec = self.spec
        t_cc = metrics.compute_cpu_s * spec.compute_cpu_factor / spec.compute_cores
        if metrics.storage_cpu_s > 0 and spec.storage_cores == 0:
            raise ValueError("storage work scheduled on a cluster with 0 storage cores")
        t_cs = (
            0.0
            if metrics.storage_cpu_s == 0
            else metrics.storage_cpu_s * spec.storage_cpu_factor / spec.storage_cores
        )
        t_net = metrics.traffic_bytes / spec.bandwidth_bytes_per_s
        return EpochEstimate(
            t_g=metrics.gpu_time_s, t_cc=t_cc, t_cs=t_cs, t_net=t_net
        )

    def epoch_time_s(self, metrics: EpochMetrics) -> float:
        return self.estimate(metrics).epoch_time_s


class EpochBudget:
    """:meth:`EpochModel.estimate` as running sums: the accept step of every
    greedy planner (paper section 3.2).

    Holds an assignment's compute, storage and traffic totals, its epoch
    estimate and ``network_bound``.  A planner walks its own candidate
    order, stops once ``network_bound`` is False, and hands each
    candidate's deltas to :meth:`offer`, which computes the T terms
    exactly as :meth:`EpochModel.estimate` does.  A planner whose order is
    fixed before the loop first hands the whole order to
    :meth:`offer_run`, which accepts the run up to the first candidate
    that needs a decision in one numpy step, and goes on from there with
    :meth:`offer`.
    """

    __slots__ = (
        "t_g", "compute_cpu_s", "storage_cpu_s", "traffic_bytes", "epoch_time_s",
        "network_bound", "never_worsen", "epsilon_s", "refused_s", "_model", "_scales",
        "_trail",
    )

    def __init__(
        self,
        spec: ClusterSpec,
        metrics: EpochMetrics,
        never_worsen: bool = True,
        epsilon_s: float = 1e-9,
    ) -> None:
        self._model = EpochModel(spec)
        self.t_g = metrics.gpu_time_s
        # Float totals, so int inputs add up as float64 folds do.
        self.compute_cpu_s = float(metrics.compute_cpu_s)
        self.storage_cpu_s = float(metrics.storage_cpu_s)
        self.traffic_bytes = float(metrics.traffic_bytes)
        estimate = self.estimate()
        self.epoch_time_s, self.network_bound = estimate.epoch_time_s, estimate.network_bound
        self.never_worsen, self.epsilon_s = never_worsen, epsilon_s
        #: The estimate the last refused offer would have led to.
        self.refused_s = 0.0
        self._scales = (
            spec.compute_cpu_factor, spec.compute_cores,
            spec.storage_cpu_factor, spec.storage_cores, spec.bandwidth_bytes_per_s,
        )
        self._trail: Optional[Tuple[np.ndarray, ...]] = None

    def estimate(self) -> EpochEstimate:
        return self._model.estimate(
            EpochMetrics(self.t_g, self.compute_cpu_s, self.storage_cpu_s, self.traffic_bytes)
        )

    def offer(self, d_compute: float, d_storage: float, d_traffic: float) -> bool:
        """Apply one candidate's work deltas unless ``never_worsen`` refuses.

        An offload offers ``(-moved, +moved, -saved)``.  The offer is
        refused (False; :attr:`refused_s` keeps the estimate it would have
        led to) when it would raise the epoch estimate by more than
        ``epsilon_s``.  Float cancellation can push the compute sum a hair
        below zero, so it is clamped there; a negative storage or traffic
        total raises :class:`EpochMetrics`' error.
        """
        local_cpu = self.compute_cpu_s + d_compute
        compute = local_cpu if local_cpu >= 0 else 0.0
        storage = self.storage_cpu_s + d_storage
        traffic = self.traffic_bytes + d_traffic
        t_g = self.t_g
        if storage < 0 or traffic < 0:
            EpochMetrics(t_g, compute, storage, traffic)  # raises
        compute_scale, compute_cores, storage_scale, storage_cores, bandwidth = self._scales
        t_cc = compute * compute_scale / compute_cores
        t_cs = 0.0 if storage == 0 else storage * storage_scale / storage_cores
        t_net = traffic / bandwidth
        post_s = max(t_g, t_cc, t_cs, t_net)
        if self.never_worsen and post_s > self.epoch_time_s + self.epsilon_s:
            self.refused_s = post_s
            return False
        self.compute_cpu_s, self.storage_cpu_s, self.traffic_bytes = compute, storage, traffic
        self.epoch_time_s, self.network_bound = post_s, t_net >= max(t_g, t_cc, t_cs)
        return True

    def offer_run(self, d_compute: np.ndarray, d_storage: np.ndarray, d_traffic: np.ndarray) -> int:
        """Offer candidates in order, as :meth:`offer` would one at a time,
        and accept the longest run that needs no decision; return its length.

        The run ends just before the first candidate that :meth:`offer`
        would refuse, clamp or raise on, or that a planner would not offer
        because ``network_bound`` is already False; the caller goes on from
        there with :meth:`offer`.  The totals are ``np.cumsum`` folds from
        the current ones, and a fold adds left to right as the scalar loop
        does, so every total, T term and estimate is bit for bit the one
        :meth:`offer` computes.  :meth:`trail` reads the run back.
        """
        count = len(d_compute)
        if not count:
            return 0
        compute = _running(self.compute_cpu_s, d_compute)
        storage = _running(self.storage_cpu_s, d_storage)
        traffic = _running(self.traffic_bytes, d_traffic)
        compute_scale, compute_cores, storage_scale, storage_cores, bandwidth = self._scales
        with np.errstate(all="ignore"):  # a stop below covers each division by 0
            t_cc = compute * compute_scale / compute_cores
            t_cs = np.where(storage == 0, 0.0, storage * storage_scale / storage_cores)
            t_net = traffic / bandwidth
        # max() keeps the first of equal terms (0.0 against -0.0 too), so
        # fold with a strict ">"; ``winner`` indexes _BOTTLENECKS.
        post = np.full(count, float(self.t_g))
        winner = np.zeros(count, dtype=np.int8)
        for index, term in enumerate((t_cc, t_cs), 1):
            higher = term > post
            np.copyto(post, term, where=higher)
            winner[higher] = index
        bound = t_net >= post
        higher = t_net > post
        np.copyto(post, t_net, where=higher)
        winner[higher] = 3

        stop = ~(compute >= 0) | (storage < 0) | (traffic < 0)
        if not storage_cores:
            stop |= storage != 0
        stop[0] |= not self.network_bound
        stop[1:] |= ~bound[:-1]
        if self.never_worsen:
            before = np.empty(count)
            before[0] = self.epoch_time_s
            before[1:] = post[:-1]
            stop |= post > before + self.epsilon_s
        accepted = int(np.argmax(stop)) if stop.any() else count
        if accepted:
            last = accepted - 1
            self.compute_cpu_s = float(compute[last])
            self.storage_cpu_s = float(storage[last])
            self.traffic_bytes = float(traffic[last])
            self.epoch_time_s = self.t_g if winner[last] == 0 else float(post[last])
            self.network_bound = bool(bound[last])
        self._trail = (post[:accepted], winner[:accepted], bound[:accepted],
                       storage[:accepted], traffic[:accepted])
        return accepted

    def trail(self) -> Iterator[Tuple[float, Bottleneck, bool, float, float]]:
        """The budget after each offer the last :meth:`offer_run` accepted,
        in order: ``(epoch_time_s, bottleneck, network_bound,
        storage_cpu_s, traffic_bytes)``, as :meth:`estimate` would give it."""
        if self._trail is None:
            return
        post, winner, bound, storage, traffic = (column.tolist() for column in self._trail)
        for epoch, term, is_bound, storage_s, traffic_b in zip(post, winner, bound, storage, traffic):
            yield self.t_g if term == 0 else epoch, _BOTTLENECKS[term], is_bound, storage_s, traffic_b


#: Bottlenecks in :meth:`EpochEstimate.bottleneck`'s tie order.
_BOTTLENECKS = (Bottleneck.GPU, Bottleneck.COMPUTE_CPU, Bottleneck.STORAGE_CPU, Bottleneck.NETWORK)


def _running(start: float, deltas: np.ndarray) -> np.ndarray:
    """``start + deltas[0]``, then each next delta added on, as float64."""
    totals = np.empty(len(deltas) + 1)
    totals[0] = start
    totals[1:] = deltas
    return np.cumsum(totals, out=totals)[1:]
