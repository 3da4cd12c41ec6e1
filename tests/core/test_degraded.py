"""Degraded-mode fetcher: demotion, outage accounting, bit-identity."""

import numpy as np
import pytest

from repro.core.degraded import DegradedModeFetcher, OutageReport
from repro.data.loader import DataLoader, DirectFetcher
from repro.rpc import InMemoryChannel, StorageClient, StorageServer
from repro.rpc.breaker import BreakerState, CircuitBreaker
from repro.rpc.messages import ChecksumError


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class FailingFetcher:
    """Delegates to ``inner``; raises ``exc`` while ``down`` is True."""

    def __init__(self, inner, exc=ConnectionError):
        self.inner = inner
        self.exc = exc
        self.down = False
        self.calls = 0

    def fetch(self, sample_id, epoch, split):
        self.calls += 1
        if self.down:
            raise self.exc("storage node unreachable")
        return self.inner.fetch(sample_id, epoch, split)


@pytest.fixture
def rpc_client(materialized_tiny, pipeline):
    server = StorageServer(materialized_tiny, pipeline, seed=0)
    return StorageClient(InMemoryChannel(server.handle))


def make_fetcher(primary, pipeline, dataset, threshold=2, recovery=1e9):
    clock = FakeClock()
    return DegradedModeFetcher(
        primary,
        pipeline,
        fallback=DirectFetcher(dataset),
        breaker=CircuitBreaker(
            failure_threshold=threshold, recovery_time_s=recovery, clock=clock
        ),
        seed=0,
        clock=clock,
    )


class TestHealthyPassThrough:
    def test_no_demotions_when_primary_is_healthy(
        self, rpc_client, pipeline, materialized_tiny
    ):
        fetcher = make_fetcher(rpc_client, pipeline, materialized_tiny)
        payload = fetcher.fetch(0, 0, 2)
        direct = rpc_client.fetch(0, 0, 2)
        assert np.array_equal(payload.data, direct.data)
        assert fetcher.demotion_count == 0
        assert fetcher.outages == []
        assert not fetcher.in_outage


class TestDemotion:
    def test_demoted_samples_are_bit_identical(
        self, rpc_client, pipeline, materialized_tiny
    ):
        splits = [2] * len(materialized_tiny)
        reference = DataLoader(
            materialized_tiny, pipeline, DirectFetcher(materialized_tiny),
            batch_size=5, splits=None, seed=0,
        )
        expected = list(reference.epoch(1))

        primary = FailingFetcher(rpc_client)
        fetcher = make_fetcher(primary, pipeline, materialized_tiny)
        loader = DataLoader(
            materialized_tiny, pipeline, fetcher, batch_size=5, splits=splits, seed=0
        )
        iterator = iter(loader.epoch(1))
        first = next(iterator)  # healthy batch
        primary.down = True  # storage node dies mid-epoch
        rest = list(iterator)

        batches = [first] + rest
        assert sum(len(b) for b in batches) == len(materialized_tiny)
        for got, want in zip(batches, expected):
            assert got.sample_ids == want.sample_ids
            assert np.array_equal(got.tensors, want.tensors)
        assert fetcher.demotion_count == len(materialized_tiny) - len(first)

    def test_breaker_open_stops_hammering_the_primary(
        self, rpc_client, pipeline, materialized_tiny
    ):
        primary = FailingFetcher(rpc_client)
        primary.down = True
        fetcher = make_fetcher(primary, pipeline, materialized_tiny, threshold=2)
        for sid in range(6):
            fetcher.fetch(sid, 0, 2)
        # Two failing calls trip the breaker; the remaining four demote
        # without touching the primary at all.
        assert primary.calls == 2
        assert fetcher.breaker.state is BreakerState.OPEN
        assert fetcher.demotion_count == 6
        reasons = {d.reason for d in fetcher.last_outage.demotions}
        assert reasons == {"ConnectionError", "breaker-open"}

    def test_checksum_failures_also_demote(
        self, rpc_client, pipeline, materialized_tiny
    ):
        primary = FailingFetcher(rpc_client, exc=ChecksumError)
        primary.down = True
        fetcher = make_fetcher(primary, pipeline, materialized_tiny)
        payload = fetcher.fetch(0, 0, 2)
        assert payload is not None
        assert fetcher.demotion_count == 1

    def test_raw_fetch_without_fallback_reraises(self, pipeline, materialized_tiny):
        class AlwaysDown:
            def fetch(self, sample_id, epoch, split):
                raise ConnectionError("down")

        fetcher = DegradedModeFetcher(AlwaysDown(), pipeline, fallback=None, seed=0)
        with pytest.raises(ConnectionError):
            fetcher.fetch(0, 0, 0)  # split 0, nothing else can serve


class TestOutageLifecycle:
    def test_outage_opens_and_recovers(self, rpc_client, pipeline, materialized_tiny):
        primary = FailingFetcher(rpc_client)
        fetcher = make_fetcher(primary, pipeline, materialized_tiny, recovery=3.0)
        fetcher.fetch(0, 0, 2)  # healthy
        primary.down = True
        fetcher.fetch(1, 0, 2)
        fetcher.fetch(2, 0, 2)
        assert fetcher.in_outage
        assert fetcher.last_outage.recovered_at_s is None
        primary.down = False
        # The breaker's cooldown elapses on the fake clock as calls tick it
        # forward; the next fetch is the half-open probe and succeeds.
        for sid in range(3, 8):
            fetcher.fetch(sid, 0, 2)
        assert not fetcher.in_outage
        outage = fetcher.last_outage
        assert outage.recovered_at_s is not None
        assert outage.duration_s > 0
        assert outage.demotion_count >= 2

    def test_two_outages_produce_two_reports(
        self, rpc_client, pipeline, materialized_tiny
    ):
        primary = FailingFetcher(rpc_client)
        fetcher = make_fetcher(primary, pipeline, materialized_tiny, recovery=1.0)
        for phase_down in (True, False, True, False):
            primary.down = phase_down
            for sid in range(5):
                fetcher.fetch(sid, 0, 2)
        assert len(fetcher.outages) == 2
        assert all(o.recovered_at_s is not None for o in fetcher.outages)

    def test_outage_report_duration(self):
        report = OutageReport(started_at_s=2.0)
        assert report.duration_s is None
        report.recovered_at_s = 7.5
        assert report.duration_s == 5.5


class TestFlapping:
    """A storage node that flaps (down, up, down, up, ...) must neither
    corrupt data nor inflate the outage count: every demoted payload stays
    bit-identical to the healthy path, and each contiguous down episode is
    reported exactly once."""

    CYCLES = 4
    SAMPLES_PER_PHASE = 5

    def flap(self, fetcher, primary, epoch=0, split=2):
        """Drive CYCLES down/up cycles; return payloads per down phase."""
        demoted_by_cycle = []
        for _ in range(self.CYCLES):
            primary.down = True
            demoted_by_cycle.append(
                [
                    fetcher.fetch(sid, epoch, split)
                    for sid in range(self.SAMPLES_PER_PHASE)
                ]
            )
            primary.down = False
            # Enough healthy traffic for the breaker's cooldown to elapse
            # on the fake clock and the half-open probe to succeed.
            for sid in range(self.SAMPLES_PER_PHASE):
                fetcher.fetch(sid, epoch, split)
        return demoted_by_cycle

    def test_each_down_episode_is_counted_exactly_once(
        self, rpc_client, pipeline, materialized_tiny
    ):
        from repro.telemetry.registry import MetricsRegistry, use_registry

        primary = FailingFetcher(rpc_client)
        fetcher = make_fetcher(primary, pipeline, materialized_tiny, recovery=1.0)
        registry = MetricsRegistry()
        with use_registry(registry):
            self.flap(fetcher, primary)
        assert len(fetcher.outages) == self.CYCLES
        assert all(o.recovered_at_s is not None for o in fetcher.outages)
        assert all(o.demotion_count > 0 for o in fetcher.outages)
        assert not fetcher.in_outage
        # The metrics side agrees with the report side: one increment per
        # episode, not one per failing fetch within it.
        snapshot = registry.snapshot()
        (outages_total,) = [
            value
            for (name, _labels), value in snapshot.series.items()
            if name == "degraded_outages_total"
        ]
        assert outages_total == self.CYCLES

    def test_flapping_cycles_stay_bit_identical(
        self, rpc_client, pipeline, materialized_tiny
    ):
        primary = FailingFetcher(rpc_client)
        fetcher = make_fetcher(primary, pipeline, materialized_tiny, recovery=1.0)
        healthy = {
            sid: rpc_client.fetch(sid, 0, 2)
            for sid in range(self.SAMPLES_PER_PHASE)
        }
        demoted_by_cycle = self.flap(fetcher, primary)
        for cycle, demoted in enumerate(demoted_by_cycle):
            for sid, payload in enumerate(demoted):
                assert np.array_equal(payload.data, healthy[sid].data), (
                    f"cycle {cycle}, sample {sid}: demoted payload diverged "
                    f"from the healthy offload path"
                )

    def test_outage_durations_do_not_overlap(
        self, rpc_client, pipeline, materialized_tiny
    ):
        primary = FailingFetcher(rpc_client)
        fetcher = make_fetcher(primary, pipeline, materialized_tiny, recovery=1.0)
        self.flap(fetcher, primary)
        for earlier, later in zip(fetcher.outages, fetcher.outages[1:]):
            assert earlier.recovered_at_s is not None
            assert earlier.recovered_at_s <= later.started_at_s

    def test_demotions_attach_to_the_current_episode_only(
        self, rpc_client, pipeline, materialized_tiny
    ):
        primary = FailingFetcher(rpc_client)
        fetcher = make_fetcher(primary, pipeline, materialized_tiny, recovery=1.0)
        self.flap(fetcher, primary)
        assert fetcher.demotion_count == sum(
            o.demotion_count for o in fetcher.outages
        )
        # Every demotion's timestamp falls inside its episode's window.
        for outage in fetcher.outages:
            for demotion in outage.demotions:
                assert demotion.at_s >= outage.started_at_s
                assert demotion.at_s <= outage.recovered_at_s


class FakeScanFetcher:
    """SupportsScanFetch double: serves truncated progressive streams."""

    def __init__(self, dataset, codec):
        self.codec = codec
        self.calls = []
        self.streams = {
            sid: codec.encode(codec.decode(dataset.raw_payload(sid).data))
            for sid in dataset.sample_ids()
        }

    def fetch_scans(self, sample_id, epoch, scan_count):
        from repro.codec import truncate_scans
        from repro.preprocessing.payload import Payload

        self.calls.append((sample_id, epoch, scan_count))
        meta = self.streams[sample_id]
        truncated = truncate_scans(meta, scan_count)
        image = self.codec.decode(meta)
        return Payload.encoded(
            truncated, height=image.shape[0], width=image.shape[1]
        )


class TestFidelityRung:
    @pytest.fixture
    def prog_pipeline(self):
        from repro.codec import ProgressiveJpegCodec
        from repro.preprocessing.pipeline import standard_pipeline

        return standard_pipeline(crop_size=16, codec=ProgressiveJpegCodec())

    @pytest.fixture
    def scan_fallback(self, materialized_tiny):
        from repro.codec import ProgressiveJpegCodec

        return FakeScanFetcher(materialized_tiny, ProgressiveJpegCodec())

    def make_rung_fetcher(self, primary, pipeline, scan_fallback, scan_count=2):
        clock = FakeClock()
        return DegradedModeFetcher(
            primary,
            pipeline,
            breaker=CircuitBreaker(
                failure_threshold=2, recovery_time_s=1e9, clock=clock
            ),
            seed=0,
            clock=clock,
            scan_fallback=scan_fallback,
            degraded_scan_count=scan_count,
        )

    def test_raw_fetch_served_from_scan_prefix(
        self, rpc_client, prog_pipeline, scan_fallback
    ):
        from repro.codec import truncate_scans

        primary = FailingFetcher(rpc_client)
        primary.down = True
        fetcher = self.make_rung_fetcher(primary, prog_pipeline, scan_fallback)
        payload = fetcher.fetch(3, 0, 0)
        assert payload.data == truncate_scans(scan_fallback.streams[3], 2)
        assert scan_fallback.calls == [(3, 0, 2)]

    def test_demotion_records_the_scan_count(
        self, rpc_client, prog_pipeline, scan_fallback
    ):
        primary = FailingFetcher(rpc_client)
        primary.down = True
        fetcher = self.make_rung_fetcher(
            primary, prog_pipeline, scan_fallback, scan_count=3
        )
        payload = fetcher.fetch(1, 0, 2)
        # The offloaded prefix ran locally over the truncated stream.
        assert payload.data.shape == (16, 16, 3)
        assert fetcher.demotion_count == 1
        demotion = fetcher.last_outage.demotions[0]
        assert demotion.scan_count == 3
        assert demotion.planned_split == 2

    def test_without_rung_demotions_have_no_scan_count(
        self, rpc_client, pipeline, materialized_tiny
    ):
        primary = FailingFetcher(rpc_client)
        primary.down = True
        fetcher = make_fetcher(primary, pipeline, materialized_tiny)
        fetcher.fetch(0, 0, 2)
        assert fetcher.last_outage.demotions[0].scan_count is None

    def test_raw_reraise_still_applies_without_rung_or_fallback(
        self, prog_pipeline, materialized_tiny
    ):
        primary = FailingFetcher(None)
        primary.down = True
        fetcher = DegradedModeFetcher(primary, prog_pipeline, seed=0)
        with pytest.raises(ConnectionError):
            fetcher.fetch(0, 0, 0)

    def test_validation(self, rpc_client, prog_pipeline, scan_fallback):
        with pytest.raises(ValueError):
            DegradedModeFetcher(
                rpc_client,
                prog_pipeline,
                scan_fallback=scan_fallback,
                degraded_scan_count=0,
            )
        with pytest.raises(ValueError):
            DegradedModeFetcher(rpc_client, prog_pipeline, degraded_scan_count=2)
