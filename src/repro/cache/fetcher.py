"""Loader-compatible fetcher with a raw-sample cache.

Only raw (split 0) payloads are cached: a raw sample is immutable, while
any partially preprocessed payload embeds that epoch's random
augmentations -- reusing it across epochs is exactly the accuracy hazard
the paper's section 3.3 warns about, so this fetcher refuses to cache it.
"""

from typing import Optional

from repro.cache.core import ByteCache
from repro.preprocessing.payload import Payload, SupportsFetch
from repro.telemetry.registry import get_default_registry
from repro.telemetry.spans import Tracer, trace_id


class CachingFetcher:
    """Wraps another fetcher; serves raw hits from the local cache."""

    def __init__(
        self,
        inner: SupportsFetch,
        cache: ByteCache,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.inner = inner
        self.cache = cache
        self.tracer = tracer
        # Resolved once per fetcher lifetime: fetch() is the hot path, and
        # a registry lookup per call is pure overhead.
        self._requests = get_default_registry().counter(
            "cache_requests_total",
            "fetches through CachingFetcher by result",
            labels=["result"],
        )

    def fetch(self, sample_id: int, epoch: int, split: int) -> Payload:
        requests = self._requests
        if split != 0:
            # Partially preprocessed payloads are epoch-specific: always
            # fetch, never cache.
            requests.inc(result="bypass")
            return self.inner.fetch(sample_id, epoch, split)
        cached = self.cache.get(sample_id)
        if cached is not None:
            requests.inc(result="hit")
            if self.tracer is not None:
                self.tracer.instant(trace_id(sample_id, epoch), "cache.hit")
            return cached
        requests.inc(result="miss")
        if self.tracer is not None:
            self.tracer.instant(trace_id(sample_id, epoch), "cache.miss")
        payload = self.inner.fetch(sample_id, epoch, split)
        self.cache.put(sample_id, payload, payload.nbytes)
        return payload
