"""Compute-side sample caching (the related-work alternative, paper §1).

The paper positions SOPHON against approaches that "selectively cache data
in local storage or memory", noting they are "limited by the capacities of
local storage and memory".  This package implements that alternative so the
comparison can actually be run:

- :class:`ByteCache`, an LRU cache over a byte budget;
- :class:`CachingFetcher` -- a loader-compatible fetcher that caches *raw*
  samples only (caching augmented payloads would freeze the random
  augmentations, the accuracy hazard of section 3.3);
- :func:`epoch_traffic_with_cache` -- epoch-by-epoch traffic of a cached
  training run, with or without a SOPHON offload plan layered on top.
"""

from repro.cache.core import ByteCache, CacheStats
from repro.cache.fetcher import CachingFetcher
from repro.cache.baseline import (
    epoch_traffic_with_cache,
    epoch_traffic_with_pinned_cache,
)

__all__ = [
    "ByteCache",
    "CacheStats",
    "CachingFetcher",
    "epoch_traffic_with_cache",
    "epoch_traffic_with_pinned_cache",
]
