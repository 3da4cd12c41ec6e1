"""Byte-budgeted LRU cache."""

import collections
import dataclasses
from typing import Any, Dict, Hashable, Optional


@dataclasses.dataclass
class CacheStats:
    """Hit/miss accounting in both lookups and bytes."""

    hits: int = 0
    misses: int = 0
    bytes_hit: int = 0
    bytes_missed: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class ByteCache:
    """Maps keys to values under a total byte budget, evicting LRU-first.

    Values carry an explicit size; inserting evicts the least recently used
    keys until the new value fits.  A value larger than the whole budget is
    simply not admitted (counted as an eviction-less miss on later lookups).
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError(f"capacity_bytes must be >= 0, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        # Least recently used first: a hit moves its key to the end.
        self._values: "collections.OrderedDict[Hashable, Any]" = collections.OrderedDict()
        self._sizes: Dict[Hashable, int] = {}
        self._used = 0
        self.stats = CacheStats()

    def __contains__(self, key: Hashable) -> bool:
        return key in self._values

    def __len__(self) -> int:
        return len(self._values)

    @property
    def used_bytes(self) -> int:
        return self._used

    def get(self, key: Hashable, size_hint: int = 0) -> Optional[Any]:
        """Look up a key; records a hit or a miss (of ``size_hint`` bytes)."""
        if key in self._values:
            self.stats.hits += 1
            self.stats.bytes_hit += self._sizes[key]
            self._values.move_to_end(key)
            return self._values[key]
        self.stats.misses += 1
        self.stats.bytes_missed += size_hint
        return None

    def put(self, key: Hashable, value: Any, size: int) -> bool:
        """Insert a value of ``size`` bytes; returns False if not admitted."""
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        if key in self._values:
            self._remove(key)
        if size > self.capacity_bytes:
            return False
        while self._used + size > self.capacity_bytes:
            self._evict_one()
        self._values[key] = value
        self._sizes[key] = size
        self._used += size
        return True

    def invalidate(self, key: Hashable) -> None:
        if key in self._values:
            self._remove(key)

    def _remove(self, key: Hashable) -> None:
        self._used -= self._sizes.pop(key)
        del self._values[key]

    def _evict_one(self) -> None:
        self.stats.evictions += 1
        self._remove(next(iter(self._values)))
