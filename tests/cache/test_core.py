"""ByteCache tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.core import ByteCache


class TestByteCache:
    def test_put_get(self):
        cache = ByteCache(100)
        cache.put("a", "va", 10)
        assert cache.get("a") == "va"
        assert cache.stats.hits == 1

    def test_miss_counts_size_hint(self):
        cache = ByteCache(100)
        assert cache.get("a", size_hint=42) is None
        assert cache.stats.misses == 1
        assert cache.stats.bytes_missed == 42

    def test_eviction_respects_budget(self):
        cache = ByteCache(25)
        cache.put("a", 1, 10)
        cache.put("b", 2, 10)
        cache.put("c", 3, 10)  # must evict one
        assert cache.used_bytes <= 25
        assert len(cache) == 2
        assert cache.stats.evictions == 1

    def test_oversized_value_not_admitted(self):
        cache = ByteCache(10)
        assert not cache.put("big", 1, 11)
        assert len(cache) == 0

    def test_reinsert_updates_size(self):
        cache = ByteCache(100)
        cache.put("a", 1, 10)
        cache.put("a", 2, 30)
        assert cache.used_bytes == 30
        assert cache.get("a") == 2

    def test_invalidate(self):
        cache = ByteCache(100)
        cache.put("a", 1, 10)
        cache.invalidate("a")
        assert "a" not in cache
        assert cache.used_bytes == 0
        cache.invalidate("ghost")  # no-op

    def test_hit_ratio(self):
        cache = ByteCache(100)
        cache.put("a", 1, 1)
        cache.get("a")
        cache.get("b")
        assert cache.stats.hit_ratio == pytest.approx(0.5)

    def test_zero_capacity(self):
        cache = ByteCache(0)
        assert not cache.put("a", 1, 1)
        assert cache.put("empty", 1, 0)  # zero-size values always fit

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            ByteCache(-1)
        with pytest.raises(ValueError):
            ByteCache(10).put("a", 1, -1)

    @given(
        capacity=st.integers(0, 200),
        ops=st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 40)), max_size=60
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_budget_invariant(self, capacity, ops):
        cache = ByteCache(capacity)
        for key, size in ops:
            cache.put(key, key, size)
            assert cache.used_bytes <= capacity
            assert cache.used_bytes == sum(cache._sizes.values())


class TestEvictionPolicies:
    def test_lru_evicts_least_recent(self):
        cache = ByteCache(30)
        for key in ("a", "b", "c"):
            cache.put(key, key, 10)
        cache.get("a")  # refresh a
        cache.put("d", "d", 10)  # evicts b
        assert "a" in cache and "b" not in cache
