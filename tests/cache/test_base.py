"""Unit tests for the cache container."""

import pytest

from repro.cache.base import Cache
from repro.cache.lru import LruPolicy


def lru_cache(capacity=3):
    return Cache(capacity, LruPolicy())


class TestCache:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            Cache(-1, LruPolicy())

    def test_miss_then_insert_then_hit(self):
        cache = lru_cache()
        assert not cache.access(1)
        assert cache.insert(1) is None
        assert cache.access(1)

    def test_len_and_contains(self):
        cache = lru_cache()
        cache.insert(1)
        cache.insert(2)
        assert len(cache) == 2
        assert 1 in cache and 2 in cache and 3 not in cache

    def test_eviction_at_capacity(self):
        cache = lru_cache(capacity=2)
        cache.insert(1)
        cache.insert(2)
        evicted = cache.insert(3)
        assert evicted == 1  # LRU
        assert len(cache) == 2
        assert 1 not in cache

    def test_insert_resident_page_is_hit_not_duplicate(self):
        cache = lru_cache(capacity=2)
        cache.insert(1)
        assert cache.insert(1) is None
        assert len(cache) == 1

    def test_zero_capacity_drops_inserts(self):
        cache = lru_cache(capacity=0)
        assert cache.insert(1) is None
        assert len(cache) == 0
        assert not cache.access(1)
        assert cache.is_full  # trivially full

    def test_is_full(self):
        cache = lru_cache(capacity=2)
        assert not cache.is_full
        cache.insert(1)
        cache.insert(2)
        assert cache.is_full

    def test_pages_snapshot(self):
        cache = lru_cache()
        cache.insert(1)
        cache.insert(2)
        snapshot = cache.pages
        cache.insert(3)
        assert snapshot == frozenset({1, 2})

    def test_warm_fraction(self):
        cache = lru_cache(capacity=4)
        cache.insert(1)
        cache.insert(2)
        cache.insert(9)
        # Half of {1, 2, 3, 4} is resident: the warm fraction of a target.
        assert cache.pages & {1, 2, 3, 4} == {1, 2}
