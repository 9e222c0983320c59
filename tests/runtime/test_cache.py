"""Tests for repro.runtime.cache."""

from repro.runtime.cache import MemoCache


class TestMemoCache:
    def test_memoizes_and_counts(self):
        cache = MemoCache()
        calls = []
        compute = lambda: calls.append(1) or len(calls)  # noqa: E731
        assert cache.get("k", compute) == 1
        assert cache.get("k", compute) == 1
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_invalidate_forces_recompute(self):
        cache = MemoCache()
        values = iter([1, 2])
        assert cache.get("k", lambda: next(values)) == 1
        cache.invalidate("k")
        assert cache.get("k", lambda: next(values)) == 2

    def test_invalidate_absent_key_is_noop(self):
        MemoCache().invalidate("missing")

    def test_clear_empties(self):
        cache = MemoCache()
        cache.get("k", lambda: 1)
        cache.clear()
        assert len(cache) == 0

    def test_bound_clears_wholesale(self):
        cache = MemoCache(max_entries=2)
        for key in ("a", "b", "c"):
            cache.get(key, lambda: key)
        assert len(cache) == 1  # a+b evicted when c arrived


class TestNamedCacheStats:
    def test_named_caches_aggregate_by_name(self):
        from repro.runtime.cache import named_cache_stats

        a = MemoCache(name="test.stats.alpha")
        b = MemoCache(name="test.stats.alpha")
        a.get("k", lambda: 1)
        a.get("k", lambda: 1)
        b.get("k", lambda: 2)
        stats = named_cache_stats()["test.stats.alpha"]
        assert stats["instances"] == 2
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        assert stats["entries"] == 2
        assert stats["hit_rate"] == 1 / 3

    def test_anonymous_caches_are_not_tracked(self):
        from repro.runtime.cache import named_cache_stats

        MemoCache().get("k", lambda: 1)
        assert None not in named_cache_stats()
