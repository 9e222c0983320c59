"""Tiny invalidating memo tables for repeated deterministic lookups.

Shard formation asks the call graph the same questions over and over —
every transaction of a sender re-derives her Fig. 1 classification, and
every partition re-walks the same adjacency. Those answers only change
when the graph itself changes, so a :class:`MemoCache` keyed by sender
with explicit invalidation turns the O(degree) scans into dict hits.

Caches built with a ``name`` additionally register themselves in a
process-wide weak registry so the observability layer
(:mod:`repro.observe`) can report aggregate hit rates per cache site
without keeping dead caches alive.
"""

from __future__ import annotations

import weakref
from typing import Callable, Generic, Hashable, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

#: Every live *named* cache, for observability snapshots. Weak so the
#: registry never extends a cache's lifetime.
_NAMED_CACHES: "weakref.WeakSet[MemoCache]" = weakref.WeakSet()


class MemoCache(Generic[K, V]):
    """A bounded memo table with explicit invalidation and hit stats.

    Unlike ``functools.lru_cache`` this caches *stateful* lookups: the
    owner invalidates exactly the keys an update may have changed. The
    bound exists only as a memory backstop — when full, the cache is
    cleared wholesale (the workloads it serves re-warm in one pass).

    ``name`` opts the cache into the observability registry (see
    :func:`named_cache_stats`).
    """

    __slots__ = (
        "_data",
        "_max_entries",
        "hits",
        "misses",
        "name",
        "__weakref__",
    )

    def __init__(
        self,
        max_entries: int = 65_536,
        name: str | None = None,
    ) -> None:
        self._data: dict[K, V] = {}
        self._max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.name = name
        if name is not None:
            _NAMED_CACHES.add(self)

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: K, compute: Callable[[], V]) -> V:
        """The memoized value of ``compute`` under ``key``."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            if len(self._data) >= self._max_entries:
                self._data.clear()
            value = self._data[key] = compute()
            return value
        self.hits += 1
        return value

    def invalidate(self, key: K) -> None:
        """Drop one key (a no-op when absent)."""
        self._data.pop(key, None)

    def clear(self) -> None:
        self._data.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def named_cache_stats() -> dict[str, dict[str, float | int]]:
    """Aggregate hit/miss/entry counts of live named caches, per name.

    Multiple instances may share a name (e.g. one analysis cache per
    call graph); their stats sum, and ``instances`` says how many were
    live at snapshot time.
    """
    stats: dict[str, dict[str, float | int]] = {}
    for cache in _NAMED_CACHES:
        entry = stats.setdefault(
            cache.name,
            {"hits": 0, "misses": 0, "entries": 0, "instances": 0, "hit_rate": 0.0},
        )
        entry["hits"] += cache.hits
        entry["misses"] += cache.misses
        entry["entries"] += len(cache)
        entry["instances"] += 1
    for entry in stats.values():
        total = entry["hits"] + entry["misses"]
        entry["hit_rate"] = entry["hits"] / total if total else 0.0
    return stats
