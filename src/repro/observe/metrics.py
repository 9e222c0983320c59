"""Counters, gauges and histograms for simulation-level metrics.

The registry is deliberately tiny: metrics here are *deterministic
aggregates* of simulation behavior (blocks mined, rounds to
convergence, cache hits), so two same-seed runs produce identical
snapshots. Wall-clock quantities never enter a metric — they belong in
the wall sidecar of a trace record (see :mod:`repro.observe.tracer`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import ConfigError


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ConfigError(f"counter {self.name}: cannot decrease by {amount}")
        self.value += amount


@dataclass
class Gauge:
    """A last-write-wins level."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


@dataclass
class Histogram:
    """All observed samples, summarized on demand.

    Simulations here observe at most a few thousand values per run, so
    the histogram keeps the raw samples — exact quantiles beat bucket
    boundaries chosen in advance.
    """

    name: str
    samples: list[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        self.samples.append(float(value))

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    @property
    def mean(self) -> float:
        return self.total / len(self.samples) if self.samples else 0.0

    @property
    def minimum(self) -> float:
        return min(self.samples) if self.samples else 0.0

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else 0.0

    def percentile(self, p: float) -> float:
        """One nearest-rank percentile (see :meth:`percentiles`)."""
        return self.percentiles((p,))[p]

    def percentiles(self, ps: Iterable[float]) -> dict[float, float]:
        """Exact nearest-rank percentiles from a single sort.

        Each ``p`` is in [0, 100]. A result is always one of the observed
        samples (the smallest value with at least ``p``% of samples at
        or below it), so it is deterministic, exact under ties, and the
        single-sample histogram returns that sample for every ``p``.
        An empty histogram returns 0.0.
        """
        points = list(ps)
        for p in points:
            if not 0.0 <= p <= 100.0:
                raise ConfigError(f"percentile must be in [0, 100]: got {p}")
        if not self.samples:
            return {p: 0.0 for p in points}
        ordered = sorted(self.samples)
        n = len(ordered)  # rank ceil(p% of n); p = 0 is the smallest sample
        return {p: ordered[max(math.ceil(p / 100.0 * n), 1) - 1] for p in points}

    def summary(self) -> dict[str, float]:
        pct = self.percentiles((50.0, 95.0, 99.0))
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": pct[50.0],
            "p95": pct[95.0],
            "p99": pct[99.0],
        }


class MetricsRegistry:
    """Get-or-create store of named counters/gauges/histograms.

    A name is bound to one metric type for the registry's lifetime;
    asking for it as a different type raises, which catches the silent
    shadowing a plain dict would allow.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _check_unbound(self, name: str, want: str) -> None:
        kinds = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for kind, table in kinds.items():
            if kind != want and name in table:
                raise ConfigError(
                    f"metric {name!r} already registered as a {kind}"
                )

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._check_unbound(name, "counter")
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._check_unbound(name, "gauge")
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._check_unbound(name, "histogram")
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def snapshot(self) -> dict[str, object]:
        """A deterministic, JSON-ready dump of every metric."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.summary() for name, h in sorted(self._histograms.items())
            },
        }
