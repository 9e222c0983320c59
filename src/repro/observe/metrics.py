"""Exact-sample histograms.

The run report's metrics fold (:mod:`repro.observe.report`) and the
lineage latency fold (:mod:`repro.observe.analysis`) summarize their
samples here. Samples are deterministic simulation quantities (block
fill, rounds to convergence, sim-time latencies), so two same-seed runs
summarize identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import ConfigError


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

