"""Detection reports: what an attack did and when the defense saw it.

Every scenario reduces its run to one :class:`DetectionReport` with a
fixed schema — the same fields for every attack, so sweeps, benchmarks
and CI gates can consume them uniformly — plus an ``extras`` mapping for
scenario-specific evidence (fork shares, p-values, probe lags).

The metrics are computed from the PR 5 lineage analytics
(:func:`repro.observe.build_lineages`) over the run's trace: reverted
transactions come from ``tx.reverted`` events, detection latency from
the first forensic event (``tx.reverted`` / ``block.rejected``), and
censorship from the gap between the workload and the honest nodes'
final confirmed union.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class DetectionReport:
    """One scenario run, reduced to its security outcome.

    ``safety_violated`` means permanent damage: a transaction was either
    double-confirmed or still suppressed at the end of the run.
    ``detected`` means some honest-side signal fired (a reverted
    confirmation, a rejected block, a composition alarm) —
    ``time_to_detect`` is the simulated time of the first such signal.
    """

    scenario: str
    seed: int
    safety_violated: bool
    detected: bool
    time_to_detect: float | None
    txs_reverted: int
    txs_censored: int
    blocks_rejected: int
    equivocations_detected: int
    fallbacks: int
    adversaries: int
    adversary_share: float
    victim_shard: int | None
    confirmed: int
    duration: float
    extras: tuple[tuple[str, object], ...] = ()

    def as_dict(self) -> dict:
        """Schema-stable dict: core fields in declaration order, extras
        sorted by key. The key set of the core block never varies with
        the seed — the determinism tests pin that."""
        payload = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name != "extras"
        }
        payload["extras"] = dict(sorted(self.extras))
        return payload

    def extra(self, key: str, default=None):
        for name, value in self.extras:
            if name == key:
                return value
        return default

    @staticmethod
    def core_keys() -> tuple[str, ...]:
        """The invariant schema the determinism tests assert."""
        return tuple(
            f.name for f in dataclasses.fields(DetectionReport)
            if f.name != "extras"
        )


def first_event_time(payloads, name: str) -> float | None:
    """Simulated time of the first trace event called ``name``."""
    for payload in payloads:
        if payload.get("name") == name:
            return payload.get("time")
    return None


def count_events(payloads, name: str) -> int:
    return sum(1 for payload in payloads if payload.get("name") == name)


def reverted_tx_indexes(lineages) -> list[int]:
    """Workload indexes of transactions reorged out of every canonical
    view at least once (sorted)."""
    return sorted(tx for tx, entry in lineages.items() if entry.reverted)
