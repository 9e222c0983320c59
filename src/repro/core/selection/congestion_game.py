"""The transaction-selection congestion game's primitives (Sec. IV-B).

Strategies: each of the ``u`` miners selects a set of up to ``capacity``
distinct transactions out of ``T`` (the paper's Eq. 2 is stated for one
transaction; block capacity generalizes the strategy space to uniform-
matroid sets, which keeps the finite-improvement property [Ackermann et
al., cited as (33)]).

Payoff: a miner on transaction ``j`` expects

    U_ij = f_j / (n_j + 1)                               (Eq. 2)

where ``n_j`` is the number of *other* miners on ``j`` — when she is
alone she expects the full fee, matching the paper's motivating example.
Equivalently the fee is split evenly among the ``m_j`` miners competing
for ``j``. The game therefore admits the Rosenthal potential

    Phi = sum_j f_j * H(m_j),   H(m) = 1 + 1/2 + ... + 1/m,

which strictly increases on every improving move — the convergence
argument behind Algorithm 2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.errors import SelectionError


@dataclass(frozen=True)
class SelectionGameConfig:
    """Parameters of one selection game instance.

    Parameters
    ----------
    capacity:
        Transactions per miner set (block capacity; 1 recovers the
        paper's singleton formulation).
    max_rounds:
        Upper bound on full best-reply sweeps (safety guard; the
        potential argument guarantees finite convergence anyway).
    tie_epsilon:
        Minimum strict improvement for a move, so floating-point noise
        cannot cycle the dynamics.
    """

    capacity: int = 1
    max_rounds: int = 10_000
    tie_epsilon: float = 1e-12

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise SelectionError("capacity must be positive")
        if self.max_rounds <= 0:
            raise SelectionError("max_rounds must be positive")


def payoff(fee: float, competitors: int) -> float:
    """Eq. (2): expected payoff with ``competitors`` other miners on j."""
    if competitors < 0:
        raise SelectionError("competitor count cannot be negative")
    return fee / (competitors + 1)


def rosenthal_potential(fees: np.ndarray, counts: np.ndarray) -> float:
    """The exact potential ``sum_j f_j * H(m_j)`` of a profile."""
    if len(fees) != len(counts):
        raise SelectionError("fees and counts must align")
    total = 0.0
    for fee, count in zip(fees, counts):
        if count > 0:
            total += fee * float(np.sum(1.0 / np.arange(1, count + 1)))
    return total


def profile_utilities(
    fees: np.ndarray, profile: list[tuple[int, ...]]
) -> list[float]:
    """Each miner's total expected payoff under a set profile.

    Vectorized: one per-transaction share table, one gather over the
    concatenated selections, and a segmented sum — O(total selections)
    instead of a Python-level division per (miner, transaction) pair.
    """
    fees = np.asarray(fees, dtype=np.float64)
    lengths = np.fromiter(
        (len(chosen) for chosen in profile), dtype=np.int64, count=len(profile)
    )
    total = int(lengths.sum())
    if len(profile) == 0 or total == 0:
        return [0.0] * len(profile)
    flat = np.fromiter(
        itertools.chain.from_iterable(profile), dtype=np.int64, count=total
    )
    counts = np.zeros(len(fees), dtype=np.int64)
    np.add.at(counts, flat, 1)
    # Every selected transaction has count >= 1, so masking the empty
    # slots avoids the division warning without changing any share.
    shares = np.divide(
        fees, counts, out=np.zeros_like(fees), where=counts > 0
    )
    gathered = np.append(shares[flat], 0.0)  # sentinel for empty tails
    starts = np.zeros(len(profile), dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    totals = np.add.reduceat(gathered, starts)
    totals[lengths == 0] = 0.0
    return [float(total) for total in totals]


def selection_counts(tx_count: int, profile: list[tuple[int, ...]]) -> np.ndarray:
    """How many miners selected each transaction (``m_j``, self included)."""
    counts = np.zeros(tx_count, dtype=np.int64)
    total = sum(len(chosen) for chosen in profile)
    if total:
        flat = np.fromiter(
            itertools.chain.from_iterable(profile), dtype=np.int64, count=total
        )
        # np.add.at keeps the scalar loop's indexing semantics exactly
        # (negative wrap, IndexError out of range) at C speed.
        np.add.at(counts, flat, 1)
    return counts


def is_selection_nash(
    fees: np.ndarray,
    profile: list[tuple[int, ...]],
    *,
    epsilon: float = 1e-9,
) -> bool:
    """Whether no miner can gain by swapping one transaction in her set.

    This is the single-swap Nash condition matching the dynamics' move
    set; for uniform-matroid strategy spaces it implies full set-deviation
    stability.
    """
    counts = selection_counts(len(fees), profile)
    for chosen in profile:
        chosen_set = set(chosen)
        for j in chosen:
            current_share = fees[j] / counts[j]
            for k in range(len(fees)):
                if k in chosen_set:
                    continue
                candidate_share = fees[k] / (counts[k] + 1)
                if candidate_share > current_share + epsilon:
                    return False
    return True
