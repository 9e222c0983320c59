"""Algorithm 2: best-reply dynamics for transaction selection.

"Pick a miner i who can improve her expected profit by selecting
transaction sigma_i" — we sweep miners round-robin; each miner performs
her best single swap (drop her worst-share transaction, adopt the best
available one) while counts update immediately. The Rosenthal potential
(see :mod:`repro.core.selection.congestion_game`) strictly increases on
every move, so the dynamics terminate in a pure Nash equilibrium; the
complexity matches the paper's O(u * T^2) bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.selection.congestion_game import (
    SelectionGameConfig,
    rosenthal_potential,
    selection_counts,
)
from repro.errors import SelectionError
from repro.observe import get_tracer


@dataclass(frozen=True)
class SelectionOutcome:
    """The result of one Algorithm 2 run."""

    fees: tuple[float, ...]
    profile: tuple[tuple[int, ...], ...]  # per miner: sorted tx indices
    rounds: int
    moves: int
    converged: bool

    @property
    def miner_count(self) -> int:
        return len(self.profile)

    def counts(self) -> np.ndarray:
        return selection_counts(len(self.fees), list(self.profile))

    def distinct_set_count(self) -> int:
        """Number of distinct selected sets — the Fig. 5(b) proxy for
        throughput improvement ("the number of transaction sets can
        represent the throughput improvement")."""
        return len({tuple(chosen) for chosen in self.profile})

    def distinct_transaction_count(self) -> int:
        """How many different transactions at least one miner selected."""
        return int(np.count_nonzero(self.counts()))

    def potential(self) -> float:
        return rosenthal_potential(np.asarray(self.fees), self.counts())


def greedy_profile(
    fees: np.ndarray | list[float], miners: int, capacity: int
) -> list[tuple[int, ...]]:
    """The Ethereum default (Sec. II-B): everyone takes the top fees.

    Ties break on index so that all miners produce the identical set —
    the duplicated-selection pathology the game removes.
    """
    fees = np.asarray(fees, dtype=np.float64)
    if miners < 0:
        raise SelectionError("miner count cannot be negative")
    order = np.lexsort((np.arange(len(fees)), -fees))
    top = tuple(sorted(int(j) for j in order[: min(capacity, len(fees))]))
    return [top for __ in range(miners)]


class BestReplyDynamics:
    """Algorithm 2 with round-robin sweeps and immediate count updates."""

    def __init__(
        self, config: SelectionGameConfig, seed: int | None = None
    ) -> None:
        self._config = config
        self._rng = np.random.default_rng(seed)

    @property
    def config(self) -> SelectionGameConfig:
        return self._config

    def run(
        self,
        fees: np.ndarray | list[float],
        miners: int,
        initial_profile: list[tuple[int, ...]] | None = None,
    ) -> SelectionOutcome:
        """Drive best replies to a pure Nash equilibrium.

        ``initial_profile`` is the unified "initial transaction set
        selected by each miner" (Algorithm 2's input); when omitted, each
        miner starts from a random set drawn from the shared RNG — which
        under parameter unification is the leader-seeded RNG, so every
        replay produces the identical run.
        """
        fees = np.asarray(fees, dtype=np.float64)
        if np.any(fees < 0):
            raise SelectionError("fees must be non-negative")
        tx_count = len(fees)
        if tx_count == 0:
            raise SelectionError("the selection game needs transactions")
        if miners <= 0:
            raise SelectionError("the selection game needs miners")
        capacity = min(self._config.capacity, tx_count)

        if initial_profile is None:
            profile = [
                sorted(
                    int(j)
                    for j in self._rng.choice(tx_count, size=capacity, replace=False)
                )
                for __ in range(miners)
            ]
        else:
            if len(initial_profile) != miners:
                raise SelectionError(
                    f"{len(initial_profile)} initial sets for {miners} miners"
                )
            profile = [sorted(set(chosen)) for chosen in initial_profile]
            for chosen in profile:
                if any(not 0 <= j < tx_count for j in chosen):
                    raise SelectionError("initial set references unknown transaction")
                if len(chosen) > capacity:
                    raise SelectionError("initial set exceeds capacity")

        counts = selection_counts(tx_count, [tuple(c) for c in profile])
        epsilon = self._config.tie_epsilon
        tracer = get_tracer()
        moves = 0
        rounds = 0
        converged = False
        while rounds < self._config.max_rounds:
            rounds += 1
            round_moves = 0
            for i in range(miners):
                if self._best_swap(fees, profile[i], counts, capacity, epsilon):
                    round_moves += 1
            moves += round_moves
            if tracer is not None and round_moves:
                # Per-iteration deviation counts: the shape of Algorithm
                # 2's convergence (fast early sweeps, a long quiet tail).
                tracer.event(
                    "selection.round",
                    phase="selection",
                    round=rounds,
                    deviations=round_moves,
                )
            if not round_moves:
                converged = True
                break
        if tracer is not None:
            tracer.event(
                "selection.converged",
                phase="selection",
                miners=miners,
                txs=tx_count,
                rounds=rounds,
                moves=moves,
                converged=converged,
            )

        return SelectionOutcome(
            fees=tuple(float(f) for f in fees),
            profile=tuple(tuple(chosen) for chosen in profile),
            rounds=rounds,
            moves=moves,
            converged=converged,
        )

    def _best_swap(
        self,
        fees: np.ndarray,
        chosen: list[int],
        counts: np.ndarray,
        capacity: int,
        epsilon: float,
    ) -> bool:
        """Perform miner ``i``'s best improving swap in place.

        Three move types keep the uniform-matroid structure: fill an empty
        slot, or drop the worst-share transaction for a better one.
        Returns True when a move was made.
        """
        # Candidate gains: share if this miner joined transaction k.
        join_share = fees / (counts + 1)
        chosen_mask = np.zeros(len(fees), dtype=bool)
        chosen_mask[chosen] = True
        join_share_masked = np.where(chosen_mask, -np.inf, join_share)
        best_k = int(np.argmax(join_share_masked))
        best_gain = join_share_masked[best_k]

        if len(chosen) < capacity:
            if best_gain > epsilon:
                chosen.append(best_k)
                chosen.sort()
                counts[best_k] += 1
                return True
            return False

        # Full set: consider swapping the worst current share for best_k.
        current_shares = fees[chosen] / counts[chosen]
        worst_pos = int(np.argmin(current_shares))
        worst_j = chosen[worst_pos]
        if best_gain > current_shares[worst_pos] + epsilon:
            counts[worst_j] -= 1
            counts[best_k] += 1
            chosen[worst_pos] = best_k
            chosen.sort()
            return True
        return False
