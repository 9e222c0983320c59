"""Weighted transaction selection: hash-power-heterogeneous miners.

The paper's Eq. (2) assumes equal miners: the expected fee share of
transaction ``j`` splits evenly among its ``n_j + 1`` contenders. With
heterogeneous hash power the winner of the block race is the contender
with proportionally higher power, so miner ``i``'s expected share of
``f_j`` is her power fraction among the contenders:

    U_ij = f_j * w_i / (w_i + sum of contenders' weights)

This is a *player-specific* (weighted singleton) congestion game — the
setting of Milchtaich [21], which the paper cites: best-reply sequences
still terminate in a pure Nash equilibrium for singleton strategies
(finite improvement property for weighted singleton games with shares
monotonically decreasing in added weight).

Implemented as an extension beyond the paper's evaluated model; see
DESIGN.md Sec. 6 and the ``bench_ablation_weighted`` benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SelectionError


@dataclass(frozen=True)
class WeightedSelectionOutcome:
    """The result of weighted best-reply dynamics (singleton strategies)."""

    fees: tuple[float, ...]
    weights: tuple[float, ...]
    choices: tuple[int, ...]  # choices[i] = tx index miner i holds
    rounds: int
    moves: int
    converged: bool

    def distinct_transaction_count(self) -> int:
        return len(set(self.choices))


def weighted_share(fee: float, own_weight: float, load_with_self: float) -> float:
    """Expected fee share for a contender under the block-race model."""
    if own_weight <= 0 or load_with_self < own_weight:
        raise SelectionError("weights must be positive and load consistent")
    return fee * own_weight / load_with_self


class WeightedBestReply:
    """Best-reply dynamics for the weighted singleton selection game."""

    def __init__(self, max_rounds: int = 10_000, tie_epsilon: float = 1e-12) -> None:
        if max_rounds <= 0:
            raise SelectionError("max_rounds must be positive")
        self._max_rounds = max_rounds
        self._epsilon = tie_epsilon

    def run(
        self,
        fees: list[float] | np.ndarray,
        weights: list[float] | np.ndarray,
        initial_choices: list[int] | None = None,
    ) -> WeightedSelectionOutcome:
        """Drive weighted best replies to a pure Nash equilibrium."""
        fees = np.asarray(fees, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if len(fees) == 0:
            raise SelectionError("the game needs transactions")
        if len(weights) == 0:
            raise SelectionError("the game needs miners")
        if np.any(fees < 0) or np.any(weights <= 0):
            raise SelectionError("fees must be >= 0 and weights > 0")

        miners = len(weights)
        if initial_choices is None:
            choices = [i % len(fees) for i in range(miners)]
        else:
            if len(initial_choices) != miners:
                raise SelectionError("initial choices must cover every miner")
            if any(not 0 <= j < len(fees) for j in initial_choices):
                raise SelectionError("initial choice references unknown transaction")
            choices = list(initial_choices)

        load = np.zeros(len(fees))
        for i, j in enumerate(choices):
            load[j] += weights[i]

        moves = 0
        rounds = 0
        converged = False
        while rounds < self._max_rounds:
            rounds += 1
            improved = False
            for i in range(miners):
                current = choices[i]
                w = weights[i]
                stay_share = fees[current] * w / load[current]
                # Share if i moved to each alternative transaction.
                move_share = fees * w / (load + w)
                move_share[current] = -np.inf
                best = int(np.argmax(move_share))
                if move_share[best] > stay_share + self._epsilon:
                    load[current] -= w
                    load[best] += w
                    choices[i] = best
                    moves += 1
                    improved = True
            if not improved:
                converged = True
                break

        return WeightedSelectionOutcome(
            fees=tuple(float(f) for f in fees),
            weights=tuple(float(w) for w in weights),
            choices=tuple(choices),
            rounds=rounds,
            moves=moves,
            converged=converged,
        )


def is_weighted_nash(
    outcome: WeightedSelectionOutcome, epsilon: float = 1e-9
) -> bool:
    """No miner can raise her expected share by switching transactions."""
    fees = np.asarray(outcome.fees)
    weights = np.asarray(outcome.weights)
    load = np.zeros(len(fees))
    for i, j in enumerate(outcome.choices):
        load[j] += weights[i]
    for i, current in enumerate(outcome.choices):
        w = weights[i]
        stay = fees[current] * w / load[current]
        for k in range(len(fees)):
            if k == current:
                continue
            if fees[k] * w / (load[k] + w) > stay + epsilon:
                return False
    return True
