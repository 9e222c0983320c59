"""Algorithms 1 and 3: one-time and iterative inter-shard merging.

Algorithm 3 runs discretized replicator dynamics (Eq. 11) with per-slot
Monte-Carlo payoff estimation over ``M`` subslots (Eq. 12/13/14) until the
mixed strategies stop moving — the mixed-strategy equilibrium of Sec. V.
Algorithm 1 then applies it iteratively: each round the remaining small
shards play one game, the merging players form one new shard, and the
leftovers carry to the next round until no viable new shard can form.

The inner loop is vectorized with numpy (subslot samples are a Bernoulli
matrix), which keeps the Sec. VI-E large-scale simulation (up to 1000
small shards) tractable while remaining bit-reproducible under a seed —
the property parameter unification depends on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.merging.game import MergingGameConfig, ShardPlayer, constraint_satisfied
from repro.errors import MergingError
from repro.observe import get_tracer


@dataclass(frozen=True)
class MergeOutcome:
    """The result of one Algorithm 3 run."""

    players: tuple[ShardPlayer, ...]
    probabilities: tuple[float, ...]
    merged_shards: tuple[int, ...]  # shard ids that joined the new shard
    merged_size: int
    satisfied: bool
    slots_used: int
    converged: bool


class OneTimeMerge:
    """Algorithm 3: drive one group of small shards to a stable merge."""

    def __init__(self, config: MergingGameConfig, seed: int | None = None) -> None:
        self._config = config
        self._rng = np.random.default_rng(seed)

    @property
    def config(self) -> MergingGameConfig:
        return self._config

    def run(
        self,
        players: list[ShardPlayer],
        initial_probabilities: list[float] | None = None,
    ) -> MergeOutcome:
        """Converge the replicator dynamics and realize the merge decision.

        ``initial_probabilities`` are "the others' random initial choice"
        the verifiable leader unifies (Sec. IV-C); when omitted every
        player starts at 0.5.
        """
        if not players:
            raise MergingError("Algorithm 3 needs at least one player")
        cfg = self._config
        n = len(players)
        sizes = np.array([p.size for p in players], dtype=np.int64)
        costs = np.array([p.cost for p in players], dtype=np.float64)
        if np.any(costs >= cfg.shard_reward):
            raise MergingError(
                "every merging cost C_i must be below the shard reward G, "
                "otherwise merging can never be rational"
            )

        if initial_probabilities is None:
            x = np.full(n, 0.5, dtype=np.float64)
        else:
            if len(initial_probabilities) != n:
                raise MergingError(
                    f"{len(initial_probabilities)} initial probabilities "
                    f"for {n} players"
                )
            x = np.clip(
                np.asarray(initial_probabilities, dtype=np.float64),
                cfg.probability_floor,
                1.0 - cfg.probability_floor,
            )

        merge_estimate = np.zeros(n, dtype=np.float64)
        slots_used = 0
        converged = False
        for __ in range(cfg.max_slots):
            slots_used += 1
            # One slot: M subslot realizations of everyone's mixed strategy.
            tosses = self._rng.random((cfg.subslots, n)) < x  # True = MERGE
            merged_sizes = tosses @ sizes
            satisfied = merged_sizes >= cfg.lower_bound

            # Eq. (14) vectorized: stayers earn G*sat, mergers G*sat - C_i.
            payoff = satisfied[:, None] * cfg.shard_reward - tosses * costs

            merge_counts = tosses.sum(axis=0)
            with np.errstate(invalid="ignore"):
                merge_mean = np.where(
                    merge_counts > 0,
                    (payoff * tosses).sum(axis=0) / np.maximum(merge_counts, 1),
                    merge_estimate,  # Eq. (12) fallback: keep prior estimate
                )
            merge_estimate = merge_mean
            average = payoff.mean(axis=0)  # Eq. (13)

            # Eq. (11) with the exploration clamp.
            new_x = x + cfg.step_size * (merge_estimate - average) * x
            new_x = np.clip(new_x, cfg.probability_floor, 1.0 - cfg.probability_floor)

            if np.max(np.abs(new_x - x)) < cfg.tolerance:
                x = new_x
                converged = True
                break
            x = new_x

        decision = self._realize_decision(x, sizes)
        merged_ids = tuple(
            players[i].shard_id for i in range(n) if decision[i]
        )
        merged_size = int(sizes[decision].sum())
        tracer = get_tracer()
        if tracer is not None:
            tracer.event(
                "merge.converge",
                phase="merging",
                players=n,
                slots=slots_used,
                converged=converged,
                merged=len(merged_ids),
                merged_size=merged_size,
                satisfied=constraint_satisfied(merged_size, cfg.lower_bound),
            )
        return MergeOutcome(
            players=tuple(players),
            probabilities=tuple(float(v) for v in x),
            merged_shards=merged_ids,
            merged_size=merged_size,
            satisfied=constraint_satisfied(merged_size, cfg.lower_bound),
            slots_used=slots_used,
            converged=converged,
        )

    def _realize_decision(self, x: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Turn converged mixed strategies into one stable pure outcome.

        Players commit to MERGE when their converged probability favors it
        (x > 0.5). If the committed set misses the lower bound while the
        whole group could reach it, the realization is repaired by
        repeated draws from the mixed profile — "repeating increases the
        success probability" (Sec. VI-E) — and finally by admitting the
        highest-probability holdouts, which is the deterministic tail of
        the same argument.
        """
        cfg = self._config
        decision = x > 0.5
        if constraint_satisfied(int(sizes[decision].sum()), cfg.lower_bound):
            return decision
        if int(sizes.sum()) < cfg.lower_bound:
            return decision  # nothing can satisfy (1); report honestly

        for __ in range(cfg.subslots):
            draw = self._rng.random(len(x)) < x
            if constraint_satisfied(int(sizes[draw].sum()), cfg.lower_bound):
                return draw

        order = np.argsort(-x)
        repaired = np.zeros(len(x), dtype=bool)
        for index in order:
            repaired[index] = True
            if constraint_satisfied(int(sizes[repaired].sum()), cfg.lower_bound):
                break
        return repaired


@dataclass(frozen=True)
class IterativeMergingResult:
    """The result of Algorithm 1: all new shards plus the leftovers."""

    new_shards: tuple[MergeOutcome, ...]
    leftover_players: tuple[ShardPlayer, ...]
    rounds: int

    @property
    def new_shard_count(self) -> int:
        """The Fig. 3(g) / Fig. 5(a) metric."""
        return sum(1 for outcome in self.new_shards if outcome.satisfied)

    def new_shard_sizes(self) -> list[int]:
        return [outcome.merged_size for outcome in self.new_shards]


class IterativeMerging:
    """Algorithm 1: iterate Algorithm 3 until no viable shard remains."""

    def __init__(self, config: MergingGameConfig, seed: int | None = None) -> None:
        self._config = config
        self._seed = seed

    def run(self, players: list[ShardPlayer]) -> IterativeMergingResult:
        """Merge rounds of small shards until the leftovers cannot reach L."""
        remaining = list(players)
        outcomes: list[MergeOutcome] = []
        rounds = 0
        tracer = get_tracer()
        while self._can_form_new_shard(remaining):
            rounds += 1
            seed = None if self._seed is None else self._seed + rounds
            game = OneTimeMerge(self._config, seed=seed)
            outcome = game.run(remaining)
            if tracer is not None:
                tracer.event(
                    "merge.round",
                    phase="merging",
                    round=rounds,
                    remaining=len(remaining),
                    merged=len(outcome.merged_shards),
                    satisfied=outcome.satisfied,
                )
            if not outcome.satisfied or not outcome.merged_shards:
                # The group could not stabilize a viable shard; stop rather
                # than loop forever on the same population.
                break
            outcomes.append(outcome)
            merged = set(outcome.merged_shards)
            remaining = [p for p in remaining if p.shard_id not in merged]
        if tracer is not None:
            tracer.event(
                "merge.result",
                phase="merging",
                rounds=rounds,
                new_shards=sum(1 for o in outcomes if o.satisfied),
                leftovers=len(remaining),
            )
        return IterativeMergingResult(
            new_shards=tuple(outcomes),
            leftover_players=tuple(remaining),
            rounds=rounds,
        )

    def _can_form_new_shard(self, remaining: list[ShardPlayer]) -> bool:
        """Algorithm 1's loop guard: can the leftovers still satisfy (1)?"""
        if len(remaining) < 2:
            return False
        total = sum(p.size for p in remaining)
        return total >= self._config.lower_bound
