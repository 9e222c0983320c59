"""Differential tests: optimized kernels vs. straightforward oracles.

The oracles live here rather than in ``src/``: each is the textbook
form of a kernel the library ships only in its optimized form.
"""

import random

import numpy as np
import pytest

from repro.chain.callgraph import CallGraph
from repro.core.merging.equilibrium import best_pure_deviation, expected_payoffs
from repro.core.merging.game import MergingGameConfig, ShardPlayer
from repro.core.selection.best_reply import BestReplyDynamics
from repro.core.selection.congestion_game import (
    SelectionGameConfig,
    profile_utilities,
    selection_counts,
)
from repro.workloads.generators import WorkloadBuilder
from tests.chain.history import TransactionHistory


def best_pure_deviation_reference(
    players: list[ShardPlayer],
    profile: list[bool],
    config: MergingGameConfig,
) -> tuple[int, float] | None:
    """The O(n^2) textbook scan: one full payoff table per candidate flip.

    Must return exactly what :func:`best_pure_deviation` returns.
    """
    best: tuple[int, float] | None = None
    for i in range(len(players)):
        current = expected_payoffs(players, profile, config)[i]
        flipped = list(profile)
        flipped[i] = not flipped[i]
        deviated = expected_payoffs(players, flipped, config)[i]
        gain = deviated - current
        if gain > 1e-12 and (best is None or gain > best[1]):
            best = (i, gain)
    return best


def profile_utilities_reference(
    fees: np.ndarray, profile: list[tuple[int, ...]]
) -> list[float]:
    """The scalar-loop oracle for :func:`profile_utilities`.

    Must agree with the vectorized version to float64 round-off.
    """
    counts = selection_counts(len(fees), profile)
    utilities = []
    for chosen in profile:
        utilities.append(
            float(sum(fees[j] / counts[j] for j in chosen))
        )
    return utilities


def _random_game(rng: random.Random, n: int):
    players = [
        ShardPlayer(i, rng.randint(1, 9), rng.choice([1.0, 2.0, 5.0]))
        for i in range(1, n + 1)
    ]
    config = MergingGameConfig(
        shard_reward=10.0,
        lower_bound=rng.randint(1, max(2, n * 5)),
        subslots=16,
        max_slots=50,
    )
    return players, config


class TestBestPureDeviation:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_on_random_profiles(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 40)
        players, config = _random_game(rng, n)
        for __ in range(20):
            profile = [rng.random() < 0.5 for __ in range(n)]
            assert best_pure_deviation(
                players, profile, config
            ) == best_pure_deviation_reference(players, profile, config)

    def test_matches_reference_on_degenerate_profiles(self):
        rng = random.Random(99)
        for n in (1, 2, 5):
            players, config = _random_game(rng, n)
            for profile in ([False] * n, [True] * n):
                assert best_pure_deviation(
                    players, profile, config
                ) == best_pure_deviation_reference(players, profile, config)


class TestProfileUtilities:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_on_random_profiles(self, seed):
        rng = random.Random(seed)
        tx_count = rng.randint(1, 60)
        miners = rng.randint(1, 12)
        fees = np.asarray(
            [rng.uniform(0.1, 100.0) for __ in range(tx_count)]
        )
        profile = [
            tuple(
                sorted(
                    rng.sample(range(tx_count), rng.randint(0, min(5, tx_count)))
                )
            )
            for __ in range(miners)
        ]
        vectorized = profile_utilities(fees, profile)
        reference = profile_utilities_reference(fees, profile)
        assert np.allclose(vectorized, reference, rtol=0, atol=1e-9)
        naive = np.zeros(tx_count, dtype=np.int64)
        for chosen in profile:
            for j in chosen:
                naive[j] += 1
        assert (selection_counts(tx_count, profile) == naive).all()

    def test_empty_cases(self):
        fees = np.asarray([1.0, 2.0])
        assert profile_utilities(fees, []) == []
        assert profile_utilities(fees, [(), ()]) == [0.0, 0.0]
        assert profile_utilities(fees, [(), (1,)]) == [0.0, 2.0]

    def test_outcome_utilities_match_reference(self):
        fees = [float(f) for f in range(1, 31)]
        outcome = BestReplyDynamics(
            SelectionGameConfig(capacity=2), seed=7
        ).run(fees, miners=6)
        assert np.allclose(
            profile_utilities(np.asarray(fees), list(outcome.profile)),
            profile_utilities_reference(
                np.asarray(fees), list(outcome.profile)
            ),
            rtol=0,
            atol=1e-9,
        )


class TestCallGraphMemo:
    def test_interleaved_stream_matches_uncached_graph(self):
        """Memoized answers equal an uncached classifier's at every step.

        The oracle is the Sec. III-C "trivial" full-history scan, which
        recomputes every answer from the recorded transactions."""
        builder = WorkloadBuilder()
        rng = random.Random(4)
        txs = []
        for i in range(120):
            user = f"u{rng.randint(0, 15)}"
            if rng.random() < 0.7:
                txs.append(
                    builder.contract_call(
                        f"0x{user}", f"0xc{rng.randint(1, 4):039d}", fee=1
                    )
                )
            else:
                txs.append(
                    builder.direct_transfer(
                        f"0x{user}", f"0xu{rng.randint(16, 20)}", fee=1
                    )
                )

        cached = CallGraph()
        history = TransactionHistory()
        for tx in txs:
            cached.observe(tx)
            history.append(tx)
            for probe in (tx.sender, txs[0].sender):
                assert cached.classify(probe) is history.classify(probe)
                assert cached.sole_contract_of(probe) == history.sole_contract_of(
                    probe
                )
        memo = cached._analysis  # the memo under test
        assert memo.hits > 0 and memo.misses > 0
