"""The Table I mechanism: per-block difficulty retargeting.

The paper's testbed runs go-Ethereum 1.8.0, whose private chains adjust
difficulty every block toward a target interval: roughly

    d_next = d_parent + d_parent // 2048 * max(1 - (t_block - t_parent) // 10, -99)

A faster-than-10s block raises difficulty, a slower one lowers it, with
an adjustment step of d/2048 per 10-second bucket. The model below
implements that controller, and the tests show that a mining population
governed by it converges to a constant network interval regardless of
miner count. That is the first-principles justification for the
``max(retarget_floor, solo/miners)`` shortcut in
:class:`repro.sim.config.TimingModel`; no simulation runs the controller
itself, so the model lives here, beside the check.
"""

import random
from dataclasses import dataclass

import pytest

from repro.errors import ConfigError

#: go-Ethereum's adjustment quotient: the step is difficulty // 2048.
ADJUSTMENT_QUOTIENT = 2048
#: go-Ethereum's duration bucket (seconds) in the Homestead rule.
DURATION_BUCKET = 10.0
#: Largest downward adjustment multiplier.
MAX_DOWNWARD = -99


@dataclass(frozen=True)
class RetargetRule:
    """The Homestead difficulty-adjustment rule, parameterized.

    ``target_interval`` is implied by the bucket: blocks faster than one
    bucket push difficulty up, slower blocks push it down, so the
    controller settles where the expected interval sits near the bucket
    boundary. ``minimum_difficulty`` mirrors geth's floor.
    """

    adjustment_quotient: int = ADJUSTMENT_QUOTIENT
    duration_bucket: float = DURATION_BUCKET
    minimum_difficulty: int = 131_072  # geth's MinimumDifficulty

    def __post_init__(self) -> None:
        if self.adjustment_quotient <= 0:
            raise ConfigError("adjustment quotient must be positive")
        if self.duration_bucket <= 0:
            raise ConfigError("duration bucket must be positive")
        if self.minimum_difficulty <= 0:
            raise ConfigError("minimum difficulty must be positive")

    def next_difficulty(self, parent_difficulty: int, block_time: float) -> int:
        """Difficulty of the next block given the parent's block time."""
        if parent_difficulty <= 0:
            raise ConfigError("parent difficulty must be positive")
        if block_time < 0:
            raise ConfigError("block time cannot be negative")
        buckets = int(block_time // self.duration_bucket)
        multiplier = max(1 - buckets, MAX_DOWNWARD)
        step = parent_difficulty // self.adjustment_quotient
        adjusted = parent_difficulty + step * multiplier
        return max(adjusted, self.minimum_difficulty)


@dataclass
class RetargetSimulation:
    """Simulates a mining population under per-block retargeting.

    Each block's discovery time is exponential with mean
    ``difficulty / (hashrate_per_miner * miners)``; the rule then adjusts
    difficulty. Running enough blocks shows the interval converging to a
    miner-count-independent steady state.
    """

    rule: RetargetRule
    hashrate_per_miner: float
    miners: int
    initial_difficulty: int
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.hashrate_per_miner <= 0 or self.miners <= 0:
            raise ConfigError("hash rate and miner count must be positive")
        if self.initial_difficulty <= 0:
            raise ConfigError("initial difficulty must be positive")

    def run(self, blocks: int) -> list[float]:
        """Mine ``blocks`` blocks; returns the per-block intervals."""
        if blocks <= 0:
            raise ConfigError("blocks must be positive")
        rng = random.Random(self.seed)
        network_hashrate = self.hashrate_per_miner * self.miners
        difficulty = self.initial_difficulty
        intervals: list[float] = []
        for __ in range(blocks):
            expected = difficulty / network_hashrate
            block_time = rng.expovariate(1.0 / expected)
            intervals.append(block_time)
            difficulty = self.rule.next_difficulty(difficulty, block_time)
        return intervals

    def steady_state_interval(
        self, blocks: int = 4_000, warmup_fraction: float = 0.5
    ) -> float:
        """Mean interval after the controller settles.

        ``warmup_fraction`` must be in ``[0, 1)``: the whole-run mean is
        the 0.0 boundary, while 1.0 would discard every sample and leave
        nothing to average.
        """
        if not 0.0 <= warmup_fraction < 1.0:
            raise ConfigError(
                f"warmup_fraction must be in [0, 1): got {warmup_fraction}"
            )
        intervals = self.run(blocks)
        start = int(len(intervals) * warmup_fraction)
        tail = intervals[start:]
        return sum(tail) / len(tail)


class TestRetargetRule:
    def test_fast_block_raises_difficulty(self):
        rule = RetargetRule()
        next_d = rule.next_difficulty(parent_difficulty=2_048_000, block_time=3.0)
        assert next_d > 2_048_000

    def test_slow_block_lowers_difficulty(self):
        rule = RetargetRule()
        next_d = rule.next_difficulty(parent_difficulty=2_048_000, block_time=45.0)
        assert next_d < 2_048_000

    def test_downward_adjustment_capped(self):
        rule = RetargetRule(minimum_difficulty=1)
        d = 2_048_000
        capped = rule.next_difficulty(d, block_time=1e6)
        step = d // rule.adjustment_quotient
        assert capped == d - 99 * step

    def test_minimum_difficulty_floor(self):
        rule = RetargetRule(minimum_difficulty=100_000)
        assert rule.next_difficulty(100_500, block_time=1e6) == 100_000

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetargetRule(adjustment_quotient=0)
        with pytest.raises(ConfigError):
            RetargetRule().next_difficulty(0, 1.0)
        with pytest.raises(ConfigError):
            RetargetRule().next_difficulty(1, -1.0)


class TestRetargetSimulation:
    def make(self, miners, seed=1):
        return RetargetSimulation(
            rule=RetargetRule(minimum_difficulty=1_000),
            hashrate_per_miner=10_000.0,
            miners=miners,
            initial_difficulty=1_000_000,
            seed=seed,
        )

    def test_interval_converges_near_bucket(self):
        """The controller settles with expected intervals around the
        10-second duration bucket."""
        steady = self.make(miners=4).steady_state_interval()
        assert 5.0 < steady < 25.0

    def test_interval_independent_of_miner_count(self):
        """The Table I justification: steady-state intervals for 2 and 16
        miners agree, because difficulty absorbs the hash power."""
        two = self.make(miners=2, seed=2).steady_state_interval()
        sixteen = self.make(miners=16, seed=3).steady_state_interval()
        assert sixteen == pytest.approx(two, rel=0.25)

    def test_more_hashpower_means_higher_difficulty_not_faster_blocks(self):
        sim = self.make(miners=16, seed=4)
        intervals = sim.run(3_000)
        early = sum(intervals[:100]) / 100  # pre-adjustment: fast blocks
        late = sum(intervals[-1_000:]) / 1_000
        assert late > early  # difficulty caught up

    def test_deterministic_under_seed(self):
        assert self.make(4, seed=9).run(50) == self.make(4, seed=9).run(50)

    def test_warmup_fraction_zero_is_whole_run_mean(self):
        """0.0 is a valid boundary: no samples are discarded."""
        sim = self.make(miners=4, seed=6)
        whole = sim.steady_state_interval(blocks=200, warmup_fraction=0.0)
        intervals = self.make(miners=4, seed=6).run(200)
        assert whole == pytest.approx(sum(intervals) / len(intervals))

    def test_warmup_fraction_one_rejected(self):
        """1.0 used to divide by zero (every sample discarded); it must
        be rejected up front as a configuration error."""
        with pytest.raises(ConfigError, match=r"warmup_fraction"):
            self.make(miners=4).steady_state_interval(warmup_fraction=1.0)

    def test_warmup_fraction_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            self.make(miners=4).steady_state_interval(warmup_fraction=1.5)
        with pytest.raises(ConfigError):
            self.make(miners=4).steady_state_interval(warmup_fraction=-0.1)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetargetSimulation(RetargetRule(), 0.0, 1, 100)
        with pytest.raises(ConfigError):
            self.make(1).run(0)
