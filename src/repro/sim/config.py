"""Simulation configuration and block timing.

The timing model reflects how go-Ethereum actually behaves in the paper's
testbed:

* at a *fixed difficulty*, a pool of ``m`` equal miners finds blocks as a
  Poisson process with expected interval ``solo_interval / m``;
* go-Ethereum's difficulty retargeting pins the network interval to a
  target once hash power suffices, so beyond a certain miner count more
  miners do **not** yield faster blocks — together with every miner
  selecting the *same* transactions (Sec. II-B), this is what flattens
  Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError


@dataclass(frozen=True)
class TimingModel:
    """Expected block intervals for shards and selection lanes.

    Parameters
    ----------
    solo_interval:
        One miner's unadjusted expected block interval in seconds. The
        paper's 0x40000 difficulty on a c5.large is one block per minute.
    retarget_interval:
        The difficulty-retarget floor: a shard's interval never drops
        below this no matter how much hash power joins. ``None`` models a
        fixed-difficulty chain (no retargeting).
    block_shape:
        Gamma shape of the block-time distribution. 1.0 is the memoryless
        PoW ideal (exponential); larger values model the low-variance
        intervals the paper's small private testbed exhibits (difficulty
        tracking a single dominant miner), sharpening straggler effects
        out of multi-shard makespans.
    """

    solo_interval: float = 60.0
    retarget_interval: float | None = 60.0
    block_shape: float = 1.0

    def __post_init__(self) -> None:
        if self.solo_interval <= 0:
            raise ConfigError("solo_interval must be positive")
        if self.retarget_interval is not None and self.retarget_interval <= 0:
            raise ConfigError("retarget_interval must be positive or None")
        if self.block_shape <= 0:
            raise ConfigError("block_shape must be positive")

    def sample_interval(self, expected: float, rng) -> float:
        """Draw one block time with mean ``expected`` under the shape."""
        if self.block_shape == 1.0:
            return rng.expovariate(1.0 / expected)
        return rng.gammavariate(self.block_shape, expected / self.block_shape)

    def shard_interval(self, miners: int) -> float:
        """Expected network block interval of a single-lane shard."""
        if miners <= 0:
            raise ConfigError("a shard needs at least one miner")
        pooled = self.solo_interval / miners
        if self.retarget_interval is None:
            return pooled
        return max(self.retarget_interval, pooled)

    def lane_interval(self, lane_miners: int) -> float:
        """Expected block interval of one selection lane.

        A lane is the sub-chain of miners holding the same assigned
        transaction set; lanes run at fixed difficulty (the retarget
        applies to the shard as a whole, not to each disjoint sub-chain).
        """
        if lane_miners <= 0:
            raise ConfigError("a lane needs at least one miner")
        return self.solo_interval / lane_miners

    @classmethod
    def one_block_per_minute(cls) -> "TimingModel":
        """The Sec. VI-B1/VI-C/VI-D operating point."""
        return cls(solo_interval=60.0, retarget_interval=60.0)

    @classmethod
    def low_variance(cls, interval: float = 60.0, shape: float = 12.0) -> "TimingModel":
        """A retargeted chain with near-regular block times.

        Matches the paper's private testbed regime where one dedicated
        miner per shard produces blocks at a steady one-per-minute pace.
        """
        return cls(
            solo_interval=interval, retarget_interval=interval, block_shape=shape
        )

    @classmethod
    def table1(cls) -> "TimingModel":
        """The Table I operating point: fixed low difficulty, retarget floor.

        Calibrated so two miners need ~109 s per block (218 s for the
        paper's two 10-transaction blocks) while four or more sit on the
        ~56 s retarget floor.
        """
        return cls(solo_interval=218.0, retarget_interval=56.0, block_shape=12.0)


@dataclass(frozen=True)
class SimulationConfig:
    """Everything a sharded run needs besides the shard specs."""

    timing: TimingModel = field(default_factory=TimingModel)
    block_capacity: int = 10
    seed: int = 0
    window: float | None = None  # fixed measurement window; None = stop on drain

    def __post_init__(self) -> None:
        if self.block_capacity <= 0:
            raise ConfigError("block_capacity must be positive")
        if self.window is not None and self.window <= 0:
            raise ConfigError("window must be positive or None")
