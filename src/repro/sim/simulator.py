"""The shard-group discrete-event simulator.

One :class:`ShardGroupSpec` describes a shard (or merged shard): its
miners, its transactions, its selection mode and an optional start delay
(the time the merging protocol occupies before mining resumes). The
:class:`ShardedSimulation` runs every group on one shared scheduler and
stops when all injected transactions are confirmed — or at a fixed
measurement window when one is configured — then reports the paper's
metrics.

Selection semantics
-------------------
* ``greedy`` — the shard is one mining lane; whoever wins a block packs
  the highest-fee pending transactions (Sec. II-B). This is Ethereum's
  behavior and the default for regular shards.
* ``assigned`` — the intra-shard selection game partitioned the pending
  transactions; each distinct assigned set forms a *lane* (a conflict-free
  sub-chain mined by the set's holders in parallel). Lanes confirm
  independently: disjoint transaction sets cannot double-spend, which is
  precisely why the paper counts distinct sets as the throughput
  improvement (Sec. VI-E2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.chain.transaction import Transaction
from repro.errors import SimulationError
from repro.net.events import Scheduler
from repro.observe.telemetry import get_telemetry
from repro.sim.config import SimulationConfig


@dataclass(frozen=True)
class ShardGroupSpec:
    """The static description of one shard in a run.

    Parameters
    ----------
    shard_id:
        Identifier used in reports (a merged shard uses its canonical id).
    miners:
        Miner identifiers (public keys or names); equal hash power each.
    transactions:
        The shard's workload.
    mode:
        ``"greedy"`` or ``"assigned"`` (see module docstring).
    assignments:
        For ``assigned`` mode: miner identifier -> ordered tx ids. Miners
        missing from the mapping idle (they mine empty blocks).
    start_delay:
        Seconds before this shard starts mining — models the merging
        protocol's latency for newly merged shards.
    """

    shard_id: int
    miners: tuple[str, ...]
    transactions: tuple[Transaction, ...]
    mode: str = "greedy"
    assignments: dict[str, tuple[str, ...]] | None = None
    start_delay: float = 0.0

    def __post_init__(self) -> None:
        if not self.miners:
            raise SimulationError(f"shard {self.shard_id} has no miners")
        if self.mode not in ("greedy", "assigned"):
            raise SimulationError(f"unknown selection mode {self.mode!r}")
        if self.mode == "assigned" and self.assignments is None:
            raise SimulationError("assigned mode requires an assignments mapping")
        if self.start_delay < 0:
            raise SimulationError("start_delay cannot be negative")


@dataclass
class ShardOutcome:
    """Per-shard results of one run."""

    shard_id: int
    miner_count: int
    tx_count: int
    lane_count: int
    blocks_mined: int = 0
    empty_blocks: int = 0
    confirmed: int = 0
    completion_time: float | None = None  # when the shard's last tx confirmed

    @property
    def drained(self) -> bool:
        return self.confirmed >= self.tx_count


@dataclass
class SimulationResult:
    """System-wide results of one run."""

    makespan: float  # time at which the last transaction confirmed
    window_end: float  # time the measurement stopped
    shards: dict[int, ShardOutcome]
    total_transactions: int
    confirmed_transactions: int

    @property
    def all_confirmed(self) -> bool:
        return self.confirmed_transactions >= self.total_transactions

    @property
    def total_empty_blocks(self) -> int:
        return sum(s.empty_blocks for s in self.shards.values())

    @property
    def total_blocks(self) -> int:
        return sum(s.blocks_mined for s in self.shards.values())


class _Lane:
    """One mining lane: a set of miners confirming one pending queue."""

    def __init__(
        self,
        miners: tuple[str, ...],
        pending: list[Transaction],
        interval: float,
    ) -> None:
        self.miners = miners
        self.pending = pending  # ordered; confirmed txs are popped from front
        self.interval = interval


class _ShardProcess:
    """The runtime state of one shard group inside the scheduler."""

    def __init__(
        self,
        spec: ShardGroupSpec,
        config: SimulationConfig,
        scheduler: Scheduler,
        rng: random.Random,
        driver: "ShardedSimulation",
    ) -> None:
        self.spec = spec
        self._config = config
        self._scheduler = scheduler
        self._rng = rng
        self._driver = driver
        self._confirmed_ids: set[str] = set()
        self.lanes = self._build_lanes()
        self.outcome = ShardOutcome(
            shard_id=spec.shard_id,
            miner_count=len(spec.miners),
            tx_count=len(spec.transactions),
            lane_count=len(self.lanes),
        )

    # ------------------------------------------------------------------
    # lane construction
    # ------------------------------------------------------------------
    def _build_lanes(self) -> list[_Lane]:
        spec = self.spec
        timing = self._config.timing
        if spec.mode == "greedy":
            ordered = sorted(
                spec.transactions, key=lambda tx: (-tx.fee, tx.tx_id)
            )
            interval = timing.shard_interval(len(spec.miners))
            return [_Lane(miners=spec.miners, pending=ordered, interval=interval)]

        # assigned mode: group miners by identical assigned tx-id tuples.
        by_tx_id = {tx.tx_id: tx for tx in spec.transactions}
        set_to_miners: dict[tuple[str, ...], list[str]] = {}
        assignments = spec.assignments or {}
        for miner in spec.miners:
            assigned = assignments.get(miner)
            if not assigned:
                continue
            set_to_miners.setdefault(tuple(assigned), []).append(miner)

        # A transaction selected by several distinct sets (the congestion
        # game permits n_j > 1 choosers) is still confirmed exactly once:
        # the first lane to claim it owns it, later lanes skip it — the
        # simulator-level counterpart of fork resolution.
        claimed: set[str] = set()
        lanes: list[_Lane] = []
        for tx_ids, holders in set_to_miners.items():
            pending = []
            for tx_id in tx_ids:
                if tx_id in claimed or tx_id not in by_tx_id:
                    continue
                claimed.add(tx_id)
                pending.append(by_tx_id[tx_id])
            lanes.append(
                _Lane(
                    miners=tuple(holders),
                    pending=pending,
                    interval=timing.lane_interval(len(holders)),
                )
            )
        assigned_ids = claimed
        # Transactions no miner selected fall into a sweeper lane mined by
        # everyone greedily, so the workload always drains (the selection
        # game is replayed as sets empty; this models the next epoch).
        leftovers = [
            tx for tx in spec.transactions if tx.tx_id not in assigned_ids
        ]
        if leftovers:
            leftovers.sort(key=lambda tx: (-tx.fee, tx.tx_id))
            lanes.append(
                _Lane(
                    miners=spec.miners,
                    pending=leftovers,
                    interval=timing.shard_interval(len(spec.miners)),
                )
            )
        if not lanes:
            # No assignments at all: the shard still mines (empty blocks).
            lanes.append(
                _Lane(
                    miners=spec.miners,
                    pending=[],
                    interval=timing.shard_interval(len(spec.miners)),
                )
            )
        return lanes

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        for lane in self.lanes:
            self._schedule_lane(lane, initial=True)

    def _schedule_lane(self, lane: _Lane, initial: bool = False) -> None:
        delay = self._config.timing.sample_interval(lane.interval, self._rng)
        if initial:
            delay += self.spec.start_delay
        self._scheduler.schedule_in(delay, lambda: self._lane_block(lane))

    def _lane_block(self, lane: _Lane) -> None:
        if self._driver.finished:
            return
        packed = lane.pending[: self._config.block_capacity]
        del lane.pending[: self._config.block_capacity]
        self.outcome.blocks_mined += 1
        if packed:
            now = self._scheduler.now
            self.outcome.confirmed += len(packed)
            self.outcome.completion_time = now
            for tx in packed:
                self._confirmed_ids.add(tx.tx_id)
            self._driver.notify_confirmed(len(packed), now)
        else:
            self.outcome.empty_blocks += 1
        self._schedule_lane(lane)


class ShardedSimulation:
    """Runs every shard group on one scheduler and collects the metrics."""

    def __init__(
        self, specs: list[ShardGroupSpec], config: SimulationConfig | None = None
    ) -> None:
        if not specs:
            raise SimulationError("a simulation needs at least one shard")
        ids = [spec.shard_id for spec in specs]
        if len(set(ids)) != len(ids):
            raise SimulationError(f"duplicate shard ids in specs: {ids}")
        self._specs = list(specs)
        self._config = config or SimulationConfig()
        self._scheduler = Scheduler()
        self._total_txs = sum(len(spec.transactions) for spec in specs)
        self._confirmed = 0
        self._makespan = 0.0
        self.finished = False

    # ------------------------------------------------------------------
    # driver callbacks
    # ------------------------------------------------------------------
    def notify_confirmed(self, count: int, now: float) -> None:
        self._confirmed += count
        if self._confirmed >= self._total_txs:
            self._makespan = now

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the run and return the collected metrics.

        Without a window the run stops the moment the workload drains
        (empty blocks are counted up to that instant, the paper's
        "miners stop validating until all the injected transactions are
        confirmed"). With a window, mining continues — and empty blocks
        accumulate — until the window closes, as in Fig. 3(c)'s fixed
        212-second measurement.
        """
        config = self._config
        rng = random.Random(config.seed)
        processes = [
            _ShardProcess(
                spec,
                config,
                self._scheduler,
                random.Random(rng.getrandbits(64)),
                self,
            )
            for spec in self._specs
        ]
        for process in processes:
            process.start()

        def drained() -> bool:
            return self._confirmed >= self._total_txs

        # A scoped telemetry (``python -m repro run --progress``) arms
        # its heartbeat here. A beat only reads, so the run's results
        # are the same with progress on or off.
        telemetry = get_telemetry()
        if telemetry is not None:
            telemetry.arm(
                self._scheduler,
                lambda: {
                    "injected": self._total_txs,
                    "confirmed": self._confirmed,
                    "evicted": 0,
                    "pool_depths": {},
                },
            )

        if config.window is None:
            self._scheduler.run(stop_condition=drained)
            self.finished = True
            window_end = self._scheduler.now
        else:
            self._scheduler.run(until=config.window)
            self.finished = True
            window_end = config.window

        if self._confirmed >= self._total_txs and self._makespan == 0.0:
            self._makespan = self._scheduler.now
        makespan = (
            self._makespan if self._confirmed >= self._total_txs else window_end
        )
        return SimulationResult(
            makespan=makespan,
            window_end=window_end,
            shards={p.spec.shard_id: p.outcome for p in processes},
            total_transactions=self._total_txs,
            confirmed_transactions=self._confirmed,
        )
