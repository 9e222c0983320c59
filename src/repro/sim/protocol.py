"""Full-node protocol simulation (the Sec. III-C workflow, end to end).

Where :mod:`repro.sim.simulator` abstracts shards into timed lanes for
scale, this module wires *actual* :class:`~repro.net.node.FullNode`
instances to a latency network: each transaction is classified once with
the call graph and provisioned on its shard's replicas, then handed to
them directly or, under a fault plan, announced by its user over the
lossy network; miners mine PoW blocks, broadcast them, and every
receiver runs the two Sec. III-C verifications backed by the publicly
verifiable miner assignment. Cheaters (wrong ShardID, ignored
selection) are injected through miner behaviors and get their blocks
rejected — the integration surface the security tests exercise.

Both verifications depend only on public data, so the coordinator
establishes each gossiped payload's home shard once per wave (a
transaction's classified shard; a block's claimed shard once its body
commitment and its packer's membership verify) and the network screens
out deliveries to other shards' nodes. A block whose claim fails gets
no home and reaches every receiver, which rejects it itself.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import numbers
import random
from dataclasses import dataclass, field

from repro.chain.callgraph import CallGraph
from repro.chain.fees import FeePolicy
from repro.chain.ledger import ConfirmationTally
from repro.chain.transaction import Transaction
from repro.consensus.miner import MinerBehavior, MinerIdentity
from repro.consensus.pow import MiningCalendar, MiningProcess, PoWParameters
from repro.consensus.rewards import RewardLedger
from repro.core.miner_assignment import MinerAssignment, assign_miners
from repro.core.shard_formation import MAXSHARD_ID, ShardMap, form_shards
from repro.errors import ConfigError, SimulationError
from repro.faults.model import FaultModel
from repro.faults.plan import FaultPlan, FaultStats
from repro.net.events import MAX_EVENTS, Scheduler
from repro.net.messages import MessageKind
from repro.net.network import LatencyModel, Network
from repro.net.node import FullNode, ImageTable
from repro.observe import Tracer, resolve_tracer, use_tracer
from repro.observe.telemetry import (
    ShardStats,
    Telemetry,
    resolve_telemetry,
)
from repro.workloads.generators import MAX_MATERIALIZED_TXS, TxStream

#: Mixed into the run seed so the fault RNG stream never mirrors the
#: network's latency stream (both are seeded from ``config.seed``).
_FAULT_SEED_SALT = 0xFA017

#: What every sender holds: provisioned on its shard's replicas when its
#: first transaction is injected, for lists and streams alike.
INITIAL_BALANCE = 1_000_000

#: When (seconds into the run) the leader broadcasts the unification
#: packet, in runs that distribute it over the network.
LEADER_BROADCAST_DELAY = 0.0


@dataclass(frozen=True)
class ProtocolConfig:
    """Configuration of a full-node protocol run.

    The failure-handling knobs are inert by default: with
    ``fault_plan=None`` (or an all-zero :class:`FaultPlan`) a run is
    bit-identical to one on the pre-fault-layer code path.

    Parameters
    ----------
    fault_plan:
        What goes wrong (message loss, crashes, partitions, a faulty
        leader). ``None`` or a no-op plan disables the whole layer.
    retransmit_interval:
        Period of the retransmission sweep that re-announces unconfirmed
        transactions, re-gossips chain tips, and re-sends the leader's
        unification packet to nodes that missed it. ``None`` disables
        retransmission (only sensible for fault-free runs).
    retransmit_blocks:
        How many canonical tip blocks each node re-gossips per sweep.
    leader_timeout:
        Leader-silence deadline: a node without a verified unification
        packet by this time falls back to solo (un-unified) mining so
        its shard keeps confirming instead of stalling.
    run_to_horizon:
        When True the run ignores the confirmed-set stop condition and
        always executes until ``max_duration``. Adversarial scenarios
        need this: a censorship fork race must play out over the whole
        horizon even while (or because) every transaction is confirmed
        or suppressed early. Default False — the normal stop condition
        is untouched, keeping all recorded digests bit-identical.
    trace:
        Observability hook: a :class:`~repro.observe.Tracer` to emit
        into, ``True`` for a fresh tracer, ``False`` to force tracing
        off, or ``None`` (default) to join an active
        :func:`~repro.observe.use_tracer` scope, else run untraced.
        The resolved tracer is exposed as
        :attr:`ProtocolSimulation.tracer` and on the result.
    engine:
        Which protocol engine runs the event loop. ``"fast"`` is the
        only engine; the field survives for callers that name it, and
        any other value raises a :class:`ConfigError`. Every fan-out,
        faulty or not, is wave-scheduled (one self-re-arming
        :class:`~repro.net.events.DeliveryWave` heap entry per
        broadcast) and every shard's miners share one
        :class:`~repro.consensus.pow.MiningCalendar`; the recorded
        digests in ``tests/sim/seed_digests.json`` pin the resulting
        event order.
    inject_batch:
        Paced streaming injection: how many transactions each injection
        tick hands the shard's nodes. ``None`` (default) keeps the
        paper's inject-everything-at-t=0 behavior; setting it requires
        the workload to be a :class:`~repro.workloads.TxStream` and is
        incompatible with active fault plans (a :class:`ConfigError`
        instead of silently running a different experiment).
    inject_interval:
        Simulated seconds between paced injection ticks.
    mempool_limit:
        Per-node mempool bound. A full pool deterministically evicts
        its lowest-fee resident to admit a better-paying arrival (ties
        broken on tx id) and counts the displacement in
        :attr:`ProtocolResult.evicted`. Also the backpressure signal:
        a paced injection tick defers (without consuming the stream)
        while any node's pool is at the limit. ``None`` = unbounded.
        Only paced streams take a bound: a list run stops once every
        transaction confirms, which an evicted one never does.
    max_events:
        Event budget for the run loop. ``None`` (default) keeps the
        scheduler's runaway-loop guard
        (:data:`~repro.net.events.MAX_EVENTS`, 10^7); million-transaction
        campaigns with a thousand miners legally fire more events than
        that and raise the budget explicitly.
    telemetry:
        Heartbeats: a :class:`~repro.observe.telemetry.Telemetry`
        collector to feed, ``True`` for a fresh collector with the
        default heartbeat interval, ``False`` to force heartbeats off,
        or ``None`` (default) to join an active ``use_telemetry`` scope
        if one exists. Heartbeats are digest-neutral by contract: they
        never emit trace events, never consume simulation randomness,
        and keep every wall-clock quantity in the sample's ``wall``
        sidecar, so all recorded digests are bit-identical with
        heartbeats on or off (enforced by tests and CI). The shard-load
        picture needs no collector: :meth:`ProtocolSimulation.shard_stats`
        folds it from any finished run.
    """

    pow_params: PoWParameters = field(default_factory=PoWParameters.one_block_per_minute)
    block_capacity: int = 10
    latency: LatencyModel = field(default_factory=LatencyModel)
    seed: int = 0
    max_duration: float = 100_000.0
    fault_plan: FaultPlan | None = None
    retransmit_interval: float | None = None
    retransmit_blocks: int = 4
    leader_timeout: float = 10.0
    trace: Tracer | bool | None = None
    engine: str = "fast"
    run_to_horizon: bool = False
    inject_batch: int | None = None
    inject_interval: float = 1.0
    mempool_limit: int | None = None
    max_events: int | None = None
    telemetry: Telemetry | bool | None = None

    def __post_init__(self) -> None:
        if self.engine != "fast":
            raise ConfigError(
                f"engine must be 'fast', the only protocol engine: "
                f"{self.engine!r}"
            )
        # Counts slice and compare as integers: a float would construct
        # and then fail mid-run.
        for name in (
            "block_capacity",
            "retransmit_blocks",
            "inject_batch",
            "mempool_limit",
            "max_events",
        ):
            value = getattr(self, name)
            if value is not None and not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer: {value!r}")
        if self.block_capacity < 1:
            raise ConfigError(
                f"block_capacity must be at least 1: {self.block_capacity}"
            )
        # Bounds are written as ``not x > 0`` / ``not x >= 0`` so that NaN,
        # which fails every comparison, is rejected too.
        if not self.max_duration > 0:
            raise ConfigError(
                f"max_duration must be positive: {self.max_duration}"
            )
        interval = self.retransmit_interval
        if interval is not None and not interval > 0:
            raise ConfigError(
                f"retransmit_interval must be positive or None: {interval}"
            )
        for name in ("retransmit_blocks", "leader_timeout"):
            if not getattr(self, name) >= 0:
                raise ConfigError(
                    f"{name} must be non-negative: {getattr(self, name)}"
                )
        if self.max_events is not None and self.max_events < 1:
            raise ConfigError(
                f"max_events must be at least 1: {self.max_events}"
            )
        if self.inject_batch is not None and self.inject_batch < 1:
            raise ConfigError(
                f"inject_batch must be at least 1: {self.inject_batch}"
            )
        if not self.inject_interval > 0:
            raise ConfigError(
                f"inject_interval must be positive: {self.inject_interval}"
            )
        if self.mempool_limit is not None and self.mempool_limit < 1:
            raise ConfigError(
                f"mempool_limit must be at least 1: {self.mempool_limit}"
            )
        if (
            self.inject_batch is not None
            and self.fault_plan is not None
            and self.fault_plan.is_active
        ):
            raise ConfigError(
                "paced streaming injection (inject_batch=) cannot run "
                "under an active fault plan: retransmission sweeps "
                "re-announce the whole workload, which defeats "
                "bounded-memory streaming — run faults with a "
                "materialized workload"
            )


@dataclass
class ProtocolResult:
    """What a protocol run produced."""

    duration: float
    confirmed_tx_ids: set[str]
    blocks_rejected: int
    rejection_reasons: list[str]
    per_shard_confirmed: dict[int, int]
    rewards: RewardLedger = field(default_factory=RewardLedger)
    # Failure handling: what the fault layer injected and how the
    # protocol degraded. All zero on fault-free runs.
    drops: int = 0
    retransmissions: int = 0
    fallbacks: int = 0
    equivocations_detected: int = 0
    fault_stats: FaultStats = field(default_factory=FaultStats)
    # Mempool-bound displacements summed over all nodes (0 when
    # ``mempool_limit`` is unset). Deterministic: the eviction rule is
    # a total order on (fee, tx_id), so reruns agree.
    evicted: int = 0
    # The run's trace when observability was enabled (None otherwise).
    trace: Tracer | None = None

    def confirmed_count(self) -> int:
        return len(self.confirmed_tx_ids)


class ProtocolSimulation:
    """Wires miners, users and the network into one runnable system."""

    def __init__(
        self,
        miners: list[MinerIdentity],
        transactions: list[Transaction] | TxStream,
        config: ProtocolConfig | None = None,
        behaviors: dict[str, MinerBehavior] | None = None,
        assignment: MinerAssignment | None = None,
        unified: bool = False,
    ) -> None:
        if not miners:
            raise SimulationError("a protocol run needs miners")
        self._config = config or ProtocolConfig()
        paced = self._config.inject_batch is not None
        self._stream: TxStream | None = None
        if isinstance(transactions, TxStream):
            if transactions.total <= 0:
                raise SimulationError("a protocol run needs transactions")
            if paced:
                # Streaming mode: the workload is consumed lazily in
                # paced batches; nothing below holds all transactions.
                self._stream = transactions
                transactions = []
            else:
                # Without pacing a stream is materialized for exact
                # digest parity with list injection — loudly refused
                # (WorkloadError) above MAX_MATERIALIZED_TXS.
                transactions = transactions.materialize()
        elif paced:
            raise ConfigError(
                "paced streaming injection (inject_batch=) needs a "
                "TxStream workload; a materialized list is already in "
                "memory, so pacing it would bound nothing"
            )
        if self._stream is None and self._config.mempool_limit is not None:
            raise ConfigError(
                "mempool_limit bounds paced streaming injection (inject_batch= "
                "with a TxStream); a list run waits for every transaction to "
                "confirm, and an evicted one never does"
            )
        if self._stream is None and not transactions:
            raise SimulationError("a protocol run needs transactions")
        if self._stream is None and len(transactions) > MAX_MATERIALIZED_TXS:
            raise ConfigError(
                f"refusing list-based injection of {len(transactions)} "
                f"transactions (cap {MAX_MATERIALIZED_TXS}): every node "
                "would hold the full workload in memory at t=0 — use a "
                "streaming TxStream workload with paced injection "
                "(inject_batch=)"
            )
        self._miners = list(miners)
        self._transactions = list(transactions)
        self._behaviors = behaviors or {}
        self._tracer = resolve_tracer(self._config.trace)
        self._telemetry = resolve_telemetry(self._config.telemetry)
        # Per-transaction lineage events (tx.seen / tx_idx inclusion
        # lists / tx.confirmed) are opt-in via Tracer(lineage=True):
        # default traces — and every recorded digest baseline — are
        # unchanged. Lineage refers to transactions by workload index,
        # never by id, so digests stay portable across processes.
        self._lineage = self._tracer is not None and self._tracer.lineage
        if self._lineage and self._stream is not None:
            raise ConfigError(
                "per-transaction lineage tracing indexes the materialized "
                "workload; it cannot run with paced streaming injection — "
                "drop lineage or materialize the stream"
            )
        if unified and self._stream is not None:
            raise ConfigError(
                "parameter unification builds the leader packet from the "
                "full workload up front; it cannot run with paced "
                "streaming injection — materialize the stream"
            )
        self._tx_index: dict[str, int] = (
            {tx.tx_id: i for i, tx in enumerate(self._transactions)}
            if self._lineage
            else {}
        )
        # Lineage's first-seen set: an index is popped when its tx is
        # first pooled anywhere.
        self._unseen_txs = dict(self._tx_index)
        # Injection progress: one t=0 batch for a list, one per tick for
        # a paced stream.
        self._inject_done = False
        self._injected = 0
        # List runs only: built when the run starts.
        self._tally: ConfirmationTally | None = None

        # Fault layer: a no-op plan must leave the run bit-identical, so
        # the model (with its dedicated RNG) exists only when the plan
        # actually injects something.
        plan = self._config.fault_plan
        self._fault_model = (
            FaultModel(
                plan,
                seed=self._config.seed ^ _FAULT_SEED_SALT,
                tracer=self._tracer,
            )
            if plan is not None and plan.is_active
            else None
        )

        # Shard topology from the workload; MaxShard-style global view for
        # routing (every node classifies with the same call graph). A
        # streaming workload declares its contracts up front, so the map
        # is built directly (same rule: ids 1..n by sorted address) and
        # the call graph fills in as transactions are injected.
        if self._stream is not None:
            self._shard_map = ShardMap(
                contract_to_shard={
                    contract: shard_id
                    for shard_id, contract in enumerate(
                        sorted(self._stream.contracts), start=1
                    )
                }
            )
            self._callgraph = CallGraph()
        else:
            self._shard_map, self._callgraph = form_shards(self._transactions)
        self._classify = self._classifier()
        fractions = self._fractions()
        self._assignment = assignment or assign_miners(
            self._miners, fractions, epoch_seed=f"protocol-{self._config.seed}"
        )

        # Full Sec. IV-C mode: build the leader's unification packet, give
        # every multi-miner shard's members their game-assigned sets, and
        # install the local replay so deviations are rejected on receive.
        # Under an active fault plan the packet is *not* pre-installed:
        # the leader broadcasts it over the (lossy) network at run time
        # and nodes verify its digest against the public commitment.
        self._unified = unified
        with self._trace_scope():
            self._replay = self._build_unified_replay() if unified else None
        self._packet = self._replay.packet if self._replay is not None else None
        self._commitment = self._packet.digest() if self._packet is not None else None
        self._distribute_packet = unified and self._fault_model is not None

        # The run ends at max_duration, so the scheduler holds nothing
        # due past it.
        self._scheduler = Scheduler(self._config.max_duration)
        self._network = Network(
            self._scheduler,
            latency=self._config.latency,
            seed=self._config.seed,
            faults=self._fault_model,
        )
        self._rewards = RewardLedger(policy=FeePolicy())
        self._nodes: dict[str, FullNode] = {}
        self._mining: dict[str, MiningProcess] = {}
        # One mining calendar per shard: a single armed scheduler event
        # for the shard's next block instead of one per miner.
        self._shard_calendars: dict[int, MiningCalendar] = {}
        self._miner_calendar: dict[str, MiningCalendar] = {}
        with self._trace_scope():
            self._build_nodes()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _trace_scope(self):
        """Scope the run's tracer as process-active so nested layers
        (selection replays, executors, caches) emit into the same trace."""
        if self._tracer is None:
            return contextlib.nullcontext()
        return use_tracer(self._tracer)
    def _fractions(self) -> dict[int, float]:
        """Each shard's share of the workload in %, from per-shard counts:
        a stream declares them, a list is classified once to count them."""
        if self._stream is not None:
            counts, total = self._stream.shard_counts, self._stream.total
        else:
            counts = dict.fromkeys(self._shard_map.shard_ids, 0)
            for tx in self._transactions:
                counts[self._classify(tx)] += 1
            total = len(self._transactions)
        # Every shard id needs a positive fraction for the draw intervals;
        # give empty shards a minimal epsilon share of miners while
        # leaving populated shards' weights proportional to their load.
        return {
            shard: max(100.0 * count / total, 0.01)
            for shard, count in sorted(counts.items())
        }

    def _build_unified_replay(self):
        from repro.core.selection.congestion_game import SelectionGameConfig
        from repro.core.shard_formation import partition_transactions
        from repro.core.unification import (
            ShardSelectionInput,
            UnificationPacket,
            UnifiedReplay,
        )

        partition = partition_transactions(
            self._transactions, self._shard_map, self._callgraph
        )
        selection_inputs = []
        for shard, txs in sorted(partition.by_shard.items()):
            members = self._assignment.members_of(shard)
            if not txs or len(members) < 2:
                continue
            selection_inputs.append(
                ShardSelectionInput(
                    shard_id=shard,
                    tx_ids=tuple(tx.tx_id for tx in txs),
                    fees=tuple(float(tx.fee) for tx in txs),
                    miners=tuple(members),
                )
            )
        packet = UnificationPacket(
            epoch_seed=f"protocol-{self._config.seed}",
            leader_public=self._assignment.leader_public,
            randomness=self._assignment.randomness,
            selection_inputs=tuple(selection_inputs),
            selection_config=SelectionGameConfig(
                capacity=self._config.block_capacity
            ),
        )
        return UnifiedReplay(packet)

    def _classifier(self):
        shard_map, callgraph = self._shard_map, self._callgraph

        def classify(tx: Transaction) -> int:
            return shard_map.shard_of_transaction(tx, callgraph)

        return classify

    def _build_nodes(self) -> None:
        # One memoized membership verifier for every node and for the
        # coordinator's home-shard check of each gossiped block.
        verifier = self._verifier = self._assignment.verifier()
        # Each shard's replicas, in node order: the coordinator classifies
        # a transaction once and hands it to exactly these nodes.
        self._shard_nodes: dict[int, list[FullNode]] = {}
        seed_rng = random.Random(self._config.seed)
        for miner in self._miners:
            shard = self._assignment.shard_of[miner.public]
            node = FullNode(
                identity=miner,
                shard_id=shard,
                membership_verifier=verifier,
                behavior=self._behaviors.get(miner.public),
                packet_commitment=self._commitment,
                mempool_limit=self._config.mempool_limit,
            )
            if self._replay is not None and not self._distribute_packet:
                node.install_replay(self._replay)
            if self._lineage:
                node.on_pooled = self._note_pooled
                node.on_rejected = self._note_rejected
            self._network.register(node)
            self._nodes[miner.public] = node
            self._shard_nodes.setdefault(shard, []).append(node)
            self._mining[miner.public] = MiningProcess(
                self._config.pow_params, seed=seed_rng.getrandbits(32)
            )
            calendar = self._shard_calendars.get(shard)
            if calendar is None:
                calendar = self._shard_calendars[shard] = MiningCalendar(
                    self._scheduler, self._mine
                )
            calendar.add(miner.public)
            self._miner_calendar[miner.public] = calendar
        # Execute once per shard: each block's forger records its image.
        for replicas in self._shard_nodes.values():
            images = ImageTable(len(replicas))
            for node in replicas:
                node.images = images

    def _note_pooled(self, node: FullNode, tx: Transaction) -> None:
        """Lineage: first-seen gossip — the first pooling of a tx anywhere."""
        idx = self._unseen_txs.pop(tx.tx_id, None)
        if idx is None:
            return
        self._tracer.event(
            "tx.seen",
            time=self._scheduler.now,
            phase="gossip",
            shard=node.shard_id,
            actor=node.node_id,
            tx=idx,
        )

    def _note_rejected(self, node: FullNode, block, reason: str) -> None:
        """Lineage: one node rejecting one block — the detection signal
        scenario metrics compute time-to-detect from."""
        self._tracer.event(
            "block.rejected",
            time=self._scheduler.now,
            phase="verify",
            shard=node.shard_id,
            actor=node.node_id,
            miner=block.header.miner,
            height=block.header.height,
        )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def assignment(self) -> MinerAssignment:
        return self._assignment

    @property
    def shard_map(self) -> ShardMap:
        return self._shard_map

    @property
    def network(self) -> Network:
        return self._network

    @property
    def scheduler(self):
        """The run's event scheduler."""
        return self._scheduler

    @property
    def tracer(self) -> Tracer | None:
        """The run's resolved tracer (None when tracing is off)."""
        return self._tracer

    def node(self, public: str) -> FullNode:
        return self._nodes[public]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self) -> ProtocolResult:
        """Inject the workload, mine until it drains, report the outcome."""
        with self._trace_scope():
            return self._run()

    def _run(self) -> ProtocolResult:
        tracer = self._tracer
        if tracer is not None:
            tracer.event(
                "workload.inject",
                time=self._scheduler.now,
                phase="inject",
                txs=(
                    self._stream.total
                    if self._stream is not None
                    else len(self._transactions)
                ),
                miners=len(self._miners),
                faults_active=self._fault_model is not None,
                unified=self._unified,
            )
        if self._stream is not None:
            # Paced streaming injection: the first batch lands at t=0
            # (mirroring the up-front inject), later ticks self-schedule.
            self._inject_iter = iter(self._stream)
            self._inject_tick()
        else:
            # The paper injects the whole workload up front. The union of
            # every ledger's confirmed set over the txs it routed to a
            # populated shard, kept by the ledgers through confirms and
            # reorgs: the stop check, the lineage probe and the
            # retransmission sweep all read it.
            self._tally = ConfirmationTally(self._inject_batch(self._transactions))
            for node in self._nodes.values():
                node.ledger.watch(self._tally)

        if self._distribute_packet:
            self._scheduler.schedule_in(
                LEADER_BROADCAST_DELAY, self._broadcast_packet
            )
            self._scheduler.schedule_in(
                self._config.leader_timeout, self._leader_timeout_check
            )

        if (
            self._fault_model is not None
            and self._config.retransmit_interval is not None
        ):
            self._scheduler.schedule_in(
                self._config.retransmit_interval, self._retransmit_sweep
            )

        for public in self._nodes:
            self._schedule_mining(public)
        for calendar in self._shard_calendars.values():
            # One armed scheduler event per shard; the initial draws
            # above happened in per-miner order.
            calendar.rearm()

        if self._config.run_to_horizon:
            # Scenario mode: chain races must play out over the whole
            # horizon, so the confirmed-set stop condition is disabled.
            def drained() -> bool:
                return False

        elif self._stream is not None:
            # Streaming stop: the run is over once the stream is fully
            # injected AND every pool has drained — confirmed or
            # evicted, nothing more can ever be mined.
            nodes = list(self._nodes.values())

            def drained() -> bool:
                if not self._inject_done:
                    return False
                return all(len(node.mempool) == 0 for node in nodes)

        else:
            # The stop condition runs after EVERY event: an O(1) read.
            tally = self._tally

            def drained() -> bool:
                return not tally.missing

        if self._lineage:
            # The lineage probe piggybacks on the per-event stop-condition
            # check, so tx.confirmed events land at deterministic points.
            probe = self._make_lineage_probe()
            inner_drained = drained

            def drained() -> bool:  # noqa: F811 - deliberate wrap
                probe()
                return inner_drained()

        # Digest-neutral: a beat only reads (the stop condition and the
        # lineage probe see no change), so its scheduler entries shift
        # only the wall-sidecar counters.
        sample = None
        if self._telemetry is not None:
            sample = self._telemetry.arm(self._scheduler, self._heartbeat_state)

        self._scheduler.run(
            stop_condition=drained,
            max_events=(
                MAX_EVENTS
                if self._config.max_events is None
                else self._config.max_events
            ),
        )
        confirmed = self._confirmed_ids()
        evicted = sum(n.mempool.evictions for n in self._nodes.values())
        rejected = sum(n.stats.blocks_rejected for n in self._nodes.values())
        reasons = [
            reason
            for node in self._nodes.values()
            for reason in node.stats.rejection_reasons
        ]
        stats = (
            self._fault_model.stats if self._fault_model is not None else FaultStats()
        )
        stats.fallbacks = sum(
            n.stats.leader_fallbacks for n in self._nodes.values()
        )
        stats.equivocations_detected = sum(
            n.stats.packets_rejected for n in self._nodes.values()
        )
        if tracer is not None:
            per_shard = self._per_shard_confirmed()
            for shard, count in sorted(per_shard.items()):
                tracer.event(
                    "shard.confirmed",
                    time=self._scheduler.now,
                    phase="result",
                    shard=shard,
                    confirmed=count,
                )
            tracer.event(
                "run.complete",
                time=self._scheduler.now,
                phase="result",
                confirmed=len(confirmed),
                blocks_rejected=rejected,
                drops=stats.messages_lost,
                retransmissions=stats.retransmissions,
                fallbacks=stats.fallbacks,
                equivocations_detected=stats.equivocations_detected,
                # Scheduler internals ride in the wall sidecar, which is
                # excluded from the trace digest: they move with
                # scheduling changes that leave the run itself intact.
                wall={
                    "events_fired": self._scheduler.events_fired,
                    "peak_pending": self._scheduler.peak_pending,
                },
            )
        if sample is not None:
            sample()  # final snapshot
        return ProtocolResult(
            duration=self._scheduler.now,
            confirmed_tx_ids=confirmed,
            blocks_rejected=rejected,
            rejection_reasons=reasons,
            per_shard_confirmed=self._per_shard_confirmed(),
            rewards=self._rewards,
            drops=stats.messages_lost,
            retransmissions=stats.retransmissions,
            fallbacks=stats.fallbacks,
            equivocations_detected=stats.equivocations_detected,
            fault_stats=stats,
            evicted=evicted,
            trace=tracer,
        )

    # ------------------------------------------------------------------
    # telemetry (digest-neutral: pure reads, no trace events, no RNG)
    # ------------------------------------------------------------------
    def _heartbeat_state(self) -> dict[str, object]:
        """A heartbeat's deterministic fields: live simulation state."""
        pool_depths: dict[int, int] = {}
        evicted = 0
        for node in self._nodes.values():
            depth = len(node.mempool)
            shard = node.shard_id
            if depth > pool_depths.get(shard, -1):
                pool_depths[shard] = depth
            evicted += node.mempool.evictions
        return {
            "injected": self._injected,
            "confirmed": sum(self._per_shard_confirmed().values()),
            "evicted": evicted,
            "pool_depths": pool_depths,
        }

    def shard_stats(self) -> ShardStats:
        """The per-shard load picture of the finished run.

        A fold of what the run keeps anyway: blocks forged and empty
        from the reward ledger, confirmations from the ledgers, mempool
        peaks and evictions from the nodes, and the home-shard ->
        executed-shard traffic matrix from the injected workload. A
        list is classified with the run's call graph, which saw it all
        up front; a stream's injected prefix is replayed through a
        fresh call graph, observing then classifying each transaction
        as injection did.
        """
        stats = ShardStats()
        per_shard = self._per_shard_confirmed()
        for node in self._nodes.values():
            entry = stats.load(node.shard_id)
            entry.txs_confirmed = per_shard[node.shard_id]
            entry.mempool_peak = max(entry.mempool_peak, node.mempool.peak)
            entry.evictions += node.mempool.evictions
        shard_of = self._assignment.shard_of
        rewards = self._rewards
        for miner, forged in rewards.blocks_mined.items():
            entry = stats.load(shard_of[miner])
            entry.blocks_forged += forged
            entry.blocks_empty += rewards.empty_blocks_mined.get(miner, 0)
        if self._stream is None:
            txs, callgraph, observe = self._transactions, self._callgraph, None
        else:
            txs = itertools.islice(self._stream, self._injected)
            callgraph = CallGraph()
            observe = callgraph.observe
        shard_map = self._shard_map
        homes = shard_map.contract_to_shard
        for tx in txs:
            if observe is not None:
                observe(tx)
            # A direct transfer (no contract) is homed on the MaxShard.
            home = homes.get(tx.contract, MAXSHARD_ID)
            stats.record_route(home, shard_map.shard_of_transaction(tx, callgraph))
        return stats

    def _make_lineage_probe(self):
        """Detector for the confirmation edge of transaction lineages.

        Returns a closure the run loop calls after every event. It reads
        the edges the run's :class:`ConfirmationTally` collected since
        the last call: each transaction that entered the union of
        confirmed sets for the first time emits one ``tx.confirmed``
        event, attributed to the confirming ledger's shard, and each
        that left it (every node reorged it out) emits ``tx.reverted``
        — the safety-violation edge adversarial scenarios detect shard
        takeovers by. ``tx.confirmed`` stays first-only; ``tx.reverted``
        fires on every exit. Each batch is emitted in workload-index
        order.
        """
        tracer = self._tracer
        tx_index = self._tx_index
        tally = self._tally
        tally.edges = {}
        confirming = tally.confirming
        known: set[str] = set()

        def probe() -> None:
            edges = tally.edges
            if not edges:
                return
            tally.edges = {}
            fresh: list[tuple[int, int]] = []
            reverted: list[int] = []
            for tx_id, shard in edges.items():
                if not confirming[tx_id]:
                    reverted.append(tx_index[tx_id])
                elif tx_id not in known:
                    known.add(tx_id)
                    fresh.append((tx_index[tx_id], shard))
            for idx, shard in sorted(fresh):
                tracer.event(
                    "tx.confirmed",
                    time=self._scheduler.now,
                    phase="confirm",
                    shard=shard,
                    tx=idx,
                )
            for idx in sorted(reverted):
                tracer.event(
                    "tx.reverted",
                    time=self._scheduler.now,
                    phase="confirm",
                    tx=idx,
                )

        return probe

    # ------------------------------------------------------------------
    # injection: one t=0 batch for a list, paced ticks for a stream
    # ------------------------------------------------------------------
    def _pool_high_water(self) -> int:
        return max(
            (len(node.mempool) for node in self._nodes.values()), default=0
        )

    def _inject_tick(self) -> None:
        """One paced injection step: backpressure check, then a batch.

        With a ``mempool_limit`` the tick defers — consuming nothing
        from the stream — while any pool is at the limit, so injection
        rides just behind confirmation instead of drowning the nodes.
        Each transaction is classified once by the coordinator and
        handed only to its shard's nodes: foreign nodes would ignore it
        anyway, and skipping them keeps the hot path O(shard), not
        O(network).
        """
        config = self._config
        limit = config.mempool_limit
        if limit is not None and self._pool_high_water() >= limit:
            if self._tracer is not None:
                self._tracer.event(
                    "inject.defer",
                    time=self._scheduler.now,
                    phase="inject",
                    pool_load=self._pool_high_water(),
                    injected=self._injected,
                )
            self._scheduler.schedule_in(config.inject_interval, self._inject_tick)
            return
        batch = list(itertools.islice(self._inject_iter, config.inject_batch))
        if batch:
            self._inject_batch(batch)
            if self._tracer is not None:
                self._tracer.event(
                    "inject.batch",
                    time=self._scheduler.now,
                    phase="inject",
                    txs=len(batch),
                    injected=self._injected,
                )
        if len(batch) < config.inject_batch:
            self._inject_done = True
            if self._injected != self._stream.total:
                raise SimulationError(
                    f"stream {self._stream.description!r} yielded "
                    f"{self._injected} transactions but declared "
                    f"{self._stream.total}"
                )
            if self._tracer is not None:
                self._tracer.event(
                    "inject.done",
                    time=self._scheduler.now,
                    phase="inject",
                    injected=self._injected,
                )
            return
        self._scheduler.schedule_in(config.inject_interval, self._inject_tick)

    def _inject_batch(self, batch: list[Transaction]) -> list[str]:
        """The one way a workload enters the network, list or stream.

        Each transaction is classified once, in batch order. Each replica then gets its shard's slice in one
        call that provisions the state the slice needs. Fault-free, one
        more call pools the slice there; under a fault plan each
        (off-network) user announces its transaction over the lossy
        network, in batch order.
        Returns the ids of the transactions a populated shard can confirm.
        """
        observe = self._callgraph.observe if self._stream is not None else None
        classify, shard_nodes = self._classify, self._shard_nodes
        shards: list[int] = []
        slices: dict[int, list[Transaction]] = {}
        routed: list[str] = []
        for tx in batch:
            if observe is not None:
                # A stream's call graph must see the edge before the shard
                # rule can classify the sender (observe is idempotent).
                observe(tx)
            shard = classify(tx)
            shards.append(shard)
            if shard in shard_nodes:
                routed.append(tx.tx_id)
                slices.setdefault(shard, []).append(tx)
        faulty = self._fault_model is not None
        pooled: dict[FullNode, set[str]] = {}
        for shard, txs in slices.items():
            for node in shard_nodes[shard]:
                node.provision(txs, INITIAL_BALANCE)
                if not faulty:
                    admitted = node.pool(txs)
                    if self._lineage:
                        pooled[node] = {tx.tx_id for tx in admitted}
        if faulty:
            announce = self._network.broadcast
            for tx, shard in zip(batch, shards):
                announce(
                    MessageKind.TX, sender=f"user:{tx.sender}", payload=tx,
                    shard_id=shard,
                )
        elif self._lineage:
            # tx.seen in per-tx hand-off order: tx-major, replicas in order.
            for tx, shard in zip(batch, shards):
                for node in shard_nodes.get(shard, ()):
                    if tx.tx_id in pooled[node]:
                        self._note_pooled(node, tx)
        self._injected += len(batch)
        return routed

    # ------------------------------------------------------------------
    # failure handling: leader distribution, retransmission, fallback
    # ------------------------------------------------------------------
    def _broadcast_packet(self) -> None:
        """The leader distributes the unification packet (or deviates)."""
        leader = self._assignment.leader_public
        fault = self._config.fault_plan.leader if self._config.fault_plan else None
        tracer = self._tracer
        if fault is not None and fault.withholds:
            # Leader silence: nobody receives anything; honest miners hit
            # the timeout below and fall back to solo mining.
            if tracer is not None:
                tracer.event(
                    "leader.withhold",
                    time=self._scheduler.now,
                    phase="leader",
                    actor=leader,
                )
            return
        if tracer is not None:
            tracer.event(
                "leader.equivocate" if fault is not None and fault.equivocates
                else "leader.broadcast",
                time=self._scheduler.now,
                phase="leader",
                actor=leader,
                recipients=len(self._network.node_ids) - 1,
            )
        if fault is not None and fault.equivocates:
            # The leader keeps the canonical packet for herself but sends
            # everyone else a tampered variant whose digest cannot match
            # the public commitment.
            tampered = dataclasses.replace(
                self._packet, randomness=self._packet.randomness + "#equivocation"
            )
            if leader in self._nodes:
                self._nodes[leader].on_unification_packet(self._packet)
            self._network.multicast(
                MessageKind.LEADER_BROADCAST,
                sender=leader,
                payload=tampered,
                recipients=self._network.node_ids,
            )
            return
        if leader in self._nodes:
            self._nodes[leader].on_unification_packet(self._packet)
        self._network.multicast(
            MessageKind.LEADER_BROADCAST,
            sender=leader,
            payload=self._packet,
            recipients=self._network.node_ids,
        )

    def _leader_timeout_check(self) -> None:
        """Leader-silence deadline: un-unified fallback instead of stalling."""
        fallbacks = sum(1 for node in self._nodes.values() if node.fallback_to_solo())
        if self._tracer is not None:
            self._tracer.event(
                "leader.timeout",
                time=self._scheduler.now,
                phase="leader",
                fallbacks=fallbacks,
            )

    def _node_crashed(self, public: str) -> bool:
        return self._fault_model is not None and self._fault_model.crashed(
            public, self._scheduler.now
        )

    def _retransmit_sweep(self) -> None:
        """Periodic timeout-driven retransmission of lost traffic.

        Three repairs per sweep: users re-announce still-unconfirmed
        transactions, live nodes re-gossip their canonical tip blocks
        (healing dropped block gossip through the orphan buffer), and an
        honest leader re-sends the unification packet to nodes that have
        neither installed nor given up on it.
        """
        confirming = self._tally.confirming
        txs_reannounced = 0
        blocks_regossiped = 0
        for tx in self._transactions:
            if confirming.get(tx.tx_id):
                continue
            txs_reannounced += 1
            sent = self._network.broadcast(
                MessageKind.TX, sender=f"user:{tx.sender}", payload=tx,
                shard_id=self._classify(tx),
            )
            if sent:
                self._fault_model.note_retransmission()
        for public, node in self._nodes.items():
            if self._node_crashed(public):
                continue
            for block in node.canonical_tip_blocks(self._config.retransmit_blocks):
                blocks_regossiped += 1
                sent = self._network.broadcast(
                    MessageKind.BLOCK, sender=public, payload=block,
                    shard_id=self._home_of(block),
                )
                if sent:
                    self._fault_model.note_retransmission()
        packet_resends = self._retransmit_packet()
        if self._tracer is not None:
            self._tracer.event(
                "retransmit.sweep",
                time=self._scheduler.now,
                phase="retransmit",
                txs_reannounced=txs_reannounced,
                blocks_regossiped=blocks_regossiped,
                packet_resends=packet_resends,
            )
        self._scheduler.schedule_in(
            self._config.retransmit_interval, self._retransmit_sweep
        )

    def _retransmit_packet(self) -> int:
        """An honest, live leader re-sends the packet to uncovered nodes.

        Returns how many re-sends were attempted (for the sweep trace).
        """
        if not self._distribute_packet:
            return 0
        fault = self._config.fault_plan.leader if self._config.fault_plan else None
        if fault is not None:
            return 0  # a faulty leader does not helpfully retransmit
        leader = self._assignment.leader_public
        if self._node_crashed(leader):
            return 0
        uncovered = [
            public
            for public, node in self._nodes.items()
            if public != leader
            and not node.has_unified_replay
            # A node with a leader fallback already mines solo.
            and node.stats.leader_fallbacks == 0
        ]
        sent = self._network.multicast(
            MessageKind.LEADER_BROADCAST,
            sender=leader,
            payload=self._packet,
            recipients=uncovered,
        )
        self._fault_model.note_retransmission(sent)
        return len(uncovered)

    def _schedule_mining(self, public: str) -> None:
        # Array-only update; the shard calendar re-arms its single
        # scheduler event after the current mine step returns.
        delay = self._mining[public].next_block_time()
        self._miner_calendar[public].set_next(public, self._scheduler.now + delay)

    def _mine(self, public: str) -> None:
        node = self._nodes[public]
        if self._node_crashed(public):
            # Crash-aware schedule: a dead miner skips the slot; PoW is
            # memoryless so a fresh draw on recovery is exact.
            self._schedule_mining(public)
            return
        if self._distribute_packet and not (
            node.has_unified_replay or node.stats.leader_fallbacks > 0
        ):
            # Unified epochs start from the leader's parameters: without a
            # verified packet (and before the fallback deadline) the miner
            # idles instead of guessing a selection.
            self._schedule_mining(public)
            return
        block = node.forge_block(
            timestamp=self._scheduler.now, capacity=self._config.block_capacity
        )
        node.behavior.observe_forged(block)
        node.adopt_block(block)
        # Working-set hygiene for stateful behaviors (assigned-selection
        # packers compact confirmed ids); honest behaviors no-op.
        node.behavior.note_confirmed(node.ledger.confirmed_tx_ids())
        self._rewards.credit_block(block)
        if self._tracer is not None:
            # The per-shard confirmation timeline: every forged block
            # records how far its shard's confirmations have advanced.
            tx_count = len(block.transactions)
            attrs: dict = {}
            if self._lineage:
                # Workload indexes of the packed transactions — the
                # inclusion edge of each transaction's causal lineage.
                attrs["tx_idx"] = [
                    self._tx_index[tx.tx_id]
                    for tx in block.transactions
                    if tx.tx_id in self._tx_index
                ]
            self._tracer.event(
                "block.forged",
                time=self._scheduler.now,
                phase="mine",
                shard=node.shard_id,
                actor=public,
                height=block.header.height,
                txs=tx_count,
                empty=tx_count == 0,
                confirmed_in_shard=len(node.ledger.confirmed_tx_ids()),
                **attrs,
            )
        targets = node.behavior.broadcast_targets(self._network.node_ids)
        home = self._home_of(block)
        if targets is None:
            self._network.broadcast(
                MessageKind.BLOCK, sender=public, payload=block, shard_id=home
            )
        else:
            # Withholding adversary: the block reaches only the chosen
            # recipients, one latency draw per actual recipient in list
            # order.
            self._network.multicast(
                MessageKind.BLOCK,
                sender=public,
                payload=block,
                recipients=targets,
                shard_id=home,
            )
        self._schedule_mining(public)

    def _home_of(self, block) -> int | None:
        """The shard a gossiped block belongs to, or ``None``.

        The claimed shard, once the two checks every receiver would make
        alike pass: the header commits to the body and the packer is a
        member of the claimed shard. A block that fails either has no
        home, so every receiver inspects (and rejects) it itself.
        """
        shard = block.header.shard_id
        if block.commits_to_body() and self._verifier(block.header.miner, shard):
            return shard
        return None

    # ------------------------------------------------------------------
    # result assembly
    # ------------------------------------------------------------------
    def _confirmed_ids(self) -> set[str]:
        confirmed: set[str] = set()
        for node in self._nodes.values():
            confirmed |= node.ledger.confirmed_tx_ids()
        return confirmed

    def _per_shard_confirmed(self) -> dict[int, int]:
        per_shard: dict[int, int] = {}
        for node in self._nodes.values():
            count = len(node.ledger.confirmed_tx_ids())
            previous = per_shard.get(node.shard_id, 0)
            per_shard[node.shard_id] = max(previous, count)
        return per_shard
