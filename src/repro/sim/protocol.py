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
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import random
from dataclasses import dataclass, field

from repro.chain.callgraph import CallGraph
from repro.chain.fees import FeePolicy
from repro.chain.ledger import ConfirmationTally
from repro.chain.transaction import Transaction
from repro.consensus.miner import MinerBehavior, MinerIdentity
from repro.consensus.pow import MiningCalendar, MiningProcess, PoWParameters
from repro.consensus.rewards import RewardLedger
from repro.core.bitset import Bitset
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
        Shard-load telemetry: a
        :class:`~repro.observe.telemetry.Telemetry` collector to feed,
        ``True`` for a fresh collector with the default heartbeat
        interval, ``False`` to force telemetry off, or ``None``
        (default) to join an active ``use_telemetry`` scope if one
        exists. Telemetry is digest-neutral by contract: heartbeats
        never emit trace events, never consume simulation randomness,
        and keep every wall-clock quantity in the sample's ``wall``
        sidecar, so all recorded digests are bit-identical with
        telemetry on or off (enforced by tests and CI).
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
    # Per-shard load accounting + cross-shard traffic matrix, built
    # when telemetry was enabled for the run (None otherwise).
    shard_stats: ShardStats | None = None

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
        # Per-shard [forged, empty] block counts and the home→executed
        # traffic matrix, accumulated only when telemetry is on.
        self._shard_blocks: dict[int, list[int]] = {}
        self._traffic: dict[int, dict[int, int]] = {}
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
        # Dense bitmap, not set[int]: lineage runs at streaming scales
        # previously held every seen index at ~80 bytes a member.
        self._seen_txs = Bitset(
            len(self._transactions) if self._lineage else 0
        )
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

        self._scheduler = Scheduler()
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

    def _unified_behavior(self, public: str, shard: int) -> MinerBehavior | None:
        """The game-assigned behavior for a miner under unification."""
        from repro.consensus.miner import AssignedSelectionBehavior
        from repro.errors import UnificationError

        if self._replay is None:
            return None
        try:
            assigned = self._replay.assigned_tx_ids(shard, public)
        except UnificationError:
            return None
        return AssignedSelectionBehavior(list(assigned))

    def _classifier(self):
        shard_map, callgraph = self._shard_map, self._callgraph

        def classify(tx: Transaction) -> int:
            return shard_map.shard_of_transaction(tx, callgraph)

        return classify

    def _build_nodes(self) -> None:
        verifier = self._assignment.verifier()
        # Each shard's replicas, in node order: the coordinator classifies
        # a transaction once and hands it to exactly these nodes.
        self._shard_nodes: dict[int, list[FullNode]] = {}
        seed_rng = random.Random(self._config.seed)
        for miner in self._miners:
            shard = self._assignment.shard_of[miner.public]
            behavior = self._behaviors.get(miner.public)
            if behavior is None and not self._distribute_packet:
                behavior = self._unified_behavior(miner.public, shard)
            node = FullNode(
                identity=miner,
                shard_id=shard,
                membership_verifier=verifier,
                tx_classifier=self._classify,
                behavior=behavior,
                selection_replay=(
                    None if self._distribute_packet else self._replay
                ),
                packet_commitment=self._commitment,
                mempool_limit=self._config.mempool_limit,
            )
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
        # Execute once per shard; a lone replica records no images.
        for replicas in self._shard_nodes.values():
            if len(replicas) > 1:
                images = ImageTable(len(replicas))
                for node in replicas:
                    node.images = images

    def _note_pooled(self, node: FullNode, tx: Transaction) -> None:
        """Lineage: first-seen gossip — the first pooling of a tx anywhere."""
        idx = self._tx_index.get(tx.tx_id)
        if idx is None or idx in self._seen_txs:
            return
        self._seen_txs.add(idx)
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

    @property
    def telemetry(self) -> Telemetry | None:
        """The run's resolved telemetry collector (None when off)."""
        return self._telemetry

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

        telemetry = self._telemetry
        if telemetry is not None:
            telemetry.start()
            interval = telemetry.heartbeat_interval
            if interval is not None:
                # A self-re-arming probe event. Digest-neutral: the
                # callback only *reads* simulation state (stop
                # conditions are pure reads re-evaluated after every
                # event, and the lineage probe sees no head movement),
                # emits no trace events, and draws no randomness. Extra
                # scheduler entries shift only the wall-sidecar counters
                # (events_fired, peak_pending).
                horizon = self._config.max_duration

                def beat() -> None:
                    self._sample_heartbeat(telemetry)
                    if self._scheduler.now + interval <= horizon:
                        self._scheduler.schedule_in(interval, beat)

                self._scheduler.schedule_in(interval, beat)

        self._scheduler.run(
            until=self._config.max_duration,
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
        shard_stats: ShardStats | None = None
        if telemetry is not None:
            self._sample_heartbeat(telemetry)  # final snapshot
            shard_stats = self._build_shard_stats()
            telemetry.shard_stats = shard_stats
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
            shard_stats=shard_stats,
        )

    # ------------------------------------------------------------------
    # telemetry (digest-neutral: pure reads, no trace events, no RNG)
    # ------------------------------------------------------------------
    def _sample_heartbeat(self, telemetry: Telemetry) -> None:
        """One heartbeat snapshot of live simulation state."""
        pool_depths: dict[int, int] = {}
        evicted = 0
        for node in self._nodes.values():
            depth = len(node.mempool)
            shard = node.shard_id
            if depth > pool_depths.get(shard, -1):
                pool_depths[shard] = depth
            evicted += node.mempool.evictions
        confirmed = sum(self._per_shard_confirmed().values())
        telemetry.heartbeat(
            time=self._scheduler.now,
            injected=self._injected,
            confirmed=confirmed,
            evicted=evicted,
            pool_depths=pool_depths,
            events_fired=self._scheduler.events_fired,
            pending=self._scheduler.pending,
            peak_pending=self._scheduler.peak_pending,
        )

    def _build_shard_stats(self) -> ShardStats:
        """Assemble the per-shard load picture at run end."""
        stats = ShardStats()
        per_shard = self._per_shard_confirmed()
        pool_peaks: dict[int, int] = {}
        pool_evictions: dict[int, int] = {}
        for node in self._nodes.values():
            shard = node.shard_id
            pool_peaks[shard] = max(
                pool_peaks.get(shard, 0), node.mempool.peak
            )
            pool_evictions[shard] = (
                pool_evictions.get(shard, 0) + node.mempool.evictions
            )
        for shard in sorted(
            set(per_shard) | set(self._shard_blocks) | set(pool_peaks)
        ):
            entry = stats.load(shard)
            forged, empty = self._shard_blocks.get(shard, (0, 0))
            entry.blocks_forged = forged
            entry.blocks_empty = empty
            entry.txs_confirmed = per_shard.get(shard, 0)
            entry.mempool_peak = pool_peaks.get(shard, 0)
            entry.evictions = pool_evictions.get(shard, 0)
        for home, row in self._traffic.items():
            for executed, count in row.items():
                stats.record_route(home, executed, count)
        return stats

    def _route(self, tx: Transaction, shard: int) -> None:
        """Count ``tx`` in the home-shard -> executed-shard matrix."""
        home = MAXSHARD_ID
        if tx.contract is not None:
            home = self._shard_map.contract_to_shard.get(tx.contract, MAXSHARD_ID)
        row = self._traffic.setdefault(home, {})
        row[shard] = row.get(shard, 0) + 1

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

        Each transaction is classified once, routed for telemetry, and
        its shard's replicas are provisioned with the state it needs.
        Fault-free, it is then pooled there directly; under a fault plan
        its (off-network) user announces it over the lossy network.
        Returns the ids of the transactions a populated shard can confirm.
        """
        observe = self._callgraph.observe if self._stream is not None else None
        classify, shard_nodes = self._classify, self._shard_nodes
        announce = (
            None if self._fault_model is None else self._network.broadcast
        )
        balance = INITIAL_BALANCE
        telemetry = self._telemetry
        routed: list[str] = []
        for tx in batch:
            if observe is not None:
                # A stream's call graph must see the edge before the shard
                # rule can classify the sender (observe is idempotent).
                observe(tx)
            shard = classify(tx)
            if telemetry is not None:
                self._route(tx, shard)
            replicas = shard_nodes.get(shard, ())
            if replicas:
                routed.append(tx.tx_id)
            if announce is None:
                for node in replicas:
                    node.provision(tx, balance)
                    node.pool(tx)
            else:
                for node in replicas:
                    node.provision(tx, balance)
                announce(MessageKind.TX, sender=f"user:{tx.sender}", payload=tx)
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
                MessageKind.TX, sender=f"user:{tx.sender}", payload=tx
            )
            if sent:
                self._fault_model.note_retransmission()
        for public, node in self._nodes.items():
            if self._node_crashed(public):
                continue
            for block in node.canonical_tip_blocks(self._config.retransmit_blocks):
                blocks_regossiped += 1
                sent = self._network.broadcast(
                    MessageKind.BLOCK, sender=public, payload=block
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
        if self._scheduler.now + self._config.retransmit_interval <= (
            self._config.max_duration
        ):
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
        if self._telemetry is not None:
            entry = self._shard_blocks.setdefault(node.shard_id, [0, 0])
            entry[0] += 1
            if not block.transactions:
                entry[1] += 1
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
        if targets is None:
            self._network.broadcast(
                MessageKind.BLOCK, sender=public, payload=block, shard_id=None
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
                shard_id=None,
            )
        self._schedule_mining(public)

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
