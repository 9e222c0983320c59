"""The adversarial scenario library: five attacks, one registry.

Each scenario compiles to a :class:`~repro.scenarios.base.ScenarioRun`
and executes through the full protocol engine. The attacks and
their paper anchors:

========== ========================================================
takeover    coalition at the binomial corruption threshold forks a
            shard empty (Sec. III-B, Eq. 3, Fig. 1d)
double-spend cross-shard double spend forced through MaxShard
            unification (Sec. III-A, Fig. 1b)
griefing    fee-griefing spam plus selection-liars against the
            congestion-game selection (Sec. IV-B/IV-C)
eclipse     withholding coalition plus a partition isolates one
            victim node (eclipse-lite; robustness of Sec. III-C)
adaptive    identity-grinding adversary concentrates power on the
            smallest shard (the Sec. III-B small-shard worry that
            motivates merging, Eq. 4-6)
========== ========================================================
"""

from __future__ import annotations

import random

from repro.chain.transaction import Transaction, TransactionKind
from repro.consensus.miner import MinerIdentity, SelectionLiarBehavior
from repro.consensus.pow import PoWParameters
from repro.core.miner_assignment import assign_miners, draw_shard
from repro.core.shard_formation import form_shards, partition_transactions
from repro.errors import ScenarioError
from repro.faults.plan import FaultPlan, Partition
from repro.net.network import LatencyModel
from repro.scenarios.adversary import (
    CensorshipForkBehavior,
    ForkTracker,
    WithholdingBehavior,
)
from repro.scenarios.base import Scenario, ScenarioOutcome, ScenarioRun
from repro.scenarios.detection import (
    DetectionReport,
    count_events,
    first_event_time,
    reverted_tx_indexes,
)
from repro.sim.protocol import ProtocolConfig
from repro.workloads.generators import (
    WorkloadBuilder,
    _contract_address,
    single_shard_workload,
)

#: ~1 block per second per unit hashrate: fast enough that a 60-second
#: horizon holds a real chain race, slow enough that propagation (~10ms)
#: stays far below the block interval.
_FAST_BLOCKS = PoWParameters(difficulty=0x40000 // 60)
_LAN = LatencyModel(base_seconds=0.01, jitter_seconds=0.01)


def _identities(prefix: str, seed: int, count: int) -> list[MinerIdentity]:
    return [MinerIdentity.create(f"{prefix}-{seed}-{i}") for i in range(count)]


def _distinct_fees(seed_tag: str, count: int, high: int = 1000) -> list[int]:
    """``count`` pairwise-distinct fees, deterministic in ``seed_tag``.

    Scenario workloads must never contain fee ties: the fee-greedy
    tie-break falls back to transaction ids, which embed a process-local
    serial — a tie would make the packing order (and hence the trace
    digest) depend on how many transactions the process created before
    the scenario. Distinct fees keep (scenario, seed) digests stable
    across processes.
    """
    rng = random.Random(f"fees-{seed_tag}")
    return rng.sample(range(1, high + 1), count)


def _sample_coalition(publics, count: int, seed: int) -> frozenset[str]:
    rng = random.Random(f"coalition-{seed}")
    return frozenset(rng.sample(sorted(publics), count))


class ShardTakeoverScenario(Scenario):
    """Coordinated shard takeover at the binomial corruption threshold.

    ``adversaries`` of ``miners`` shard members run a coalition-pure
    censorship fork (empty blocks from genesis). With a strict majority
    (the default: 5 of 9) the fork outpaces the honest branch: honest
    confirmations revert and the workload ends censored — the corrupted
    outcome Eq. 3 assigns probability :func:`shard_corruption_probability`.
    With a minority (``adversaries=3``) the honest branch wins and the
    run stays safe. All miners sit in one shard (degenerate fractions),
    making this the single-shard experiment behind Fig. 1d.
    """

    name = "takeover"
    summary = "majority coalition censors a shard via an empty private fork"
    paper_ref = "Sec. III-B, Eq. 3, Fig. 1d"

    def __init__(
        self,
        miners: int = 9,
        adversaries: int = 5,
        txs: int = 8,
        horizon: float = 60.0,
    ) -> None:
        if adversaries > miners:
            raise ScenarioError(
                f"takeover needs adversaries <= miners, got {adversaries} > {miners}"
            )
        self.miners = miners
        self.adversaries = adversaries
        self.txs = txs
        self.horizon = horizon

    def build(self, seed: int) -> ScenarioRun:
        idents = _identities("take", seed, self.miners)
        workload = single_shard_workload(
            self.txs, fees=_distinct_fees(f"take-{seed}", self.txs), seed=seed
        )
        # Pin every miner into the workload's single contract shard so
        # the takeover is a pure intra-shard chain race.
        assignment = assign_miners(
            idents, {1: 100.0}, epoch_seed=f"takeover-{seed}"
        )
        coalition = _sample_coalition(
            (m.public for m in idents), self.adversaries, seed
        )
        tracker = ForkTracker()
        behaviors = {pub: CensorshipForkBehavior(tracker) for pub in coalition}
        config = ProtocolConfig(
            pow_params=_FAST_BLOCKS,
            latency=_LAN,
            seed=seed,
            max_duration=self.horizon,
            run_to_horizon=True,
        )
        return ScenarioRun(
            miners=idents,
            transactions=workload,
            config=config,
            behaviors=behaviors,
            assignment=assignment,
            adversaries=coalition,
            victim_shard=1,
            notes={"tracker": tracker},
        )

    def detect(self, outcome: ScenarioOutcome) -> DetectionReport:
        run = outcome.run
        reverted = reverted_tx_indexes(outcome.lineages)
        confirmed = outcome.honest_confirmed_indexes()
        censored = len(set(range(len(run.transactions))) - confirmed)
        # Adversary share of an honest node's canonical chain: how far
        # the fork actually got, as seen by the defenders.
        reference = outcome.sim.node(outcome.honest_publics()[0])
        chain = reference.ledger.canonical_chain()[1:]  # skip genesis
        adversary_blocks = sum(
            1 for block in chain if block.header.miner in run.adversaries
        )
        share = adversary_blocks / len(chain) if chain else 0.0
        time_to_detect = first_event_time(outcome.payloads, "tx.reverted")
        detected = bool(reverted) or censored > 0
        return DetectionReport(
            scenario=self.name,
            seed=outcome.seed,
            safety_violated=bool(reverted) or censored > 0,
            detected=detected,
            time_to_detect=time_to_detect,
            txs_reverted=len(reverted),
            txs_censored=censored,
            blocks_rejected=outcome.result.blocks_rejected,
            equivocations_detected=outcome.result.equivocations_detected,
            fallbacks=outcome.result.fallbacks,
            adversaries=len(run.adversaries),
            adversary_share=len(run.adversaries) / len(run.miners),
            victim_shard=run.victim_shard,
            confirmed=len(confirmed),
            duration=outcome.result.duration,
            extras=(
                ("adversary_canonical_share", round(share, 4)),
                ("fork_depth", run.notes["tracker"].depth),
                ("reversion_events", count_events(outcome.payloads, "tx.reverted")),
            ),
        )


class CrossShardDoubleSpendScenario(Scenario):
    """Double spend across contract shards, unified through the MaxShard.

    Each attacking sender issues two conflicting nonce-0 calls against
    *different* contracts. Under the Sec. III-A rule a multi-contract
    sender is MaxShard business, so both twins land in the same shard
    and the same total order: at most one confirms, the other fails
    nonce validation forever. ``safety_violated`` would mean both twins
    of some pair confirmed in the honest view.
    """

    name = "double-spend"
    summary = "conflicting cross-contract pairs forced into one MaxShard order"
    paper_ref = "Sec. III-A, Fig. 1b"

    def __init__(
        self,
        miners: int = 8,
        pairs: int = 3,
        fillers_per_shard: int = 4,
        horizon: float = 45.0,
    ) -> None:
        self.miners = miners
        self.pairs = pairs
        self.fillers_per_shard = fillers_per_shard
        self.horizon = horizon

    def build(self, seed: int) -> ScenarioRun:
        builder = WorkloadBuilder(seed=seed)
        contract_a = _contract_address(1)
        contract_b = _contract_address(2)
        fees = iter(
            _distinct_fees(
                f"ds-{seed}", 2 * self.pairs + 2 * self.fillers_per_shard + 1
            )
        )
        txs: list[Transaction] = []
        pair_indexes: list[tuple[int, int]] = []
        for i in range(self.pairs):
            sender = f"0xuds-{seed}-{i}"
            first = builder.contract_call(
                sender, contract_a, fee=next(fees), amount=5
            )
            # The conflicting twin reuses nonce 0 by hand — the builder
            # would auto-increment, and a double spend needs the clash.
            second = Transaction(
                sender=sender,
                recipient=contract_b,
                amount=5,
                fee=next(fees),
                kind=TransactionKind.CONTRACT_CALL,
                contract=contract_b,
                nonce=0,
            )
            txs.extend((first, second))
            pair_indexes.append((len(txs) - 2, len(txs) - 1))
        for shard, contract in ((1, contract_a), (2, contract_b)):
            for j in range(self.fillers_per_shard):
                txs.append(
                    builder.contract_call(
                        f"0xuf{shard}-{seed}-{j}", contract, fee=next(fees)
                    )
                )
        txs.append(
            builder.direct_transfer(
                f"0xud-{seed}-a", f"0xud-{seed}-b", fee=next(fees)
            )
        )
        idents = _identities("ds", seed, self.miners)
        config = ProtocolConfig(
            pow_params=_FAST_BLOCKS,
            latency=_LAN,
            seed=seed,
            max_duration=self.horizon,
        )
        return ScenarioRun(
            miners=idents,
            transactions=txs,
            config=config,
            victim_shard=0,  # the MaxShard arbitrates the conflict
            notes={"pairs": tuple(pair_indexes)},
        )

    def detect(self, outcome: ScenarioOutcome) -> DetectionReport:
        run = outcome.run
        confirmed = outcome.honest_confirmed_indexes()
        pairs = run.notes["pairs"]
        both = sum(1 for a, b in pairs if a in confirmed and b in confirmed)
        blocked = sum(1 for a, b in pairs if (a in confirmed) != (b in confirmed))
        undecided = len(pairs) - both - blocked
        decision_times = []
        for a, b in pairs:
            winners = [
                outcome.lineages[idx].confirmed_at
                for idx in (a, b)
                if outcome.lineages[idx].confirmed_at is not None
            ]
            if winners:
                decision_times.append(min(winners))
        time_to_detect = max(decision_times) if len(decision_times) == len(pairs) else None
        reverted = reverted_tx_indexes(outcome.lineages)
        return DetectionReport(
            scenario=self.name,
            seed=outcome.seed,
            safety_violated=both > 0,
            detected=blocked == len(pairs) and both == 0,
            time_to_detect=time_to_detect,
            txs_reverted=len(reverted),
            txs_censored=blocked,  # the losing twins, blocked by design
            blocks_rejected=outcome.result.blocks_rejected,
            equivocations_detected=outcome.result.equivocations_detected,
            fallbacks=outcome.result.fallbacks,
            adversaries=len(pairs),  # attacking senders, not miners
            adversary_share=0.0,
            victim_shard=run.victim_shard,
            confirmed=len(confirmed),
            duration=outcome.result.duration,
            extras=(
                ("both_confirmed_pairs", both),
                ("blocked_pairs", blocked),
                ("undecided_pairs", undecided),
            ),
        )


class FeeGriefingScenario(Scenario):
    """Spam plus selection-liars against the unified selection game.

    A unified single-shard run where high-fee spam floods the mempool
    and two miners ignore their game-assigned sets to grab the spam fees
    greedily. Honest nodes replay the unified selection locally and
    reject every deviating block (Sec. IV-C), so the griefers' revenue
    never enters the honest chain; detection is the first
    ``block.rejected`` event.
    """

    name = "griefing"
    summary = "fee spam plus selection-liars rejected by unified replay"
    paper_ref = "Sec. IV-B/IV-C"

    def __init__(
        self,
        miners: int = 8,
        liars: int = 2,
        honest_txs: int = 14,
        spam_txs: int = 16,
        horizon: float = 150.0,
    ) -> None:
        self.miners = miners
        self.liars = liars
        self.honest_txs = honest_txs
        self.spam_txs = spam_txs
        self.horizon = horizon

    def build(self, seed: int) -> ScenarioRun:
        idents = _identities("grief", seed, self.miners)
        builder = WorkloadBuilder(seed=seed)
        contract = _contract_address(1)
        txs: list[Transaction] = []
        # Disjoint fee bands (honest low, spam high), distinct within
        # each band so the packing order never falls back to tx-id ties.
        rng = random.Random(f"grief-fees-{seed}")
        honest_fees = rng.sample(range(1, 60), self.honest_txs)
        spam_fees = rng.sample(range(80, 200), self.spam_txs)
        for i in range(self.honest_txs):
            txs.append(
                builder.contract_call(
                    f"0xuh-{seed}-{i}", contract, fee=honest_fees[i]
                )
            )
        for i in range(self.spam_txs):
            txs.append(
                builder.contract_call(
                    f"0xus-{seed}-{i}", contract, fee=spam_fees[i]
                )
            )
        assignment = assign_miners(idents, {1: 100.0}, epoch_seed=f"griefing-{seed}")
        liar_set = _sample_coalition((m.public for m in idents), self.liars, seed)
        behaviors = {pub: SelectionLiarBehavior() for pub in liar_set}
        config = ProtocolConfig(
            pow_params=_FAST_BLOCKS,
            latency=_LAN,
            seed=seed,
            max_duration=self.horizon,
        )
        return ScenarioRun(
            miners=idents,
            transactions=txs,
            config=config,
            behaviors=behaviors,
            unified=True,
            assignment=assignment,
            adversaries=liar_set,
            victim_shard=1,
            notes={
                "honest_idx": frozenset(range(self.honest_txs)),
                "spam_idx": frozenset(
                    range(self.honest_txs, self.honest_txs + self.spam_txs)
                ),
            },
        )

    def detect(self, outcome: ScenarioOutcome) -> DetectionReport:
        run = outcome.run
        confirmed = outcome.honest_confirmed_indexes()
        honest_idx = run.notes["honest_idx"]
        censored = len(honest_idx - confirmed)
        liar_blocks = sum(
            outcome.result.rewards.blocks_mined.get(pub, 0)
            for pub in run.adversaries
        )
        reverted = reverted_tx_indexes(outcome.lineages)
        rejected = outcome.result.blocks_rejected
        # The unified replay keeps every deviating block out of every
        # honest chain, so honest-view safety holds by construction
        # (Sec. IV-C); the attack's damage is liveness — the liars'
        # assigned sets go unserved (txs_censored) — plus the trace
        # churn of the liars reorging their own private chains, which
        # shows up in txs_reverted but never touches an honest ledger.
        return DetectionReport(
            scenario=self.name,
            seed=outcome.seed,
            safety_violated=False,
            detected=rejected > 0,
            time_to_detect=first_event_time(outcome.payloads, "block.rejected"),
            txs_reverted=len(reverted),
            txs_censored=censored,
            blocks_rejected=rejected,
            equivocations_detected=outcome.result.equivocations_detected,
            fallbacks=outcome.result.fallbacks,
            adversaries=len(run.adversaries),
            adversary_share=len(run.adversaries) / len(run.miners),
            victim_shard=run.victim_shard,
            confirmed=len(confirmed),
            duration=outcome.result.duration,
            extras=(
                ("honest_confirmed", len(honest_idx & confirmed)),
                ("spam_confirmed", len(run.notes["spam_idx"] & confirmed)),
                ("liar_blocks_mined", liar_blocks),
            ),
        )


class EclipseScenario(Scenario):
    """Withholding coalition plus a partition eclipses one victim node.

    The victim shares a partition cell with two withholding miners for
    the first ``heal_at`` seconds: the honest majority is unreachable
    and the cellmates deliberately never announce their blocks to the
    victim, so its chain view freezes while its shard advances.
    Detection is the victim's height lag crossing 3 blocks at a probe;
    after the partition heals, the retransmission sweep re-gossips the
    chain and the victim catches up (``time_to_recover``).
    """

    name = "eclipse"
    summary = "partition plus block-withholding freezes a victim's chain view"
    paper_ref = "robustness of Sec. III-C under eclipse-lite"

    def __init__(
        self,
        miners: int = 9,
        coalition_size: int = 2,
        txs: int = 12,
        heal_at: float = 25.0,
        horizon: float = 60.0,
    ) -> None:
        self.miners = miners
        self.coalition_size = coalition_size
        self.txs = txs
        self.heal_at = heal_at
        self.horizon = horizon

    def build(self, seed: int) -> ScenarioRun:
        idents = _identities("ecl", seed, self.miners)
        builder = WorkloadBuilder(seed=seed)
        fees = _distinct_fees(f"ecl-{seed}", self.txs)
        workload = [
            builder.contract_call(
                f"0xue-{seed}-{i}",
                _contract_address(1 + i % 2),
                fee=fees[i],
            )
            for i in range(self.txs)
        ]
        # Replicate the engine's shard fractions so the assignment —
        # and hence the victim's shard peers — are known up front.
        shard_map, callgraph = form_shards(workload)
        partition = partition_transactions(workload, shard_map, callgraph)
        fractions = {
            shard: max(frac, 0.01)
            for shard, frac in partition.fractions().items()
        }
        assignment = assign_miners(idents, fractions, epoch_seed=f"eclipse-{seed}")
        by_shard: dict[int, list[str]] = {}
        for miner in idents:
            by_shard.setdefault(assignment.shard_of[miner.public], []).append(
                miner.public
            )
        victim_shard = max(by_shard, key=lambda s: (len(by_shard[s]), -s))
        victim = sorted(by_shard[victim_shard])[0]
        # The coalition comes from *other* shards, so the victim's shard
        # peers stay outside the partition and keep mining the chain the
        # victim is falling behind.
        outsiders = [m.public for m in idents if assignment.shard_of[m.public] != victim_shard]
        if len(outsiders) < self.coalition_size:
            raise ScenarioError(
                "eclipse needs enough miners outside the victim's shard "
                f"({len(outsiders)} < {self.coalition_size})"
            )
        coalition = _sample_coalition(outsiders, self.coalition_size, seed)
        behaviors = {pub: WithholdingBehavior(victim) for pub in coalition}
        plan = FaultPlan(
            partitions=(
                Partition(
                    members=tuple(sorted((victim, *coalition))),
                    starts_at=0.0,
                    heals_at=self.heal_at,
                ),
            )
        )
        config = ProtocolConfig(
            # ~1 block / 12s per miner: the victim falls behind a few
            # blocks during the partition, and one retransmission sweep
            # can re-gossip the whole gap afterwards.
            pow_params=PoWParameters(difficulty=0x40000 // 12),
            latency=_LAN,
            seed=seed,
            max_duration=self.horizon,
            run_to_horizon=True,
            fault_plan=plan,
            retransmit_interval=10.0,
            retransmit_blocks=100,
        )
        step = self.horizon / 8
        probes = tuple(round(step * k, 3) for k in range(1, 8))
        victim_shard_txs = frozenset(
            i
            for i, tx in enumerate(workload)
            if shard_map.shard_of_transaction(tx, callgraph) == victim_shard
        )
        return ScenarioRun(
            miners=idents,
            transactions=workload,
            config=config,
            behaviors=behaviors,
            assignment=assignment,
            adversaries=coalition,
            victim_shard=victim_shard,
            victim_node=victim,
            probe_times=probes,
            notes={"heal_at": self.heal_at, "victim_shard_txs": victim_shard_txs},
        )

    def detect(self, outcome: ScenarioOutcome) -> DetectionReport:
        run = outcome.run
        victim = run.victim_node
        assignment = run.assignment
        peers = [
            m.public
            for m in run.miners
            if m.public != victim
            and m.public not in run.adversaries
            and assignment.shard_of[m.public] == run.victim_shard
        ]
        lags: list[tuple[float, int]] = []
        for sample in outcome.samples:
            peer_height = max(sample.heights[p] for p in peers)
            lags.append((sample.time, peer_height - sample.heights[victim]))
        heal_at = run.notes["heal_at"]
        time_to_detect = next((t for t, lag in lags if lag >= 3), None)
        pre_heal = [lag for t, lag in lags if t < heal_at]
        lag_at_heal = pre_heal[-1] if pre_heal else 0
        time_to_recover = next(
            (t for t, lag in lags if t > heal_at and lag <= 1), None
        )
        victim_node = outcome.sim.node(victim)
        final_peer_height = max(
            outcome.sim.node(p).ledger.height for p in peers
        )
        final_lag = final_peer_height - victim_node.ledger.height
        confirmed = outcome.honest_confirmed_indexes()
        # Censorship is judged on the victim's shard only: shards whose
        # every member is a (withholding but otherwise honest-mining)
        # coalition node confirm fine, they are just invisible to the
        # honest-union metric.
        censored = len(run.notes["victim_shard_txs"] - confirmed)
        reverted = reverted_tx_indexes(outcome.lineages)
        return DetectionReport(
            scenario=self.name,
            seed=outcome.seed,
            safety_violated=len(reverted) > 0,
            detected=time_to_detect is not None,
            time_to_detect=time_to_detect,
            txs_reverted=len(reverted),
            txs_censored=censored,
            blocks_rejected=outcome.result.blocks_rejected,
            equivocations_detected=outcome.result.equivocations_detected,
            fallbacks=outcome.result.fallbacks,
            adversaries=len(run.adversaries),
            adversary_share=len(run.adversaries) / len(run.miners),
            victim_shard=run.victim_shard,
            confirmed=len(confirmed),
            duration=outcome.result.duration,
            extras=(
                ("final_lag", final_lag),
                ("lag_at_heal", lag_at_heal),
                ("max_lag", max((lag for _, lag in lags), default=0)),
                ("recovered", final_lag <= 1),
                ("time_to_recover", time_to_recover),
            ),
        )


class AdaptiveConcentrationScenario(Scenario):
    """Adaptive adversary grinding identities into the smallest shard.

    The epoch randomness is public before registration closes, so an
    adaptive adversary can mint candidate identities until enough of
    them draw the *smallest* populated shard to out-number its honest
    members — then censor it with the coalition fork. Globally her
    hashrate share is small; locally she is a majority. This is exactly
    the small-shard vulnerability (Eq. 4) whose answer in the paper is
    shard merging (Eq. 5-6). Detection is a composition audit: the
    probability of that many same-shard draws under an honest binomial
    is the report's ``p_value``.
    """

    name = "adaptive"
    summary = "identity-grinding majority on the smallest shard"
    paper_ref = "Sec. III-B small shards, Eq. 4-6"

    def __init__(
        self,
        honest_miners: int = 10,
        total_txs: int = 30,
        horizon: float = 40.0,
        max_candidates: int = 4000,
    ) -> None:
        self.honest_miners = honest_miners
        self.total_txs = total_txs
        self.horizon = horizon
        self.max_candidates = max_candidates

    def build(self, seed: int) -> ScenarioRun:
        honest = _identities("adap", seed, self.honest_miners)
        # Three contract shards with one deliberately tiny one (2 txs):
        # shard 1 is the small shard the adversary will concentrate on.
        builder = WorkloadBuilder(seed=seed)
        small = 2
        rest = self.total_txs - small
        counts = {1: small, 2: rest // 2, 3: rest - rest // 2}
        fees = iter(_distinct_fees(f"adap-{seed}", self.total_txs))
        workload: list[Transaction] = []
        for shard in sorted(counts):
            contract = _contract_address(shard)
            for i in range(counts[shard]):
                workload.append(
                    builder.contract_call(
                        f"0xua{shard}-{seed}-{i}", contract, fee=next(fees)
                    )
                )
        shard_map, callgraph = form_shards(workload)
        partition = partition_transactions(workload, shard_map, callgraph)
        fractions = {
            shard: max(frac, 0.01)
            for shard, frac in partition.fractions().items()
        }
        populated = [s for s, txs in partition.by_shard.items() if txs]
        target = min(populated, key=lambda s: (fractions[s], s))
        # Honest assignment first: its randomness is what the adaptive
        # adversary observes and grinds against.
        epoch_seed = f"adaptive-{seed}"
        pre = assign_miners(honest, fractions, epoch_seed=epoch_seed)
        randomness = pre.randomness
        honest_in_target = sum(
            1
            for m in honest
            if draw_shard(m.public, randomness, fractions) == target
        )
        # Majority plus margin: enough ground identities that the
        # coalition out-numbers the honest members comfortably AND the
        # shard's size is a statistical outlier the composition audit
        # can flag (a 2-member shard is never surprising).
        needed = max(honest_in_target + 2, 5)
        ground: list[MinerIdentity] = []
        candidates = 0
        while len(ground) < needed:
            if candidates >= self.max_candidates:
                raise ScenarioError(
                    f"adaptive grinding exhausted {self.max_candidates} "
                    f"candidates before finding {needed} identities in "
                    f"shard {target}"
                )
            ident = MinerIdentity.create(f"adv-{seed}-{candidates}")
            candidates += 1
            if draw_shard(ident.public, randomness, fractions) == target:
                ground.append(ident)
        all_miners = honest + ground
        # Re-run the assignment over everyone with the *same* public
        # randomness: honest draws are unchanged, and every ground
        # identity verifiably lands in the target shard.
        assignment = assign_miners(
            all_miners, fractions, epoch_seed=epoch_seed, randomness=randomness
        )
        coalition = frozenset(m.public for m in ground)
        tracker = ForkTracker()
        behaviors = {pub: CensorshipForkBehavior(tracker) for pub in coalition}
        target_idx = frozenset(
            i
            for i, tx in enumerate(workload)
            if shard_map.shard_of_transaction(tx, callgraph) == target
        )
        config = ProtocolConfig(
            pow_params=PoWParameters(difficulty=0x40000 // 30),
            latency=_LAN,
            seed=seed,
            max_duration=self.horizon,
            run_to_horizon=True,
        )
        return ScenarioRun(
            miners=all_miners,
            transactions=workload,
            config=config,
            behaviors=behaviors,
            assignment=assignment,
            adversaries=coalition,
            victim_shard=target,
            notes={
                "target_idx": target_idx,
                "candidates_ground": candidates,
                "honest_in_target": honest_in_target,
            },
        )

    def detect(self, outcome: ScenarioOutcome) -> DetectionReport:
        from scipy import stats

        run = outcome.run
        target = run.victim_shard
        members = run.assignment.members_of(target)
        adversaries_in_target = sum(
            1 for pub in members if pub in run.adversaries
        )
        global_share = len(run.adversaries) / len(run.miners)
        # Composition audit: under honest registration every identity
        # draws the target shard independently with the *published*
        # fraction probability, so the shard's observed size follows a
        # binomial. One-sided survival p-value of a shard this crowded.
        fractions = run.assignment.fractions
        draw_probability = fractions[target] / sum(fractions.values())
        p_value = float(
            stats.binom.sf(
                len(members) - 1, len(run.miners), draw_probability
            )
        )
        confirmed = outcome.honest_confirmed_indexes()
        target_idx = run.notes["target_idx"]
        censored = len(target_idx - confirmed)
        reverted = reverted_tx_indexes(outcome.lineages)
        return DetectionReport(
            scenario=self.name,
            seed=outcome.seed,
            safety_violated=censored > 0
            or any(idx in target_idx for idx in reverted),
            detected=p_value < 0.01,
            time_to_detect=0.0 if p_value < 0.01 else None,
            txs_reverted=len(reverted),
            txs_censored=censored,
            blocks_rejected=outcome.result.blocks_rejected,
            equivocations_detected=outcome.result.equivocations_detected,
            fallbacks=outcome.result.fallbacks,
            adversaries=len(run.adversaries),
            adversary_share=round(global_share, 4),
            victim_shard=target,
            confirmed=len(confirmed),
            duration=outcome.result.duration,
            extras=(
                ("adversaries_in_target", adversaries_in_target),
                ("candidates_ground", run.notes["candidates_ground"]),
                ("honest_in_target", run.notes["honest_in_target"]),
                ("p_value", p_value),
                ("target_members", len(members)),
                ("target_txs", len(target_idx)),
            ),
        )


SCENARIOS: dict[str, type[Scenario]] = {
    ShardTakeoverScenario.name: ShardTakeoverScenario,
    CrossShardDoubleSpendScenario.name: CrossShardDoubleSpendScenario,
    FeeGriefingScenario.name: FeeGriefingScenario,
    EclipseScenario.name: EclipseScenario,
    AdaptiveConcentrationScenario.name: AdaptiveConcentrationScenario,
}


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)


def get_scenario(name: str, **kwargs) -> Scenario:
    """Instantiate a registered scenario by name."""
    try:
        cls = SCENARIOS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {name!r} (available: {', '.join(scenario_names())})"
        ) from None
    return cls(**kwargs)
