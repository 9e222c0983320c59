"""Failure-hardened protocol runs: chaos, degradation, seed stability.

The acceptance scenario for the fault-injection layer: with seed-fixed
message loss and a mid-run crash, every shard still drains its relevant
transactions (retransmission + fallback), the result reports what was
injected, and a faulty leader's equivocation is detected and rejected.
"""

import pytest

from repro.consensus.miner import (
    AssignedSelectionBehavior,
    MinerIdentity,
    SoloFallbackBehavior,
)
from repro.consensus.pow import PoWParameters
from repro.faults.plan import (
    CrashEvent,
    FaultPlan,
    FaultyLeader,
    MessageFaults,
    Partition,
)
from repro.net.messages import MessageKind
from repro.net.network import LatencyModel
from repro.sim.protocol import ProtocolConfig, ProtocolSimulation
from repro.workloads.generators import uniform_contract_workload

FAST_POW = PoWParameters(difficulty=0x40000 // 60)  # ~1 s solo blocks
LOW_LATENCY = LatencyModel(base_seconds=0.01, jitter_seconds=0.01)


def quick_config(**overrides):
    defaults = dict(
        pow_params=FAST_POW,
        latency=LOW_LATENCY,
        max_duration=2_000.0,
        seed=5,
    )
    defaults.update(overrides)
    return ProtocolConfig(**defaults)


def make_inputs(n_miners=6, n_txs=24, tx_seed=3, prefix="flt"):
    miners = [MinerIdentity.create(f"{prefix}-{i}") for i in range(n_miners)]
    txs = uniform_contract_workload(
        total_txs=n_txs, contract_shards=2, seed=tx_seed
    )
    return miners, txs


def build(n_miners=6, n_txs=24, tx_seed=3, prefix="flt", **config_overrides):
    miners, txs = make_inputs(n_miners, n_txs, tx_seed, prefix)
    sim = ProtocolSimulation(miners, txs, config=quick_config(**config_overrides))
    return miners, txs, sim


class TestSeedStability:
    """Wiring the no-op fault layer must not move a single bit."""

    def _result_fields(self, result):
        return (
            result.duration,
            result.confirmed_tx_ids,
            result.blocks_rejected,
            result.rejection_reasons,
            result.per_shard_confirmed,
            dict(result.rewards.blocks_mined),
            dict(result.rewards.fee_income),
            dict(result.rewards.block_rewards),
            result.drops,
            result.retransmissions,
            result.fallbacks,
            result.equivocations_detected,
            result.fault_stats,
        )

    def test_default_fault_plan_is_byte_identical(self):
        # One workload, two wirings (tx ids carry a process-global serial,
        # so the transactions must be shared, not regenerated).
        miners, txs = make_inputs(prefix="proto")
        bare = ProtocolSimulation(miners, txs, config=quick_config())
        bare_result = bare.run()
        wired = ProtocolSimulation(
            miners, txs, config=quick_config(fault_plan=FaultPlan.none())
        )
        wired_result = wired.run()
        assert self._result_fields(bare_result) == self._result_fields(wired_result)

    def test_default_fault_plan_is_byte_identical_unified(self):
        miners = [MinerIdentity.create(f"unified-31-{i}") for i in range(8)]
        txs = uniform_contract_workload(total_txs=30, contract_shards=1, seed=31)

        def run_with(plan):
            config = quick_config(seed=31, max_duration=60.0, fault_plan=plan)
            sim = ProtocolSimulation(miners, txs, config=config, unified=True)
            return sim.run()

        assert self._result_fields(run_with(None)) == self._result_fields(
            run_with(FaultPlan.none())
        )

    def test_chaos_run_is_deterministic(self):
        miners, txs = make_inputs(prefix="proto")
        plan = FaultPlan.lossy(0.2)
        results = []
        for _ in range(2):
            sim = ProtocolSimulation(
                miners,
                txs,
                config=quick_config(fault_plan=plan, retransmit_interval=2.0),
            )
            results.append(sim.run())
        assert self._result_fields(results[0]) == self._result_fields(results[1])


class TestChaosDrain:
    """The acceptance scenario: loss + crash, yet every shard drains."""

    def test_drops_and_crash_still_drain(self):
        miners = [MinerIdentity.create(f"chaos-{i}") for i in range(6)]
        txs = uniform_contract_workload(total_txs=24, contract_shards=2, seed=3)
        crash_victim = miners[1].public
        plan = FaultPlan(
            default_message_faults=MessageFaults(drop_probability=0.2),
            crashes=(CrashEvent(crash_victim, at=3.0, recover_at=12.0),),
        )
        config = quick_config(fault_plan=plan, retransmit_interval=2.0)
        sim = ProtocolSimulation(miners, txs, config=config)
        result = sim.run()
        # Every transaction a populated shard is responsible for confirms
        # despite 20% loss and the mid-run crash...
        assert result.confirmed_tx_ids >= sim._relevant_tx_ids()
        assert result.duration < config.max_duration
        # ...and the result reports the injected faults and the repairs.
        assert result.drops > 0
        assert result.retransmissions > 0
        assert result.fault_stats.crash_drops >= 0

    def test_partition_heals_and_drains(self):
        miners = [MinerIdentity.create(f"part-{i}") for i in range(6)]
        txs = uniform_contract_workload(total_txs=24, contract_shards=2, seed=3)
        plan = FaultPlan(
            partitions=(
                Partition(
                    members=tuple(m.public for m in miners[:3]),
                    starts_at=0.0,
                    heals_at=8.0,
                ),
            ),
        )
        config = quick_config(fault_plan=plan, retransmit_interval=2.0)
        sim = ProtocolSimulation(miners, txs, config=config)
        result = sim.run()
        assert result.confirmed_tx_ids >= sim._relevant_tx_ids()
        assert result.fault_stats.partition_drops > 0

    def test_heavier_loss_degrades_but_does_not_stall(self):
        __, __, sim = build(
            prefix="heavy",
            fault_plan=FaultPlan.lossy(0.5),
            retransmit_interval=2.0,
        )
        result = sim.run()
        assert result.confirmed_tx_ids >= sim._relevant_tx_ids()
        assert result.drops > result.fault_stats.duplicates  # loss dominated

    @pytest.mark.parametrize("blocks", [0, 4])
    def test_retransmit_blocks_bounds_tip_regossip(self, blocks):
        """``retransmit_blocks=0`` re-gossips no blocks at all; 4 caps
        each node's sweep at its last four canonical blocks."""
        __, __, sim = build(
            prefix="regossip",
            fault_plan=FaultPlan.lossy(0.2),
            retransmit_interval=2.0,
            retransmit_blocks=blocks,
            trace=True,
        )
        result = sim.run()
        sweeps = result.trace.records_named("retransmit.sweep")
        assert sweeps
        regossiped = [record.attrs["blocks_regossiped"] for record in sweeps]
        assert max(regossiped) <= blocks * len(sim.network.node_ids)
        if blocks == 0:
            assert result.confirmed_tx_ids >= sim._relevant_tx_ids()
        else:
            assert max(regossiped) > 0


class TestFaultyLeader:
    """Withholding and equivocating leaders during parameter unification."""

    def _build_unified(self, mode, n_miners=8, seed=31):
        miners = [MinerIdentity.create(f"fl-{mode}-{i}") for i in range(n_miners)]
        txs = uniform_contract_workload(total_txs=30, contract_shards=1, seed=seed)
        plan = FaultPlan(leader=FaultyLeader(mode))
        config = quick_config(
            seed=seed,
            max_duration=120.0,
            fault_plan=plan,
            leader_timeout=5.0,
            retransmit_interval=2.0,
        )
        sim = ProtocolSimulation(miners, txs, config=config, unified=True)
        return miners, sim

    def test_withholding_leader_triggers_network_wide_fallback(self):
        miners, sim = self._build_unified("withhold")
        result = sim.run()
        # Nobody received a packet; every miner degraded to solo mining
        # instead of stalling, and the shard kept confirming.
        assert result.fallbacks == len(miners)
        assert result.confirmed_count() > 0
        assert all(
            isinstance(sim.node(m.public).behavior, SoloFallbackBehavior)
            for m in miners
        )
        assert not any(sim.node(m.public).has_unified_replay for m in miners)

    def test_equivocation_detected_and_rejected_by_all_honest_nodes(self):
        miners, sim = self._build_unified("equivocate")
        leader = sim.assignment.leader_public
        result = sim.run()
        honest = [m.public for m in miners if m.public != leader]
        # Every honest node received the tampered packet, checked its
        # digest against the public commitment, and rejected it.
        assert result.equivocations_detected == len(honest)
        for public in honest:
            node = sim.node(public)
            assert node.stats.packets_rejected == 1
            assert not node.has_unified_replay
        # The equivocator kept the canonical packet for herself.
        assert sim.node(leader).has_unified_replay
        # Rejection did not stall the run: honest miners fell back.
        assert result.fallbacks == len(honest)
        assert result.confirmed_count() > 0

    def test_honest_leader_under_loss_recovers_via_retransmission(self):
        miners = [MinerIdentity.create(f"fl-loss-{i}") for i in range(8)]
        txs = uniform_contract_workload(total_txs=30, contract_shards=1, seed=31)
        # Only the leader broadcast is lossy here.
        plan = FaultPlan(
            message_faults=(
                (MessageKind.LEADER_BROADCAST, MessageFaults(drop_probability=0.6)),
            ),
        )
        config = quick_config(
            seed=31,
            max_duration=120.0,
            fault_plan=plan,
            leader_timeout=20.0,
            retransmit_interval=1.0,
        )
        sim = ProtocolSimulation(miners, txs, config=config, unified=True)
        result = sim.run()
        # Retransmissions beat the 60% loss well before the timeout: every
        # node ends up with the verified packet and nobody fell back.
        assert all(sim.node(m.public).has_unified_replay for m in miners)
        assert result.fallbacks == 0
        assert result.retransmissions > 0
        assert result.confirmed_count() > 0


class TestFractionsRegression:
    """Miner allocation must track transaction fractions (epsilon fix)."""

    def test_populated_shard_fractions_not_clamped(self):
        __, __, sim = build(prefix="frac")
        fractions = sim.assignment.fractions
        populated = [f for f in fractions.values() if f > 0.01]
        # Populated per-shard loads are percentages summing to ~100;
        # empty shards get only the 0.01 epsilon, not a flat 0.5 floor.
        assert sum(populated) == pytest.approx(100.0, abs=0.5)
        assert all(
            f == pytest.approx(0.01) for f in fractions.values() if f <= 0.01
        )

    def test_allocation_tracks_transaction_skew(self):
        from tests.conftest import make_call

        heavy, light = "0xcheavyfrac", "0xclightfrac"
        txs = [
            make_call(f"0xuh{i}", contract=heavy, fee=2) for i in range(36)
        ] + [
            make_call(f"0xul{i}", contract=light, fee=2) for i in range(4)
        ]
        miners = [MinerIdentity.create(f"skew-{i}") for i in range(40)]
        sim = ProtocolSimulation(miners, txs, config=quick_config())
        sizes = sim.assignment.shard_sizes()
        by_fraction = sorted(
            sim.assignment.fractions.items(), key=lambda kv: kv[1]
        )
        lightest_shard = by_fraction[0][0]
        heaviest_shard = by_fraction[-1][0]
        # A 90/10 workload split must show up in the miner allocation —
        # under the 0.5 clamp both shards drew near-equal counts.
        assert sizes[heaviest_shard] > 2 * sizes[lightest_shard]
