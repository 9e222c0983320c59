"""Tests for repro.sim.protocol — the full-node integration layer."""

import pytest

from repro.consensus.miner import MinerIdentity, ShardLiarBehavior
from repro.consensus.pow import PoWParameters
from repro.errors import ConfigError
from repro.net.network import LatencyModel
from repro.sim.protocol import ProtocolConfig, ProtocolSimulation
from repro.workloads.generators import uniform_contract_workload

FAST_POW = PoWParameters(difficulty=0x40000 // 60)  # ~1 s blocks
QUICK = ProtocolConfig(
    pow_params=FAST_POW,
    latency=LatencyModel(base_seconds=0.01, jitter_seconds=0.01),
    max_duration=2_000.0,
    seed=5,
)


@pytest.fixture(scope="module")
def small_run():
    miners = [MinerIdentity.create(f"proto-{i}") for i in range(6)]
    txs = uniform_contract_workload(total_txs=24, contract_shards=2, seed=3)
    sim = ProtocolSimulation(miners, txs, config=QUICK)
    return sim, sim.run()


class TestProtocolRun:
    def test_workload_confirms(self, small_run):
        sim, result = small_run
        # Every transaction routed to a populated shard confirms.
        assert result.confirmed_count() > 0
        populated = {
            sim.assignment.shard_of[m] for m in sim.assignment.shard_of
        }
        for shard, confirmed in result.per_shard_confirmed.items():
            if shard in populated:
                assert confirmed >= 0

    def test_no_rejections_among_honest_miners(self, small_run):
        __, result = small_run
        assert result.blocks_rejected == 0

    def test_duration_bounded(self, small_run):
        __, result = small_run
        assert result.duration <= QUICK.max_duration

    def test_assignment_is_verifiable(self, small_run):
        sim, __ = small_run
        verify = sim.assignment.verifier()
        for public, shard in sim.assignment.shard_of.items():
            assert verify(public, shard)


class TestRewardAccounting:
    def test_every_block_credited(self, small_run):
        __, result = small_run
        assert sum(result.rewards.blocks_mined.values()) > 0

    def test_fee_income_tracks_confirmations(self, small_run):
        __, result = small_run
        total_fees = sum(result.rewards.fee_income.values())
        assert total_fees >= 0
        # Someone earned fees (the workload carries nonzero fees).
        assert any(v > 0 for v in result.rewards.fee_income.values())

    def test_wasted_power_visible_for_empty_miners(self, small_run):
        sim, result = small_run
        # Miners in drained shards mined empty blocks near the end.
        rewards = result.rewards
        assert all(
            0 <= rewards.empty_blocks_mined.get(public, 0) <= mined
            for public, mined in rewards.blocks_mined.items()
        )


class TestCheaterRejection:
    def test_shard_liar_blocks_rejected(self):
        miners = [MinerIdentity.create(f"cheat-{i}") for i in range(5)]
        txs = uniform_contract_workload(total_txs=20, contract_shards=2, seed=4)
        liar = miners[0]
        sim = ProtocolSimulation(
            miners,
            txs,
            config=QUICK,
            behaviors={liar.public: ShardLiarBehavior(fake_shard=77)},
        )
        result = sim.run()
        # Every block the liar broadcast fails the Sec. III-C membership
        # check at every honest receiver.
        assert result.blocks_rejected > 0
        assert any("not a member" in r for r in result.rejection_reasons)

    def test_liar_transactions_not_stolen(self):
        miners = [MinerIdentity.create(f"cheat2-{i}") for i in range(5)]
        txs = uniform_contract_workload(total_txs=20, contract_shards=2, seed=6)
        liar = miners[0]
        sim = ProtocolSimulation(
            miners,
            txs,
            config=QUICK,
            behaviors={liar.public: ShardLiarBehavior(fake_shard=77)},
        )
        result = sim.run()
        # The liar's ledger never contributes to anyone else's view: her
        # blocks were rejected by every honest node.
        honest_nodes = [sim.node(m.public) for m in miners[1:]]
        liar_blocks = {
            b.block_hash
            for b in sim.node(liar.public).ledger.canonical_chain()
            if b.header.miner == liar.public
        }
        for node in honest_nodes:
            canonical = {b.block_hash for b in node.ledger.canonical_chain()}
            assert not (liar_blocks & canonical)


class TestValidationFailures:
    def test_needs_inputs(self):
        miners = [MinerIdentity.create("solo")]
        txs = uniform_contract_workload(5, 1, seed=7)
        with pytest.raises(Exception):
            ProtocolSimulation([], txs)
        with pytest.raises(Exception):
            ProtocolSimulation(miners, [])

    @pytest.mark.parametrize(
        "field,value",
        [
            ("block_capacity", 0),
            ("max_duration", -1.0),
            ("max_duration", 0.0),
            ("retransmit_interval", 0.0),
            ("max_events", 0),
            ("retransmit_blocks", -1),
            ("leader_timeout", -1.0),
            ("engine", "legacy"),
            # NaN fails every comparison, so it must be rejected explicitly.
            ("max_duration", float("nan")),
            ("inject_interval", float("nan")),
            ("retransmit_interval", float("nan")),
            ("leader_timeout", float("nan")),
            # Counts must be integers, not floats that fail mid-run.
            ("block_capacity", 2.5),
            ("retransmit_blocks", 1.5),
            ("inject_batch", 2.5),
            ("mempool_limit", 8.5),
            ("max_events", 1e6),
        ],
    )
    def test_nonsense_config_rejected_naming_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ProtocolConfig(**{field: value})
