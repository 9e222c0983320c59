"""Tests for repro.sim.campaign."""

import pytest

from repro.consensus.miner import MinerIdentity
from repro.core.epoch import EpochManager
from repro.errors import SimulationError
from repro.sim.campaign import Campaign
from repro.workloads.generators import WorkloadBuilder


def traffic_batch(epoch: int, contracts: int = 3, per_contract: int = 15):
    builder = WorkloadBuilder()
    txs = []
    for c in range(1, contracts + 1):
        contract = f"0xc{c:039d}"
        for user in range(per_contract):
            txs.append(
                builder.contract_call(
                    f"0xu-e{epoch}-c{c}-{user}", contract, fee=1 + user % 7
                )
            )
    return txs


@pytest.fixture(scope="module")
def campaign_result():
    miners = [MinerIdentity.create(f"camp-{i}") for i in range(20)]
    campaign = Campaign(EpochManager(miners), base_seed=1)
    return campaign.run([traffic_batch(e) for e in range(3)])


class TestCampaign:
    def test_every_epoch_executed(self, campaign_result):
        assert [e.epoch_index for e in campaign_result.epochs] == [0, 1, 2]

    def test_conservation_per_epoch(self, campaign_result):
        for epoch in campaign_result.epochs:
            total_in = epoch.injected + epoch.carried_in
            assert (
                epoch.result.total_transactions + epoch.deferred_out == total_in
            )

    def test_deferred_transactions_carry_over(self, campaign_result):
        for previous, current in zip(
            campaign_result.epochs, campaign_result.epochs[1:]
        ):
            assert current.carried_in == previous.deferred_out

    def test_most_traffic_confirms(self, campaign_result):
        result = campaign_result
        injected = sum(epoch.injected for epoch in result.epochs)
        assert result.total_confirmed > 0.8 * injected

    def test_backlog_is_bounded(self, campaign_result):
        # At most one epoch's traffic is still deferred at the end.
        assert campaign_result.epochs[-1].deferred_out < 45

    def test_randomness_rotates(self, campaign_result):
        seeds = {e.plan.randomness for e in campaign_result.epochs}
        assert len(seeds) == len(campaign_result.epochs)

    def test_empty_traffic_rejected(self):
        miners = [MinerIdentity.create("camp-solo")]
        with pytest.raises(SimulationError):
            Campaign(EpochManager(miners)).run([])

    def test_blank_epoch_skipped(self):
        miners = [MinerIdentity.create(f"camp2-{i}") for i in range(8)]
        campaign = Campaign(EpochManager(miners), base_seed=2)
        result = campaign.run([traffic_batch(0, contracts=2), []])
        # The empty epoch produced no outcome but didn't crash.
        assert len(result.epochs) == 1
