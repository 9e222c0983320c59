"""Each library attack demonstrably works and is detected.

These run the real engine end to end: adversarial blocks pay latency,
face validation, and race honest chains. The assertions pin both sides
of every scenario — the attack does damage (or is structurally blocked)
AND the detection metrics see it.
"""

import pytest

from repro.errors import ScenarioError
from repro.scenarios import (
    SCENARIOS,
    get_scenario,
    run_scenario,
    scenario_names,
)

SEED = 0


class TestRegistry:
    def test_five_scenarios_registered(self):
        assert scenario_names() == [
            "adaptive",
            "double-spend",
            "eclipse",
            "griefing",
            "takeover",
        ]
        assert set(SCENARIOS) == set(scenario_names())

    def test_unknown_scenario_raises(self):
        with pytest.raises(ScenarioError, match="unknown scenario 'bogus'"):
            get_scenario("bogus")

    def test_descriptions_carry_paper_refs(self):
        for name in scenario_names():
            scenario = get_scenario(name)
            assert scenario.summary
            assert scenario.paper_ref
            assert scenario.name == name


class TestTakeover:
    def test_majority_coalition_corrupts_the_shard(self):
        outcome = run_scenario(get_scenario("takeover"), seed=SEED)
        report = outcome.report
        assert report.safety_violated
        assert report.detected
        # Honest confirmations were reorged away by the empty fork...
        assert report.txs_reverted > 0
        assert report.time_to_detect is not None
        # ...and at the horizon the shard confirms nothing at all.
        assert report.txs_censored == len(outcome.run.transactions)
        assert report.confirmed == 0
        # The coalition fork dominates the honest canonical view (honest
        # miners end up extending it, which is the takeover succeeding).
        assert report.extra("adversary_canonical_share") > 0.5
        assert report.extra("fork_depth") > 0

    def test_minority_coalition_stays_safe(self):
        outcome = run_scenario(get_scenario("takeover", adversaries=3), seed=SEED)
        report = outcome.report
        assert not report.safety_violated
        assert report.txs_censored == 0
        assert report.confirmed == len(outcome.run.transactions)
        assert report.extra("adversary_canonical_share") < 0.5

    def test_more_adversaries_than_miners_rejected(self):
        with pytest.raises(ScenarioError, match="adversaries <= miners"):
            get_scenario("takeover", miners=5, adversaries=6)


class TestDoubleSpend:
    def test_maxshard_serializes_every_pair(self):
        outcome = run_scenario(get_scenario("double-spend"), seed=SEED)
        report = outcome.report
        # Structural safety: no pair ever double-confirms...
        assert not report.safety_violated
        assert report.extra("both_confirmed_pairs") == 0
        # ...and the losing twin of every pair is blocked for good.
        assert report.detected
        assert report.extra("blocked_pairs") == len(outcome.run.notes["pairs"])
        assert report.extra("undecided_pairs") == 0
        assert report.time_to_detect is not None
        confirmed = outcome.honest_confirmed_indexes()
        for a, b in outcome.run.notes["pairs"]:
            assert (a in confirmed) + (b in confirmed) == 1


class TestGriefing:
    def test_liar_blocks_rejected_and_detected(self):
        outcome = run_scenario(get_scenario("griefing"), seed=SEED)
        report = outcome.report
        assert report.detected
        assert report.blocks_rejected > 0
        assert report.time_to_detect is not None
        # Replay rejection keeps safety intact in the honest view...
        assert not report.safety_violated
        # ...but the liars' assigned sets go unserved (the griefing).
        assert report.txs_censored > 0
        assert report.extra("spam_confirmed") > 0
        assert report.extra("liar_blocks_mined") > 0
        # The rejected blocks are precisely the deviating ones: while
        # the selection game is contested the liars' greedy picks clash
        # with the assigned sets and honest replay throws them out (the
        # 28-odd rejections above); once the mempool drains, liar blocks
        # are empty, replay-clean, and allowed to extend the chain — so
        # the censorship of the liars' assigned sets is the lasting harm.
        assert report.extra("honest_confirmed") < len(
            outcome.run.notes["honest_idx"]
        )


class TestEclipse:
    def test_victim_lags_then_recovers(self):
        outcome = run_scenario(get_scenario("eclipse"), seed=SEED)
        report = outcome.report
        heal_at = outcome.run.notes["heal_at"]
        assert report.detected
        assert report.time_to_detect is not None
        assert report.time_to_detect < heal_at
        assert report.extra("max_lag") >= 3
        assert report.extra("lag_at_heal") >= 3
        # After the partition heals, retransmission re-gossips the chain
        # and the victim converges back onto its shard's canonical view.
        assert report.extra("recovered")
        assert report.extra("final_lag") <= 1
        assert report.extra("time_to_recover") is not None
        assert report.extra("time_to_recover") > heal_at
        # Eclipse-lite is a liveness attack here: nothing is censored in
        # the victim's shard by the end of the run.
        assert report.txs_censored == 0

    def test_coalition_sits_outside_the_victims_shard(self):
        run = get_scenario("eclipse").build(SEED)
        for public in run.adversaries:
            assert run.assignment.shard_of[public] != run.victim_shard
        assert run.assignment.shard_of[run.victim_node] == run.victim_shard


class TestAdaptive:
    def test_grinding_overwhelms_the_smallest_shard(self):
        outcome = run_scenario(get_scenario("adaptive"), seed=SEED)
        report = outcome.report
        run = outcome.run
        # Every ground identity verifiably drew the target shard...
        for public in run.adversaries:
            assert run.assignment.shard_of[public] == run.victim_shard
        # ...forming a local majority from a global minority.
        members = run.assignment.members_of(run.victim_shard)
        in_target = sum(1 for pub in members if pub in run.adversaries)
        assert in_target > len(members) - in_target
        assert report.adversary_share < 0.5
        # The small shard's whole workload is censored.
        assert report.safety_violated
        assert report.txs_censored == report.extra("target_txs")
        # The composition audit flags the stacked shard immediately.
        assert report.detected
        assert report.extra("p_value") < 0.01
        assert report.time_to_detect == 0.0

    def test_honest_draws_unchanged_by_grinding(self):
        scenario = get_scenario("adaptive")
        run = scenario.build(SEED)
        honest = [m for m in run.miners if m.public not in run.adversaries]
        in_target = sum(
            1
            for m in honest
            if run.assignment.shard_of[m.public] == run.victim_shard
        )
        assert in_target == run.notes["honest_in_target"]
