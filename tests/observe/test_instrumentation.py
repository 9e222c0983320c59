"""Integration tests: the instrumented seams emit deterministic traces.

These drive real simulations (protocol, campaign, games, executor) with
tracing on and check (a) the events cross-reference the results they
describe and (b) same-seed runs digest identically — the contract the CI
trace-smoke step enforces from the exported artifacts.

The report's metrics are a fold over the records. ``registry_snapshots.json``
holds what the live metrics registry the fold replaced reported for the
``clean`` parity run, the two-epoch campaign and the two game runs below;
the fold must reproduce each snapshot exactly.
"""

import json
import pathlib

import pytest

from repro.consensus.miner import MinerIdentity
from repro.consensus.pow import PoWParameters
from repro.core.epoch import EpochManager
from repro.core.merging.algorithm import IterativeMerging
from repro.core.merging.game import MergingGameConfig, ShardPlayer
from repro.core.selection.best_reply import BestReplyDynamics
from repro.core.selection.congestion_game import SelectionGameConfig
from repro.faults import FaultPlan
from repro.net.network import LatencyModel
from repro.observe import RunReport, Telemetry, Tracer, use_tracer
from repro.runtime import SerialExecutor, use_executor
from repro.sim.campaign import Campaign
from repro.sim.protocol import ProtocolConfig, ProtocolSimulation
from repro.workloads.generators import uniform_contract_workload

FAST_POW = PoWParameters(difficulty=0x40000 // 60)  # ~1 s blocks

REGISTRY_SNAPSHOTS = json.loads(
    (pathlib.Path(__file__).parent / "registry_snapshots.json").read_text()
)


def folded_metrics(trace):
    return RunReport.from_run(trace).metrics


def traced_protocol_sim(trace=True, drop_probability=0.0, seed=5, telemetry=None):
    miners = [MinerIdentity.create(f"obs-{i}") for i in range(5)]
    txs = uniform_contract_workload(total_txs=16, contract_shards=2, seed=3)
    config = ProtocolConfig(
        pow_params=FAST_POW,
        latency=LatencyModel(base_seconds=0.01, jitter_seconds=0.01),
        max_duration=500.0,
        seed=seed,
        trace=trace,
        fault_plan=FaultPlan.lossy(drop_probability) if drop_probability else None,
        retransmit_interval=5.0 if drop_probability else None,
        telemetry=telemetry,
    )
    return ProtocolSimulation(miners, txs, config=config)


def traced_protocol_run(**options):
    return traced_protocol_sim(**options).run()


@pytest.fixture(scope="module")
def traced_run():
    return traced_protocol_run()


class TestProtocolTrace:
    def test_result_carries_the_tracer(self, traced_run):
        assert isinstance(traced_run.trace, Tracer)
        assert len(traced_run.trace) > 0

    def test_trace_off_by_default(self):
        result = traced_protocol_run(trace=None)
        assert result.trace is None

    def test_phases_are_covered(self, traced_run):
        trace = traced_run.trace
        assert trace.count(name="workload.inject", phase="inject") == 1
        assert trace.count(name="block.forged", phase="mine") >= 1
        assert trace.count(name="run.complete", phase="result") == 1

    def test_block_events_match_result(self, traced_run):
        trace = traced_run.trace
        forged = trace.records_named("block.forged")
        assert forged
        confirmed = trace.records_named("run.complete")[0].attrs["confirmed"]
        assert confirmed == traced_run.confirmed_count()
        # the per-shard confirmation timeline is monotone in sim time
        for shard in {r.shard for r in forged}:
            times = [r.time for r in forged if r.shard == shard]
            assert times == sorted(times)

    def test_shard_confirmed_events_cover_every_shard(self, traced_run):
        trace = traced_run.trace
        confirmed = {r.shard for r in trace.records_named("shard.confirmed")}
        forged = {r.shard for r in trace.records_named("block.forged")}
        assert confirmed == forged

    def test_metrics_agree_with_events(self, traced_run):
        trace = traced_run.trace
        counters = folded_metrics(trace)["counters"]
        assert counters["protocol.blocks_forged"] == trace.count(
            name="block.forged"
        )

    def test_saved_trace_reports_the_live_metrics(self, traced_run, tmp_path):
        saved = traced_run.trace.write_jsonl(tmp_path / "run.jsonl")
        live = folded_metrics(traced_run.trace)
        assert live["gauges"]["protocol.confirmed"] == traced_run.confirmed_count()
        assert RunReport.read(saved).metrics == live

    def test_clean_parity_run_matches_recorded_registry(self):
        from tests.sim.test_engine_parity import _seeded_run

        sim, __ = _seeded_run("clean")
        assert folded_metrics(sim.tracer) == REGISTRY_SNAPSHOTS["clean"]

    def test_same_seed_runs_digest_identically(self, traced_run):
        again = traced_protocol_run()
        assert again.trace.digest() == traced_run.trace.digest()

    def test_different_seed_changes_digest(self, traced_run):
        other = traced_protocol_run(seed=6)
        assert other.trace.digest() != traced_run.trace.digest()

    def test_summary_includes_shard_timeline(self, traced_run):
        sim = traced_protocol_sim(telemetry=Telemetry(heartbeat_interval=None))
        result = sim.run()
        assert result.trace.digest() == traced_run.trace.digest()
        report = RunReport.from_run(result.trace, sim.shard_stats())
        loads = {entry["shard"]: entry for entry in report.shards["loads"]}
        assert sum(e["blocks_forged"] for e in loads.values()) == (
            result.trace.count(name="block.forged")
        )
        assert sum(e["txs_confirmed"] for e in loads.values()) == (
            result.confirmed_count()
        )
        assert "shards: " in report.render()
        assert "\n  max " in report.render()  # the MaxShard row


class TestFaultTrace:
    @pytest.fixture(scope="class")
    def faulty_run(self):
        return traced_protocol_run(drop_probability=0.2)

    def test_fault_events_match_fault_stats(self, faulty_run):
        trace = faulty_run.trace
        assert (
            trace.count(name="fault.drop") == faulty_run.fault_stats.drops
        )

    def test_protocol_reacts_with_retransmits(self, faulty_run):
        # The cross-reference the issue asks for: injected faults on one
        # side, the protocol's retransmission reaction on the other.
        trace = faulty_run.trace
        assert trace.count(name="fault.drop") > 0
        assert trace.count(name="retransmit.sweep") >= 0  # present in schema
        assert faulty_run.confirmed_count() > 0

    def test_faulty_runs_stay_deterministic(self, faulty_run):
        again = traced_protocol_run(drop_probability=0.2)
        assert again.trace.digest() == faulty_run.trace.digest()


class TestLeaderTrace:
    """Leader-phase events only exist under unified parameter broadcast."""

    def _unified_run(self, plan, seed=31):
        miners = [MinerIdentity.create(f"obs-ldr-{i}") for i in range(8)]
        txs = uniform_contract_workload(
            total_txs=30, contract_shards=1, seed=seed
        )
        config = ProtocolConfig(
            pow_params=FAST_POW,
            latency=LatencyModel(base_seconds=0.01, jitter_seconds=0.01),
            max_duration=120.0,
            seed=seed,
            fault_plan=plan,
            leader_timeout=5.0,
            retransmit_interval=2.0,
            trace=True,
        )
        return ProtocolSimulation(
            miners, txs, config=config, unified=True
        ).run()

    def test_honest_leader_broadcast_is_traced(self):
        result = self._unified_run(FaultPlan.lossy(0.05))
        trace = result.trace
        assert trace.count(name="leader.broadcast", phase="leader") == 1
        assert trace.count(name="leader.withhold") == 0

    def test_withholding_leader_and_timeout_fallbacks(self):
        from repro.faults import FaultyLeader

        result = self._unified_run(FaultPlan(leader=FaultyLeader("withhold")))
        trace = result.trace
        assert trace.count(name="leader.withhold", phase="leader") == 1
        timeouts = trace.records_named("leader.timeout")
        assert sum(r.attrs["fallbacks"] for r in timeouts) == (
            result.fault_stats.fallbacks
        )


class TestGameTrace:
    def test_selection_rounds_match_outcome(self):
        tracer = Tracer()
        with use_tracer(tracer):
            outcome = BestReplyDynamics(
                SelectionGameConfig(capacity=5), seed=1
            ).run([3.0, 2.0, 9.0, 1.0, 5.0, 7.0], miners=4)
        converged = tracer.records_named("selection.converged")
        assert len(converged) == 1
        assert converged[0].attrs["rounds"] == outcome.rounds
        assert converged[0].attrs["moves"] == outcome.moves
        per_round = tracer.records_named("selection.round")
        assert sum(r.attrs["deviations"] for r in per_round) == outcome.moves
        assert folded_metrics(tracer) == REGISTRY_SNAPSHOTS["selection"]

    def test_merging_rounds_match_result(self):
        tracer = Tracer()
        with use_tracer(tracer):
            result = IterativeMerging(
                MergingGameConfig(shard_reward=10.0, lower_bound=10, subslots=8),
                seed=2,
            ).run([ShardPlayer(shard_id=i, size=4, cost=3.0) for i in range(5)])
        assert tracer.count(name="merge.round") == result.rounds
        final = tracer.records_named("merge.result")[0]
        assert final.attrs["new_shards"] == result.new_shard_count
        assert final.attrs["leftovers"] == len(result.leftover_players)
        assert tracer.count(name="merge.converge") >= result.rounds
        assert folded_metrics(tracer) == REGISTRY_SNAPSHOTS["merging"]

    def test_games_are_silent_without_a_tracer(self):
        outcome = BestReplyDynamics(SelectionGameConfig(capacity=3), seed=1).run(
            [1.0, 2.0, 3.0], miners=2
        )
        assert outcome.converged  # no tracer, no crash


class TestExecutorTrace:
    def test_serial_map_emits_task_timings(self):
        tracer = Tracer()
        with use_tracer(tracer), use_executor(SerialExecutor()):
            from repro.runtime import get_default_executor

            results = get_default_executor().map(lambda x: x * x, range(6))
        assert results == [0, 1, 4, 9, 16, 25]
        record = tracer.records_named("executor.map")[0]
        assert record.phase == "runtime"
        assert record.attrs["mode"] == "serial"
        assert record.attrs["tasks"] == 6
        assert record.attrs["workers"] == 1
        assert record.wall["duration_s"] >= 0.0
        assert folded_metrics(tracer)["counters"]["runtime.tasks"] == 6

    def test_map_events_exclude_wall_from_digest(self):
        def digest_once():
            tracer = Tracer()
            with use_tracer(tracer), use_executor(SerialExecutor()):
                SerialExecutor().map(lambda x: x + 1, range(4))
            return tracer.digest()

        assert digest_once() == digest_once()


class TestCampaignTrace:
    def make_traffic(self, epoch):
        return uniform_contract_workload(
            total_txs=20, contract_shards=2, seed=40 + epoch
        )

    def test_epoch_events_match_outcomes(self):
        miners = [MinerIdentity.create(f"obs-camp-{i}") for i in range(12)]
        campaign = Campaign(
            EpochManager(miners),
            base_seed=1,
            executor=SerialExecutor(),
            trace=True,
        )
        result = campaign.run([self.make_traffic(e) for e in range(2)])
        trace = result.trace
        assert isinstance(trace, Tracer)
        assert trace.count(name="epoch.plan", phase="campaign") == len(
            result.epochs
        )
        results = trace.records_named("epoch.result")
        assert [r.attrs["confirmed"] for r in results] == [
            e.result.confirmed_transactions for e in result.epochs
        ]
        metrics = folded_metrics(trace)
        assert metrics["counters"]["campaign.epochs"] == len(result.epochs)
        assert metrics["counters"]["campaign.confirmed"] == result.total_confirmed
        assert metrics == REGISTRY_SNAPSHOTS["campaign"]

    def test_campaign_trace_off_by_default(self):
        miners = [MinerIdentity.create(f"obs-camp2-{i}") for i in range(8)]
        campaign = Campaign(
            EpochManager(miners), base_seed=2, executor=SerialExecutor()
        )
        result = campaign.run([self.make_traffic(0)])
        assert result.trace is None
