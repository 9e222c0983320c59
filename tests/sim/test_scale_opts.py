"""Scale scheduling: the heap footprint of waves + the mining calendar.

Every fault-free fan-out is one wave heap entry and every shard's
miners share one calendar event, so the physical heap stays O(shards +
in-flight broadcasts) instead of O(miners + in-flight deliveries). The
event order this produces is pinned by the recorded ``clean`` and
``wave-128`` digests in ``seed_digests.json`` (see
``test_engine_parity``); this file holds the footprint claim and its
reporting.
"""

from repro.consensus.miner import MinerIdentity
from repro.observe import Tracer
from repro.sim.protocol import ProtocolConfig, ProtocolSimulation
from repro.workloads.generators import uniform_contract_workload

SEED = 7
WIDE_MINERS = 32


class TestHeapFootprint:
    def _simulate_wide(self):
        # The footprint win scales with miner count (waves collapse the
        # N-1 broadcast fan-out, the calendar the N standing mining
        # events), so measure it on a wider network than the parity runs.
        identities = [MinerIdentity.create(f"w{i}") for i in range(WIDE_MINERS)]
        workload = uniform_contract_workload(
            total_txs=60, contract_shards=3, seed=SEED
        )
        tracer = Tracer()
        config = ProtocolConfig(seed=SEED, trace=tracer, max_duration=2000.0)
        sim = ProtocolSimulation(identities, workload, config=config)
        result = sim.run()
        return sim, result

    def test_peak_pending_collapses_under_optimizations(self):
        """One standing mining event per miner alone would hold
        ``WIDE_MINERS`` heap entries; the physical high-water mark stays
        under a quarter of that, and the gauge and wall sidecar record
        it."""
        sim, result = self._simulate_wide()
        assert 0 < sim.scheduler.peak_pending * 4 <= WIDE_MINERS

        record = result.trace.records_named("run.complete")[0]
        assert record.wall["peak_pending"] == sim.scheduler.peak_pending
        gauge = result.trace.metrics.gauge("scheduler.peak_pending")
        assert gauge.value == sim.scheduler.peak_pending
