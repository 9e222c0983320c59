"""Scenario plumbing: build an attack, run it through the full engine.

A :class:`Scenario` is a deterministic recipe: ``build(seed)`` compiles
it into a :class:`ScenarioRun` (miners + workload + config + adversary
behaviors + optional fault plan), and :func:`run_scenario` executes that
through the unmodified :class:`~repro.sim.ProtocolSimulation` with
lineage tracing on, then asks the scenario to ``detect`` what happened.
Same (scenario, seed) ⇒ the same trace digest and the same
:class:`DetectionReport`; ``tests/sim/seed_digests.json`` records every
scenario's seed-0 digest.
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass, field

from repro.consensus.miner import MinerBehavior, MinerIdentity
from repro.chain.transaction import Transaction
from repro.core.miner_assignment import MinerAssignment
from repro.observe import Tracer, TxLineage, as_payloads, build_lineages
from repro.scenarios.detection import DetectionReport
from repro.sim.protocol import ProtocolConfig, ProtocolResult, ProtocolSimulation


@dataclass
class ScenarioRun:
    """A fully compiled scenario, ready to hand to the engine."""

    miners: list[MinerIdentity]
    transactions: list[Transaction]
    config: ProtocolConfig
    behaviors: dict[str, MinerBehavior] = field(default_factory=dict)
    unified: bool = False
    assignment: MinerAssignment | None = None
    adversaries: frozenset[str] = frozenset()
    victim_shard: int | None = None
    victim_node: str | None = None
    # Simulated times at which run_scenario samples every node's chain
    # height and confirmed count (read-only probes; they emit no trace
    # events, so digests are unaffected).
    probe_times: tuple[float, ...] = ()
    notes: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ProbeSample:
    """Per-node chain state observed mid-run at a probe time."""

    time: float
    heights: dict[str, int]
    confirmed: dict[str, int]


@dataclass
class ScenarioOutcome:
    """Everything a scenario's ``detect`` needs, plus the raw run."""

    scenario: str
    seed: int
    run: ScenarioRun
    sim: ProtocolSimulation
    result: ProtocolResult
    payloads: list[dict]
    lineages: dict[int, TxLineage]
    samples: list[ProbeSample]
    report: DetectionReport | None = None

    @property
    def digest(self) -> str:
        return self.result.trace.digest()

    def tx_index(self) -> dict[str, int]:
        return {tx.tx_id: i for i, tx in enumerate(self.run.transactions)}

    def honest_publics(self) -> list[str]:
        return [
            miner.public
            for miner in self.run.miners
            if miner.public not in self.run.adversaries
        ]

    def honest_confirmed_ids(self) -> set[str]:
        """Union of confirmed tx ids over honest nodes only.

        The run's global confirmed union includes adversary ledgers
        (miners self-adopt their own blocks without validation), so
        detection metrics must never trust it — a liar "confirming" a
        transaction on a branch no honest node accepts is not a
        confirmation.
        """
        union: set[str] = set()
        for public in self.honest_publics():
            union |= self.sim.node(public).ledger.confirmed_tx_ids()
        return union

    def honest_confirmed_indexes(self) -> set[int]:
        index = self.tx_index()
        return {
            index[tx_id]
            for tx_id in self.honest_confirmed_ids()
            if tx_id in index
        }


class Scenario(abc.ABC):
    """A named, seeded, deterministic adversarial scenario."""

    name: str = "scenario"
    summary: str = ""
    paper_ref: str = ""

    @abc.abstractmethod
    def build(self, seed: int) -> ScenarioRun:
        """Compile the scenario for a seed. Must be deterministic."""

    @abc.abstractmethod
    def detect(self, outcome: ScenarioOutcome) -> DetectionReport:
        """Reduce a finished run to its detection metrics."""

    def describe(self) -> str:
        return f"{self.name}: {self.summary} [{self.paper_ref}]"


def run_scenario(
    scenario: Scenario,
    seed: int = 0,
) -> ScenarioOutcome:
    """Build, execute and analyze one scenario run.

    Lineage tracing is always on (detection metrics need ``tx.seen`` /
    ``tx.confirmed`` / ``tx.reverted`` / ``block.rejected``).
    """
    run = scenario.build(seed)
    config = dataclasses.replace(run.config, trace=Tracer(lineage=True))
    sim = ProtocolSimulation(
        run.miners,
        run.transactions,
        config=config,
        behaviors=dict(run.behaviors),
        assignment=run.assignment,
        unified=run.unified,
    )
    samples: list[ProbeSample] = []

    def _probe_at(when: float):
        def _probe() -> None:
            samples.append(
                ProbeSample(
                    time=when,
                    heights={
                        miner.public: sim.node(miner.public).ledger.height
                        for miner in run.miners
                    },
                    confirmed={
                        miner.public: len(
                            sim.node(miner.public).ledger.confirmed_tx_ids()
                        )
                        for miner in run.miners
                    },
                )
            )

        return _probe

    # Probes are scheduled before run() so they enter the queue in a
    # deterministic order; they read ledger state and emit nothing,
    # leaving the trace digest untouched.
    for when in run.probe_times:
        sim.scheduler.schedule_in(when, _probe_at(when))

    result = sim.run()
    payloads = as_payloads(result.trace)
    lineages = build_lineages(payloads)
    outcome = ScenarioOutcome(
        scenario=scenario.name,
        seed=seed,
        run=run,
        sim=sim,
        result=result,
        payloads=payloads,
        lineages=lineages,
        samples=samples,
    )
    outcome.report = scenario.detect(outcome)
    return outcome
