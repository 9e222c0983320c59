"""Multi-epoch campaigns: the dynamic system over a traffic stream.

:class:`repro.core.epoch.EpochManager` plans one epoch;
:class:`Campaign` strings epochs together the way a live deployment
would: each epoch's fresh traffic joins whatever the previous epoch
deferred (shards that drew no miners), the plan is simulated, and the
per-epoch metrics accumulate into a campaign-level summary.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

from repro.chain.transaction import Transaction
from repro.core.epoch import EpochManager, EpochPlan
from repro.errors import SimulationError
from repro.observe import Tracer, resolve_tracer, use_tracer
from repro.runtime import Executor, get_default_executor
from repro.sim.config import SimulationConfig, TimingModel
from repro.sim.simulator import ShardedSimulation, SimulationResult


@dataclass(frozen=True)
class EpochOutcome:
    """One epoch's plan plus its simulated execution."""

    epoch_index: int
    plan: EpochPlan
    result: SimulationResult
    injected: int  # fresh transactions this epoch
    carried_in: int  # deferred transactions inherited from the last epoch
    deferred_out: int  # transactions handed to the next epoch


@dataclass
class CampaignResult:
    """The whole campaign's record."""

    epochs: list[EpochOutcome] = field(default_factory=list)
    # The campaign's trace when observability was enabled (None otherwise).
    trace: Tracer | None = None

    @property
    def total_confirmed(self) -> int:
        return sum(e.result.confirmed_transactions for e in self.epochs)


class Campaign:
    """Runs an epoch manager against a stream of per-epoch workloads."""

    def __init__(
        self,
        manager: EpochManager,
        timing: TimingModel | None = None,
        block_capacity: int = 10,
        base_seed: int = 0,
        executor: Executor | None = None,
        trace: Tracer | bool | None = None,
    ) -> None:
        self._manager = manager
        self._timing = timing or TimingModel.low_variance(interval=1.0, shape=24.0)
        self._block_capacity = block_capacity
        self._base_seed = base_seed
        self._executor = executor
        # Observability hook: a Tracer, True (fresh tracer), False (off),
        # or None to join an active use_tracer scope (else untraced).
        self._tracer = resolve_tracer(trace)

    def _simulate_epoch(
        self, planned: tuple[int, EpochPlan, int, int, int]
    ) -> SimulationResult:
        """One epoch's simulation — an independent, seeded executor task."""
        epoch_index, plan, __, __, __ = planned
        config = SimulationConfig(
            timing=self._timing,
            block_capacity=self._block_capacity,
            seed=self._base_seed + epoch_index,
        )
        return ShardedSimulation(plan.to_specs(), config=config).run()

    def run(self, traffic: list[list[Transaction]]) -> CampaignResult:
        """Execute one epoch per traffic batch, carrying deferrals over.

        Planning is inherently sequential — epoch ``i+1``'s workload
        contains epoch ``i``'s deferrals, and the beacon chain advances
        once per epoch — but a deferral depends only on the *plan*
        (shards that drew no miners), never on the simulation. So the
        plans are derived in epoch order first, and the epoch
        *simulations* — each seeded by ``base_seed + epoch_index`` alone
        — then fan out over the runtime executor, with results collected
        back in epoch order. A parallel campaign is bit-identical to a
        serial one.
        """
        if not traffic:
            raise SimulationError("a campaign needs at least one epoch of traffic")
        scope = (
            use_tracer(self._tracer)
            if self._tracer is not None
            else contextlib.nullcontext()
        )
        with scope:
            return self._run(traffic)

    def _run(self, traffic: list[list[Transaction]]) -> CampaignResult:
        tracer = self._tracer
        planned: list[tuple[int, EpochPlan, int, int, int]] = []
        carryover: list[Transaction] = []
        for epoch_index, fresh in enumerate(traffic):
            workload = carryover + list(fresh)
            if not workload:
                carryover = []
                continue
            plan = self._manager.run_epoch(epoch_index, workload)
            deferred = plan.deferred_transactions()
            if tracer is not None:
                tracer.event(
                    "epoch.plan",
                    phase="campaign",
                    epoch=epoch_index,
                    injected=len(fresh),
                    carried_in=len(carryover),
                    deferred_out=len(deferred),
                    shards=len(plan.to_specs()),
                )
            planned.append(
                (epoch_index, plan, len(fresh), len(carryover), len(deferred))
            )
            carryover = deferred

        executor = self._executor or get_default_executor()
        results = executor.map(self._simulate_epoch, planned)

        campaign = CampaignResult(trace=tracer)
        for (epoch_index, plan, injected, carried_in, deferred_out), result in zip(
            planned, results
        ):
            if tracer is not None:
                tracer.event(
                    "epoch.result",
                    phase="campaign",
                    epoch=epoch_index,
                    confirmed=result.confirmed_transactions,
                    makespan=result.makespan,
                    empty_blocks=result.total_empty_blocks,
                )
            campaign.epochs.append(
                EpochOutcome(
                    epoch_index=epoch_index,
                    plan=plan,
                    result=result,
                    injected=injected,
                    carried_in=carried_in,
                    deferred_out=deferred_out,
                )
            )
        return campaign
