"""Empirical Fig. 1d overlay: Eq. 3 measured from live engine runs.

:mod:`repro.core.security` gives the closed forms — the probability that
a coalition with global hashrate fraction ``f`` corrupts an ``m``-miner
shard is the binomial tail of Eq. 3, plotted as Fig. 1d. The Monte-Carlo
cross-check in ``tests/core/test_security.py`` samples the *binomial* (no
protocol at all). This module closes the loop at the protocol level:
each trial samples coalition membership i.i.d. Bernoulli(f), then runs
the actual takeover attack — censorship fork, real network, real fork
choice — through the full engine and classifies the shard as corrupted
iff the coalition out-mined the honest members over the horizon. The
empirical corruption rate must land within binomial confidence of the
Eq. 3 curve; the acceptance tests assert exactly that.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass

from repro.consensus.miner import MinerIdentity
from repro.consensus.pow import PoWParameters
from repro.core.miner_assignment import assign_miners
from repro.core.security import (
    geometric_adversary_sum,
    merging_failure_probability,
    shard_corruption_probability,
)
from repro.errors import ScenarioError
from repro.net.network import LatencyModel
from repro.scenarios.adversary import CensorshipForkBehavior, ForkTracker
from repro.sim.protocol import ProtocolConfig, ProtocolSimulation
from repro.workloads.generators import single_shard_workload

#: Default sweep grid: odd miner counts (no mining-race ties) spanning
#: the Fig. 1d fractions from "almost surely safe" to "coin flip".
DEFAULT_POINTS: tuple[tuple[int, float], ...] = (
    (7, 0.18),
    (9, 0.32),
    (11, 0.45),
)


@dataclass(frozen=True)
class SweepPoint:
    """One (miners, adversary fraction) grid point of the overlay."""

    miners: int
    adversary_fraction: float
    trials: int
    engine_trials: int
    corrupted: int
    empirical: float
    analytical: float
    empirical_safety: float
    analytical_safety: float
    stderr: float
    z: float
    tolerance: float
    within_tolerance: bool
    merging_failure_empirical: float
    merging_failure_analytical: float

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def takeover_corruption_sweep(
    points: tuple[tuple[int, float], ...] = DEFAULT_POINTS,
    trials: int = 120,
    seed: int = 0,
    horizon: float = 60.0,
    z_threshold: float = 3.5,
    slack: float = 0.02,
) -> list[SweepPoint]:
    """Sweep the takeover attack over a (miners, fraction) grid.

    Per trial: coalition membership is sampled i.i.d. Bernoulli(f) over
    the shard's miners — the exact probability model behind Eq. 3 — and
    the censorship-fork race runs through the full engine. "Corrupted"
    means the coalition forged more blocks than the honest members over
    the horizon; with odd miner counts and a one-second expected block
    interval the race statistic misclassifies the majority side with
    probability well under the tolerance slack.

    Degenerate compositions skip the engine (an empty coalition cannot
    corrupt; a complete one already has) — that's a fact of the model,
    not a shortcut, and keeps the sweep's cost on the contested cases.
    """
    return [
        _sweep_point(
            miners, fraction, trials, seed, horizon, z_threshold, slack
        )
        for miners, fraction in points
    ]


def _sweep_point(
    miners: int,
    fraction: float,
    trials: int,
    seed: int,
    horizon: float,
    z_threshold: float,
    slack: float,
) -> SweepPoint:
    # Half-open on the right to match the Eq. 3 closed forms: at f = 1
    # the geometric adversary sum (Eq. 5) diverges.
    if not 0.0 <= fraction < 1.0:
        raise ScenarioError(
            f"adversary fraction must be in [0, 1), got {fraction}"
        )
    if miners < 1 or trials < 1:
        raise ScenarioError(
            f"sweep needs miners >= 1 and trials >= 1, got {miners}/{trials}"
        )
    idents = [
        MinerIdentity.create(f"sweep-{miners}-{i}") for i in range(miners)
    ]
    publics = [m.public for m in idents]
    # The workload, identities and assignment are fixed per grid point —
    # only the coalition composition and the run seed vary per trial.
    # Explicit distinct fees: a fee tie would break on tx ids, which
    # embed a process-local serial and would leak into packing order.
    workload = single_shard_workload(
        3, fees=[11, 23, 37], seed=seed * 1000 + miners
    )
    assignment = assign_miners(idents, {1: 100.0}, epoch_seed=f"sweep-{miners}")
    rng = random.Random(f"sweep-{seed}-{miners}-{fraction}")
    base = ProtocolConfig(
        pow_params=PoWParameters(difficulty=0x40000 // 60),
        latency=LatencyModel(base_seconds=0.01, jitter_seconds=0.01),
        max_duration=horizon,
        run_to_horizon=True,
    )
    corrupted = 0
    engine_trials = 0
    for trial in range(trials):
        coalition = frozenset(p for p in publics if rng.random() < fraction)
        if not coalition:
            continue
        if len(coalition) == miners:
            corrupted += 1
            continue
        engine_trials += 1
        tracker = ForkTracker()
        behaviors = {p: CensorshipForkBehavior(tracker) for p in coalition}
        config = dataclasses.replace(base, seed=seed * 100_000 + trial)
        sim = ProtocolSimulation(
            idents,
            workload,
            config=config,
            behaviors=behaviors,
            assignment=assignment,
        )
        result = sim.run()
        mined = result.rewards.blocks_mined
        adversary_blocks = sum(mined.get(p, 0) for p in coalition)
        honest_blocks = sum(mined.values()) - adversary_blocks
        if adversary_blocks > honest_blocks:
            corrupted += 1
    empirical = corrupted / trials
    analytical = shard_corruption_probability(miners, fraction)
    stderr = math.sqrt(analytical * (1.0 - analytical) / trials)
    z = (empirical - analytical) / stderr if stderr > 0 else 0.0
    tolerance = z_threshold * stderr + slack
    return SweepPoint(
        miners=miners,
        adversary_fraction=fraction,
        trials=trials,
        engine_trials=engine_trials,
        corrupted=corrupted,
        empirical=empirical,
        analytical=analytical,
        empirical_safety=1.0 - empirical,
        analytical_safety=1.0 - analytical,
        stderr=stderr,
        z=z,
        tolerance=tolerance,
        within_tolerance=abs(empirical - analytical) <= tolerance,
        # Eq. 3's composite: a patient adversary retries over epochs
        # (geometric sum), so the merged-shard failure rate is the
        # per-epoch corruption times that amplification. Overlaying the
        # empirical corruption rate through the same composite shows the
        # engine agreeing with Eq. 5-6 end to end.
        merging_failure_empirical=geometric_adversary_sum(fraction) * empirical,
        merging_failure_analytical=merging_failure_probability(
            fraction, 1.0 - analytical
        ),
    )


def render_sweep(points: list[SweepPoint]) -> str:
    """A fixed-width Fig. 1d overlay table for the CLI."""
    lines = [
        "empirical vs analytical shard corruption (Eq. 3 / Fig. 1d)",
        f"{'miners':>7} {'f':>6} {'empirical':>10} {'analytical':>11} "
        f"{'|z|':>6} {'runs':>5} {'ok':>3}",
    ]
    for p in points:
        lines.append(
            f"{p.miners:>7} {p.adversary_fraction:>6.2f} "
            f"{p.empirical:>10.4f} {p.analytical:>11.4f} "
            f"{abs(p.z):>6.2f} {p.engine_trials:>5} "
            f"{'yes' if p.within_tolerance else 'NO':>3}"
        )
    safety = ", ".join(
        f"m={p.miners}: {p.empirical_safety:.4f}/{p.analytical_safety:.4f}"
        for p in points
    )
    lines.append(f"shard safety (empirical/analytical): {safety}")
    return "\n".join(lines)
