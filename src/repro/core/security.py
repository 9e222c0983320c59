"""Security analysis (Sec. III-B and Sec. IV-D).

The paper models the number of malicious nodes in a shard with a binomial
distribution (an "infinite pool" of adversarial identities) and derives:

* **shard safety** (Fig. 1d): a shard of ``n`` miners is corrupted when
  the adversary controls more than the corruption threshold (1/2 under
  the paper's PoW setting, Eq. 5; 1/3 for BFT-style shards);
* **Eq. (3)** — the failure probability of inter-shard merging: the
  adversary must be the elected leader for ``k`` consecutive rounds *and*
  corrupt the newly formed shard;
* **Eq. (4)** — the binomial transaction-fee distribution;
* **Eq. (5)** — the probability of corrupting a single transaction's
  validator set;
* **Eq. (6)** — the failure probability of intra-shard selection.

All formulas are implemented exactly as printed, with the ``l -> inf``
limits the paper quotes (8e-6 and 7e-7 for a 25% adversary) available by
passing ``rounds=None``.
"""

from __future__ import annotations

import math

from scipy import stats

from repro.errors import ReproError

#: Corruption threshold under PoW (a shard falls when > 1/2 is malicious).
POW_THRESHOLD = 0.5
#: Corruption threshold under BFT-style intra-shard consensus.
BFT_THRESHOLD = 1.0 / 3.0


def _check_fraction(f: float, name: str = "adversary fraction") -> None:
    if not 0.0 <= f < 1.0:
        raise ReproError(f"{name} must be in [0, 1), got {f}")


def shard_corruption_probability(
    miners: int, adversary_fraction: float, threshold: float = POW_THRESHOLD
) -> float:
    """P(a shard of ``miners`` members is corrupted).

    The adversary corrupts the shard when her members exceed
    ``floor(threshold * miners)``; membership is Binomial(miners, f)
    under random assignment (Sec. III-B / Fig. 1d).
    """
    if miners <= 0:
        raise ReproError("shard must have at least one miner")
    _check_fraction(adversary_fraction)
    cutoff = math.floor(threshold * miners)
    # sf(k) = P(X > k): corruption needs strictly more than the cutoff.
    return float(stats.binom.sf(cutoff, miners, adversary_fraction))


def shard_safety(
    miners: int, adversary_fraction: float, threshold: float = POW_THRESHOLD
) -> float:
    """The Fig. 1(d) safety metric: 1 - corruption probability."""
    return 1.0 - shard_corruption_probability(miners, adversary_fraction, threshold)


def fig1d_curves(
    miner_counts: list[int] | range,
    adversary_fractions: tuple[float, ...] = (0.25, 0.33),
    threshold: float = POW_THRESHOLD,
) -> dict[float, list[float]]:
    """The Fig. 1(d) safety curves: fraction -> safety per shard size."""
    return {
        f: [shard_safety(n, f, threshold) for n in miner_counts]
        for f in adversary_fractions
    }


def geometric_adversary_sum(adversary_fraction: float, rounds: int | None = None) -> float:
    """``sum_{k=0}^{l} f^k`` — the consecutive-leadership factor.

    ``rounds=None`` takes the ``l -> inf`` limit ``1 / (1 - f)`` used by
    both headline numbers in Sec. IV-D.
    """
    _check_fraction(adversary_fraction)
    if rounds is None:
        return 1.0 / (1.0 - adversary_fraction)
    if rounds < 0:
        raise ReproError("rounds must be non-negative")
    if adversary_fraction == 0.0:
        return 1.0
    return (1.0 - adversary_fraction ** (rounds + 1)) / (1.0 - adversary_fraction)


def merging_failure_probability(
    adversary_fraction: float,
    single_shard_safety: float,
    rounds: int | None = None,
) -> float:
    """Eq. (3): P(the newly merged shard is corrupted).

    ``single_shard_safety`` is ``P_s``, the probability a single shard is
    *not* corrupted (from :func:`shard_safety`); the adversary must chain
    leaderships until enough of her nodes land in the new shard.
    """
    if not 0.0 <= single_shard_safety <= 1.0:
        raise ReproError("P_s must be a probability")
    return geometric_adversary_sum(adversary_fraction, rounds) * (
        1.0 - single_shard_safety
    )


def fee_probability(fee: int, total_fees: int) -> float:
    """Eq. (4): P(a transaction carries ``fee`` coins) = C(N, t) / 2^N."""
    if total_fees <= 0:
        raise ReproError("total fees N must be positive")
    if not 0 <= fee <= total_fees:
        return 0.0
    return float(stats.binom.pmf(fee, total_fees, 0.5))


def transaction_corruption_probability(
    validators: int, adversary_fraction: float
) -> float:
    """Eq. (5): P(more than half of a transaction's validators are malicious)."""
    if validators <= 0:
        raise ReproError("a transaction needs at least one validator")
    _check_fraction(adversary_fraction)
    cutoff = math.floor(validators / 2)
    return float(stats.binom.sf(cutoff, validators, adversary_fraction))


def selection_corruption_probability(
    adversary_fraction: float,
    total_fees: int = 200,
    total_miners: int = 100,
    rounds: int | None = None,
) -> float:
    """Eq. (6): P(the system is corrupted under intra-shard selection).

    The number of validators on a transaction with fee ``t`` follows the
    congestion-game equilibrium, where miner counts grow with fees; we
    allocate ``n(t)`` proportionally to ``t`` (at least one validator),
    which matches the equilibrium property ``n_j + 1 ∝ f_j`` of Eq. (2).
    """
    if total_miners <= 0:
        raise ReproError("total_miners must be positive")
    _check_fraction(adversary_fraction)
    mean_fee = total_fees / 2.0
    inner = 0.0
    for fee in range(1, total_fees + 1):
        p_fee = fee_probability(fee, total_fees)
        if p_fee == 0.0:
            continue
        validators = max(1, round(total_miners * fee / (mean_fee * 2.0)))
        inner += p_fee * transaction_corruption_probability(
            validators, adversary_fraction
        )
    return geometric_adversary_sum(adversary_fraction, rounds) * inner


def minimum_safe_shard_size(
    adversary_fraction: float,
    target_safety: float = 0.999,
    threshold: float = POW_THRESHOLD,
    max_size: int = 2000,
) -> int:
    """Smallest shard size whose safety meets ``target_safety``.

    Safety is not monotone step-by-step (parity effects of the floor),
    so the scan requires the target to hold for the candidate size and
    its successor.
    """
    _check_fraction(adversary_fraction)
    for n in range(1, max_size):
        if (
            shard_safety(n, adversary_fraction, threshold) >= target_safety
            and shard_safety(n + 1, adversary_fraction, threshold) >= target_safety
        ):
            return n
    raise ReproError(
        f"no shard size up to {max_size} reaches safety {target_safety} "
        f"against a {adversary_fraction:.0%} adversary"
    )
