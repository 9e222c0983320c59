"""Fee and size distributions used by the workload generators."""

from __future__ import annotations

import itertools
import random

from repro.errors import WorkloadError

#: The paper's uniform fee range: every generated workload draws its
#: fees from ``[FEE_LOW, FEE_HIGH]``.
FEE_LOW, FEE_HIGH = 1, 100

#: Sec. VI-C1's small-shard size range: "We only inject 1 to 9
#: transactions into a small shard."
SMALL_SHARD_LOW, SMALL_SHARD_HIGH = 1, 9


def uniform_fee_stream(seed: int | None = None):
    """Integer fees drawn uniformly from ``[FEE_LOW, FEE_HIGH]``, forever.

    Lazy, so a million-transaction campaign never holds a million fees
    at once.
    """
    rng = random.Random(seed)
    while True:
        yield rng.randint(FEE_LOW, FEE_HIGH)


def uniform_fees(count: int, seed: int | None = None) -> list[int]:
    """The first ``count`` draws of :func:`uniform_fee_stream`."""
    if count < 0:
        raise WorkloadError("fee count cannot be negative")
    return list(itertools.islice(uniform_fee_stream(seed), count))


def binomial_fees(
    count: int, total_fees: int = 200, seed: int | None = None
) -> list[int]:
    """Fees following the paper's Eq. (4) binomial model: Binomial(N, 1/2).

    ``total_fees`` is the paper's ``N`` ("200 transaction fees in total"
    in the Sec. IV-D headline number).

    Draws are clamped to >= 1, matching the floor of every other fee
    model here (``uniform_fees`` starts at ``FEE_LOW = 1``,
    ``exponential_fees`` takes ``max(1, ...)``): a zero-fee transaction
    earns utility ``U_ij = f_j/(n_j+1) = 0`` in the selection game,
    indistinguishable from not selecting at all, which distorts
    tie-breaking.
    """
    if count < 0:
        raise WorkloadError("fee count cannot be negative")
    if total_fees <= 0:
        raise WorkloadError("total_fees must be positive")
    rng = random.Random(seed)
    return [
        max(1, sum(1 for __ in range(total_fees) if rng.random() < 0.5))
        for __ in range(count)
    ]


def exponential_fees(
    count: int, mean: float = 20.0, seed: int | None = None
) -> list[int]:
    """Heavy-ish tailed fees: a few transactions dominate.

    This is the regime the paper blames for the selection game's
    worst-case ("a transaction set with much higher transaction fees
    than others", Sec. VI-E2).
    """
    if count < 0:
        raise WorkloadError("fee count cannot be negative")
    if mean <= 0:
        raise WorkloadError("mean fee must be positive")
    rng = random.Random(seed)
    return [max(1, round(rng.expovariate(1.0 / mean))) for __ in range(count)]


def random_small_shard_sizes(count: int, seed: int | None = None) -> list[int]:
    """Random per-shard transaction counts for the merging simulations,
    uniform over ``[SMALL_SHARD_LOW, SMALL_SHARD_HIGH]``."""
    if count < 0:
        raise WorkloadError("shard count cannot be negative")
    rng = random.Random(seed)
    return [
        rng.randint(SMALL_SHARD_LOW, SMALL_SHARD_HIGH) for __ in range(count)
    ]
