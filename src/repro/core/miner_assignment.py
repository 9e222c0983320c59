"""Miner-to-shard assignment (Sec. III-B).

The paper revises Omniledger's scheme so that miner counts track per-shard
transaction fractions:

1. a verifiable leader is elected with a VRF on the epoch seed;
2. the leader requests the per-shard transaction fractions ``beta_i`` from
   MaxShard miners and broadcasts them with fresh RandHound randomness;
3. each miner sorts the shards by received fraction, draws a random group
   number ``r`` in [1, 100] from the randomness and her public key, and
   lands in shard ``s`` iff ``r`` falls inside shard ``s``'s cumulative
   fraction interval.

Because the draw is a deterministic function of public data, *anyone* can
verify a miner's claimed shard — the membership check the Sec. III-C block
validation plugs in.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.consensus.miner import MinerIdentity
from repro.crypto.randhound import group_draw
from repro.crypto.vrf import VRFOutput, elect_leader
from repro.errors import ShardAssignmentError

#: The number of RandHound groups the paper separates miners into.
GROUPS = 100


def _sorted_shards(fractions: dict[int, float]) -> list[tuple[int, float]]:
    """Shards in the order miners sort them: by fraction desc, id asc.

    The paper only says miners "sort all the shards based on the received
    fractions"; any deterministic order works as long as everyone uses the
    same one, which is the property verification needs.
    """
    return sorted(fractions.items(), key=lambda item: (-item[1], item[0]))


def _cumulative_intervals(
    fractions: dict[int, float],
) -> list[tuple[int, float, float]]:
    """Half-open cumulative intervals (shard, low, high] over [0, 100]."""
    total = sum(fractions.values())
    if total <= 0:
        raise ShardAssignmentError("transaction fractions must sum to a positive value")
    scale = 100.0 / total
    intervals: list[tuple[int, float, float]] = []
    cumulative = 0.0
    for shard, fraction in _sorted_shards(fractions):
        low = cumulative
        cumulative += fraction * scale
        intervals.append((shard, low, cumulative))
    # Guard against floating-point underflow of the last boundary.
    shard, low, __ = intervals[-1]
    intervals[-1] = (shard, low, 100.0)
    return intervals


def draw_shard(public: str, randomness: str, fractions: dict[int, float]) -> int:
    """The deterministic shard draw for one miner public key.

    ``r`` is the miner's RandHound group in [1, 100]; she lands in the
    shard whose cumulative-fraction interval contains ``r``.
    """
    r = group_draw(randomness, public, groups=GROUPS)
    for shard, low, high in _cumulative_intervals(fractions):
        if low < r <= high:
            return shard
    raise ShardAssignmentError(
        f"draw {r} fell outside every shard interval (fractions: {fractions})"
    )


def verify_membership(
    public: str, claimed_shard: int, randomness: str, fractions: dict[int, float]
) -> bool:
    """Publicly verify a miner's claimed shard (Sec. III-B, last step).

    "Users can verify whether a miner is in shard s with this algorithm
    given that miner's public key, the randomness, as well as the
    fractions of transactions received from the verifiable leader."
    """
    try:
        return draw_shard(public, randomness, fractions) == claimed_shard
    except ShardAssignmentError:
        return False


@dataclass(frozen=True)
class MinerAssignment:
    """The complete, verifiable outcome of one assignment epoch."""

    epoch_seed: str
    leader_public: str
    leader_proof: VRFOutput
    randomness: str
    fractions: dict[int, float]
    shard_of: dict[str, int]

    def members_of(self, shard_id: int) -> list[str]:
        """Public keys assigned to ``shard_id``, sorted for determinism."""
        return sorted(
            public for public, shard in self.shard_of.items() if shard == shard_id
        )

    def shard_sizes(self) -> dict[int, int]:
        """Miner counts per shard."""
        sizes: dict[int, int] = {shard: 0 for shard in self.fractions}
        for shard in self.shard_of.values():
            sizes[shard] = sizes.get(shard, 0) + 1
        return sizes

    def verifier(self):
        """A ``(public, shard) -> bool`` closure for block validation.

        Memoized: the draw is a pure function of public data that block
        validation re-checks for the same (miner, shard) pair on every
        block that miner broadcasts, so each pair is derived once.
        """
        cache: dict[tuple[str, int], bool] = {}

        def verify(public: str, claimed_shard: int) -> bool:
            key = (public, claimed_shard)
            cached = cache.get(key)
            if cached is None:
                cached = cache[key] = verify_membership(
                    public, claimed_shard, self.randomness, self.fractions
                )
            return cached

        return verify


def assign_miners(
    miners: list[MinerIdentity],
    fractions: dict[int, float],
    epoch_seed: str,
    randomness: str | None = None,
) -> MinerAssignment:
    """Run one full assignment epoch.

    A VRF leader is elected among the miners; the epoch randomness is
    derived from the leader's VRF output unless an explicit RandHound
    value is supplied (the simulator supplies the beacon's output when it
    models the full protocol).
    """
    if not miners:
        raise ShardAssignmentError("cannot assign zero miners")
    if not fractions:
        raise ShardAssignmentError("cannot assign miners to zero shards")

    leader, proof = elect_leader([m.keypair for m in miners], epoch_seed)
    if randomness is None:
        randomness = proof.output

    shard_of = {
        miner.public: draw_shard(miner.public, randomness, fractions)
        for miner in miners
    }
    return MinerAssignment(
        epoch_seed=epoch_seed,
        leader_public=leader.public,
        leader_proof=proof,
        randomness=randomness,
        fractions=dict(fractions),
        shard_of=shard_of,
    )
