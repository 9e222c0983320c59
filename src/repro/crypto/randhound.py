"""RandHound-style distributed randomness beacon.

The paper (Sec. III-B) assigns miners to shards using randomness produced
with the RandHound protocol [Syta et al., IEEE S&P'17]: participants commit
to shares, reveal them, and the combined value is unbiasable as long as one
participant is honest. We model the commit/reveal structure faithfully —
including the property that withholding a reveal is detected — while
replacing PVSS with hash commitments, which preserves the bias-resistance
argument inside the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import hash_items, int_from_hash, sha256_hex
from repro.crypto.keys import KeyPair
from repro.errors import BeaconError


@dataclass(frozen=True)
class BeaconRound:
    """The public transcript of one completed beacon round."""

    round_id: int
    commitments: dict[str, str]
    reveals: dict[str, str]
    randomness: str

    def verify(self) -> bool:
        """Re-check every reveal against its commitment and the output."""
        if set(self.commitments) != set(self.reveals):
            return False
        for public, reveal in self.reveals.items():
            if sha256_hex(f"beacon-commit\x1f{reveal}") != self.commitments[public]:
                return False
        expected = hash_items(
            sorted(self.reveals.items()), domain=f"beacon-round-{self.round_id}"
        )
        return expected == self.randomness


class RandHoundBeacon:
    """A multi-round commit/reveal randomness beacon.

    Usage::

        beacon = RandHoundBeacon(participants)
        rnd = beacon.run_round()          # one fresh 256-bit randomness
        assert rnd.verify()

    Each participant's share is derived deterministically from her secret
    key and the round id, so replaying the beacon under the same key set
    reproduces the same transcript — the determinism the paper's parameter
    unification relies on.
    """

    def __init__(self, participants: list[KeyPair]) -> None:
        if not participants:
            raise BeaconError("a beacon needs at least one participant")
        publics = [kp.public for kp in participants]
        if len(set(publics)) != len(publics):
            raise BeaconError("duplicate participant public keys")
        self._participants = list(participants)
        self._round_id = 0
        self._history: list[BeaconRound] = []

    @property
    def history(self) -> list[BeaconRound]:
        """All completed rounds, oldest first."""
        return list(self._history)

    def _share(self, keypair: KeyPair, round_id: int) -> str:
        return sha256_hex(f"beacon-share\x1f{keypair.secret}\x1f{round_id}")

    def run_round(self, withholders: set[str] | None = None) -> BeaconRound:
        """Run one commit/reveal round and return its transcript.

        ``withholders`` is the set of public keys that commit but refuse to
        reveal; the round then fails with :class:`BeaconError`, modelling
        RandHound's detection of misbehaving participants.
        """
        withholders = withholders or set()
        round_id = self._round_id
        self._round_id += 1

        reveals: dict[str, str] = {}
        commitments: dict[str, str] = {}
        for keypair in self._participants:
            share = self._share(keypair, round_id)
            commitments[keypair.public] = sha256_hex(f"beacon-commit\x1f{share}")
            if keypair.public not in withholders:
                reveals[keypair.public] = share

        missing = set(commitments) - set(reveals)
        if missing:
            raise BeaconError(
                f"round {round_id}: {len(missing)} participant(s) withheld reveals"
            )

        randomness = hash_items(
            sorted(reveals.items()), domain=f"beacon-round-{round_id}"
        )
        completed = BeaconRound(
            round_id=round_id,
            commitments=commitments,
            reveals=reveals,
            randomness=randomness,
        )
        self._history.append(completed)
        return completed


def group_draw(randomness: str, public: str, groups: int = 100) -> int:
    """Draw a group index in ``[1, groups]`` for one public key.

    This is the RandHound-backed draw the paper uses to place miners into
    one of 100 evenly-sized groups (Sec. III-B): deterministic given the
    beacon randomness and the miner's public key, hence verifiable by
    anyone who knows both.
    """
    if groups <= 0:
        raise BeaconError("groups must be positive")
    digest = sha256_hex(f"group-draw\x1f{randomness}\x1f{public}")
    return int_from_hash(digest, groups) + 1
