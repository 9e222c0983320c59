"""Network message types.

Each message kind maps to a protocol step the paper describes, so the
communication accounting (Fig. 4b/4c) can attribute every delivery:

* ``TX`` / ``BLOCK`` — normal gossip (free in both systems' accounting);
* ``CROSS_SHARD_*`` — ChainSpace's S-BAC inter-shard consensus traffic;
* ``LEADER_*`` / ``STAT_REPORT`` — the two leader round-trips of the
  paper's parameter unification (the constant "2" of Fig. 4c).
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class MessageKind(enum.Enum):
    """What a message carries; drives the communication accounting."""

    TX = "tx"
    BLOCK = "block"
    CROSS_SHARD_PREPARE = "cross_shard_prepare"
    CROSS_SHARD_VOTE = "cross_shard_vote"
    CROSS_SHARD_COMMIT = "cross_shard_commit"
    STAT_REPORT = "stat_report"
    LEADER_BROADCAST = "leader_broadcast"
    GAME_STATE = "game_state"

    @property
    def is_cross_shard(self) -> bool:
        """Whether this message counts toward cross-shard communication."""
        return self in _CROSS_SHARD_KINDS


_CROSS_SHARD_KINDS = {
    MessageKind.CROSS_SHARD_PREPARE,
    MessageKind.CROSS_SHARD_VOTE,
    MessageKind.CROSS_SHARD_COMMIT,
    MessageKind.STAT_REPORT,
    MessageKind.LEADER_BROADCAST,
    MessageKind.GAME_STATE,
}


class Message(NamedTuple):
    """An addressed payload with a kind tag and optional home shard.

    An immutable tuple: one message is built per delivery, and a tuple
    costs a fraction of a frozen dataclass to build. ``recipient`` is
    ``None`` only on the unaddressed message a faulty fan-out judges
    its recipients against; a delivered message always names one.

    ``shard_id`` is the payload's home shard, established once by the
    sender: the network screens out its delivery to any node of another
    shard (see :mod:`repro.net.network`). ``None`` reaches every
    recipient, which then decides for itself.
    """

    kind: MessageKind
    sender: str
    recipient: str | None
    payload: object = None
    shard_id: int | None = None

    def __repr__(self) -> str:
        recipient = None if self.recipient is None else self.recipient[:8]
        return (
            f"Message({self.kind.value}, {self.sender[:8]}->{recipient}, "
            f"shard={self.shard_id})"
        )
