"""Declarative fault plans.

A :class:`FaultPlan` is pure data: it says *what* goes wrong and *when*,
never *how the dice land* — that is the :class:`~repro.faults.model.FaultModel`'s
job, driven by a dedicated seeded RNG. Keeping the plan declarative means
two runs with the same plan and seed inject byte-identical faults, which
is what makes chaos tests assertable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import FaultConfigError
from repro.net.messages import MessageKind


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise FaultConfigError(
            f"{name} must be a probability in [0, 1], got {value}"
        )


@dataclass(frozen=True)
class MessageFaults:
    """Per-message-kind fault probabilities.

    ``drop_probability`` loses the message entirely; ``duplicate_probability``
    delivers it a second time after an independent extra delay;
    ``delay_spike_probability`` adds up to ``delay_spike_seconds`` of extra
    latency (uniformly drawn) — the tail-latency events that reorder
    gossip and exercise the orphan-buffer path.
    """

    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    delay_spike_probability: float = 0.0
    delay_spike_seconds: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("drop_probability", self.drop_probability)
        _check_probability("duplicate_probability", self.duplicate_probability)
        _check_probability("delay_spike_probability", self.delay_spike_probability)
        # ``0 <= x < inf`` also rejects NaN, which fails every comparison;
        # an infinite bound would draw an infinite (or NaN) spike.
        if not 0 <= self.delay_spike_seconds < math.inf:
            raise FaultConfigError(
                f"delay_spike_seconds must be finite and non-negative, "
                f"got {self.delay_spike_seconds}"
            )

    @property
    def is_noop(self) -> bool:
        return (
            self.drop_probability == 0.0
            and self.duplicate_probability == 0.0
            and self.delay_spike_probability == 0.0
        )


@dataclass(frozen=True)
class CrashEvent:
    """One node goes dark at ``at`` and (optionally) returns at ``recover_at``.

    While crashed, the node neither sends nor receives messages and skips
    its mining slots. ``recover_at=None`` models churn-out: the node never
    comes back.
    """

    node_id: str
    at: float
    recover_at: float | None = None

    def __post_init__(self) -> None:
        if not self.at >= 0:
            raise FaultConfigError(
                f"at cannot be negative or NaN, got {self.at}"
            )
        if self.recover_at is not None and not self.recover_at > self.at:
            raise FaultConfigError(
                f"recover_at ({self.recover_at}) must come strictly "
                f"after at ({self.at})"
            )

    def crashed_at(self, time: float) -> bool:
        if time < self.at:
            return False
        return self.recover_at is None or time < self.recover_at


@dataclass(frozen=True)
class Partition:
    """A network split: ``members`` vs. everyone else, healing at ``heals_at``.

    Messages crossing the cut in either direction are lost while the
    partition is active. ``heals_at=None`` models a permanent split.
    """

    members: tuple[str, ...]
    starts_at: float = 0.0
    heals_at: float | None = None

    def __post_init__(self) -> None:
        # A bare string would pass every test below and then match
        # substrings in :meth:`separates` ("n1" in "n10").
        if isinstance(self.members, str) or not all(
            isinstance(member, str) for member in self.members
        ):
            raise FaultConfigError(
                f"members must be a collection of node ids, got {self.members!r}"
            )
        if not self.members:
            raise FaultConfigError("members: a partition needs at least one")
        if not self.starts_at >= 0:
            raise FaultConfigError(
                f"starts_at cannot be negative or NaN, got {self.starts_at}"
            )
        if self.heals_at is not None and not self.heals_at > self.starts_at:
            raise FaultConfigError(
                f"heals_at ({self.heals_at}) must come strictly after "
                f"starts_at ({self.starts_at})"
            )

    def active_at(self, time: float) -> bool:
        if time < self.starts_at:
            return False
        return self.heals_at is None or time < self.heals_at

    def separates(self, a: str, b: str, time: float) -> bool:
        if not self.active_at(time):
            return False
        return (a in self.members) != (b in self.members)


#: The two ways a verifiable leader can misbehave during unification.
WITHHOLD = "withhold"
EQUIVOCATE = "equivocate"


@dataclass(frozen=True)
class FaultyLeader:
    """A leader that deviates when broadcasting the unification packet.

    * ``withhold`` — the packet is never sent; honest miners hit the
      leader-silence timeout and fall back to solo (un-unified) mining.
    * ``equivocate`` — the leader keeps the canonical packet for herself
      but broadcasts a tampered variant (different randomness) to every
      other miner. The tampered packet's digest mismatches the public
      commitment, so every honest receiver detects and rejects it.
    """

    mode: str = WITHHOLD

    def __post_init__(self) -> None:
        if self.mode not in (WITHHOLD, EQUIVOCATE):
            raise FaultConfigError(
                f"mode must be '{WITHHOLD}' or '{EQUIVOCATE}', "
                f"got {self.mode!r}"
            )

    @property
    def withholds(self) -> bool:
        return self.mode == WITHHOLD

    @property
    def equivocates(self) -> bool:
        return self.mode == EQUIVOCATE


@dataclass(frozen=True)
class FaultPlan:
    """Everything that goes wrong in one run.

    ``default_message_faults`` applies to every :class:`MessageKind` not
    explicitly overridden in ``message_faults``. The default-constructed
    plan is a strict no-op: wiring it through the stack leaves results
    byte-identical to a run without the fault layer (guarded by the
    seed-stability test).
    """

    default_message_faults: MessageFaults = field(default_factory=MessageFaults)
    message_faults: tuple[tuple[MessageKind, MessageFaults], ...] = ()
    crashes: tuple[CrashEvent, ...] = ()
    partitions: tuple[Partition, ...] = ()
    leader: FaultyLeader | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.default_message_faults, MessageFaults):
            raise FaultConfigError(
                "default_message_faults must be a MessageFaults, got "
                f"{type(self.default_message_faults).__name__}"
            )
        for entry in self.message_faults:
            try:
                kind, faults = entry
            except (TypeError, ValueError):
                raise FaultConfigError(
                    f"message_faults entries must be (MessageKind, "
                    f"MessageFaults) pairs, got {entry!r}"
                ) from None
            if not isinstance(kind, MessageKind) or not isinstance(
                faults, MessageFaults
            ):
                raise FaultConfigError(
                    f"message_faults entries must be (MessageKind, "
                    f"MessageFaults) pairs, got ({kind!r}, {faults!r})"
                )

    @classmethod
    def none(cls) -> "FaultPlan":
        """The explicit no-fault plan."""
        return cls()

    @classmethod
    def lossy(cls, drop_probability: float, **kwargs: float) -> "FaultPlan":
        """Uniform message loss across every kind (the bench sweep knob)."""
        return cls(
            default_message_faults=MessageFaults(
                drop_probability=drop_probability, **kwargs
            )
        )

    def faults_for(self, kind: MessageKind) -> MessageFaults:
        for faulted_kind, faults in self.message_faults:
            if faulted_kind is kind:
                return faults
        return self.default_message_faults

    @property
    def is_active(self) -> bool:
        """Whether the plan injects anything at all."""
        if not self.default_message_faults.is_noop:
            return True
        if any(not faults.is_noop for __, faults in self.message_faults):
            return True
        return bool(self.crashes or self.partitions or self.leader)


@dataclass
class FaultStats:
    """Counters of injected faults and of the protocol's responses.

    The first group counts what the fault layer *did*; the second counts
    how the protocol *reacted* (filled in by the node/simulation layer).
    """

    # injected
    drops: int = 0
    duplicates: int = 0
    delay_spikes: int = 0
    partition_drops: int = 0
    crash_drops: int = 0
    # protocol responses
    retransmissions: int = 0
    fallbacks: int = 0
    equivocations_detected: int = 0

    @property
    def messages_lost(self) -> int:
        """Every delivery that never happened, whatever the cause."""
        return self.drops + self.partition_drops + self.crash_drops
