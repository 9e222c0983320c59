"""The runtime fault engine the network consults.

:class:`FaultModel` turns a declarative :class:`~repro.faults.plan.FaultPlan`
into per-message decisions. Two properties matter:

* **determinism** — all randomness comes from one dedicated
  ``random.Random`` seeded at construction, so a (plan, seed) pair
  replays the exact same fault sequence;
* **isolation** — the engine never touches anyone else's RNG. A no-op
  plan draws nothing, so wiring the model through
  :class:`~repro.net.network.Network` leaves a fault-free run
  bit-identical to one without the model installed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.faults.plan import FaultPlan, FaultStats
from repro.net.messages import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.observe import Tracer


@dataclass(frozen=True)
class FaultDecision:
    """What the fault layer decided for one message send."""

    dropped: bool = False
    extra_delay: float = 0.0
    duplicate_delay: float | None = None  # None = no duplicate delivery

    @property
    def duplicated(self) -> bool:
        return self.duplicate_delay is not None


_CLEAN = FaultDecision()
_DROPPED = FaultDecision(dropped=True)


class FaultModel:
    """Evaluates a :class:`FaultPlan` against live traffic."""

    def __init__(
        self,
        plan: FaultPlan | None = None,
        seed: int | None = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.plan = plan or FaultPlan.none()
        self.stats = FaultStats()
        self._rng = random.Random(seed)
        # Crash schedules indexed by node: `crashed` runs on every send
        # *and* delivery, so a linear scan of the whole plan per message
        # dominates large runs. Pure reindexing — no RNG, no behavior
        # change.
        self._crashes_by_node: dict[str, list] = {}
        for crash in self.plan.crashes:
            self._crashes_by_node.setdefault(crash.node_id, []).append(crash)
        self._has_partitions = bool(self.plan.partitions)
        # The injected-event log: every decision that altered traffic is
        # emitted so a trace can cross-reference injected faults against
        # the protocol's observed reactions (retransmits, fallbacks).
        # Never consulted for control flow, so determinism is untouched.
        self._tracer = tracer

    def _note(
        self, name: str, message: Message, recipient: str, time: float, **attrs
    ) -> None:
        if self._tracer is not None:
            self._tracer.event(
                name,
                time=time,
                phase="fault",
                actor=message.sender,
                kind=message.kind.name,
                recipient=recipient,
                **attrs,
            )

    # ------------------------------------------------------------------
    # node liveness / reachability
    # ------------------------------------------------------------------
    def crashed(self, node_id: str, time: float) -> bool:
        """Whether ``node_id`` is down at ``time``."""
        crashes = self._crashes_by_node.get(node_id)
        if not crashes:
            return False
        return any(crash.crashed_at(time) for crash in crashes)

    def partitioned(self, a: str, b: str, time: float) -> bool:
        """Whether an active partition separates ``a`` from ``b``."""
        if not self._has_partitions:
            return False
        return any(p.separates(a, b, time) for p in self.plan.partitions)

    # ------------------------------------------------------------------
    # message path
    # ------------------------------------------------------------------
    def filter_send(
        self, message: Message, time: float, recipient: str | None = None
    ) -> FaultDecision:
        """Decide one send's fate; called by the network's fan-out.

        ``recipient`` (default ``message.recipient``) names who the send
        goes to: a fan-out judges all its recipients against one
        unaddressed message and addresses one only to a survivor.

        Crash and partition checks come first (they are deterministic in
        time and consume no randomness), then the probabilistic message
        faults for the message's kind.
        """
        if recipient is None:
            recipient = message.recipient
        if self.crashed(message.sender, time):
            self.stats.crash_drops += 1
            self._note("fault.crash_drop", message, recipient, time)
            return _DROPPED
        if self.partitioned(message.sender, recipient, time):
            self.stats.partition_drops += 1
            self._note("fault.partition_drop", message, recipient, time)
            return _DROPPED

        faults = self.plan.faults_for(message.kind)
        if faults.is_noop:
            return _CLEAN

        if faults.drop_probability > 0 and self._rng.random() < faults.drop_probability:
            self.stats.drops += 1
            self._note("fault.drop", message, recipient, time)
            return _DROPPED

        extra_delay = 0.0
        if (
            faults.delay_spike_probability > 0
            and self._rng.random() < faults.delay_spike_probability
        ):
            extra_delay = self._rng.uniform(0.0, faults.delay_spike_seconds)
            self.stats.delay_spikes += 1
            self._note(
                "fault.delay",
                message,
                recipient,
                time,
                extra_delay=round(extra_delay, 9),
            )

        duplicate_delay: float | None = None
        if (
            faults.duplicate_probability > 0
            and self._rng.random() < faults.duplicate_probability
        ):
            # The copy takes its own (spiked) path through the network.
            duplicate_delay = self._rng.uniform(0.0, max(faults.delay_spike_seconds, 0.1))
            self.stats.duplicates += 1
            self._note("fault.duplicate", message, recipient, time)

        return FaultDecision(
            dropped=False, extra_delay=extra_delay, duplicate_delay=duplicate_delay
        )

    def filter_delivery(self, message: Message, time: float) -> bool:
        """Whether a scheduled delivery still lands, checked as it falls due.

        A recipient that crashed between send and delivery loses the
        message (no queueing at dead nodes).
        """
        if self.crashed(message.recipient, time):
            self.stats.crash_drops += 1
            self._note("fault.delivery_drop", message, message.recipient, time)
            return False
        return True

    # ------------------------------------------------------------------
    # protocol-response accounting (called by the hardened protocol)
    # ------------------------------------------------------------------
    def note_retransmission(self, count: int = 1) -> None:
        self.stats.retransmissions += count
