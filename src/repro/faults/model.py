"""The runtime fault engine the network consults.

:class:`FaultModel` turns a declarative :class:`~repro.faults.plan.FaultPlan`
into decisions about live traffic: :meth:`FaultModel.judge_wave` judges
a whole fan-out at once, and :meth:`FaultModel.filter_delivery` checks
each delivery as it falls due. Two properties matter:

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
    from collections.abc import Sequence

    from repro.observe import Tracer


@dataclass(frozen=True)
class FaultDecision:
    """What the fault layer decided for one message send.

    Both delays are added to the send's latency: ``extra_delay`` to the
    original's, ``duplicate_delay`` to the copy's (the original's spike
    plus the copy's own path), or ``None`` when no copy is delivered.
    """

    dropped: bool = False
    extra_delay: float = 0.0
    duplicate_delay: float | None = None


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
        # Crash schedules indexed by node: `crashed` runs once per
        # fan-out and on every delivery, so a linear scan of the whole
        # plan per message dominates large runs. Pure reindexing — no
        # RNG, no behavior change.
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
    def judge_wave(
        self,
        message: Message,
        now: float,
        recipients: "Sequence[str]",
        delays: list[float],
    ) -> tuple[list[int], list[float], int]:
        """Judge one fan-out: ``message`` (unaddressed) sent at ``now`` to
        ``recipients``, whose latency draws are ``delays``.

        Returns ``(kept, delays, sent)``: the positions in ``recipients``
        of the deliveries that survive, the delay of each (its latency
        plus any spike), and how many recipients were not dropped. A
        duplicated recipient appears twice, its copy first, delayed a
        further independent draw. The caller adds ``now`` to each delay.

        What every recipient shares is resolved once per wave: whether
        the sender is down (then all of them are crash drops), whether
        the plan has partitions, and the faults of the message's kind.
        Per recipient, in order, only the partition test and then the
        dice remain: drop, spike, duplicate. The dice draw from this
        model's RNG in the order a per-recipient judge would, and every
        fault is counted and noted per recipient.
        """
        count = len(recipients)
        stats = self.stats
        if self.crashed(message.sender, now):
            stats.crash_drops += count
            if self._tracer is not None:
                for recipient in recipients:
                    self._note("fault.crash_drop", message, recipient, now)
            return [], [], 0
        has_partitions = self._has_partitions
        faults = self.plan.faults_for(message.kind)
        if faults.is_noop and not has_partitions:
            return list(range(count)), delays, count

        drop_p = faults.drop_probability
        spike_p = faults.delay_spike_probability
        duplicate_p = faults.duplicate_probability
        spike_s = faults.delay_spike_seconds
        # A copy takes its own (spiked) path through the network.
        duplicate_s = max(spike_s, 0.1)
        random = self._rng.random
        uniform = self._rng.uniform
        note = self._note if self._tracer is not None else None
        sender = message.sender
        dropped = 0
        kept: list[int] = []
        judged: list[float] = []
        for position, delay in enumerate(delays):
            if has_partitions and self.partitioned(
                sender, recipients[position], now
            ):
                stats.partition_drops += 1
                dropped += 1
                if note:
                    note("fault.partition_drop", message, recipients[position], now)
                continue
            if drop_p > 0 and random() < drop_p:
                stats.drops += 1
                dropped += 1
                if note:
                    note("fault.drop", message, recipients[position], now)
                continue
            if spike_p > 0 and random() < spike_p:
                extra_delay = uniform(0.0, spike_s)
                delay += extra_delay
                stats.delay_spikes += 1
                if note:
                    note(
                        "fault.delay",
                        message,
                        recipients[position],
                        now,
                        extra_delay=round(extra_delay, 9),
                    )
            if duplicate_p > 0 and random() < duplicate_p:
                kept.append(position)
                judged.append(delay + uniform(0.0, duplicate_s))
                stats.duplicates += 1
                if note:
                    note("fault.duplicate", message, recipients[position], now)
            kept.append(position)
            judged.append(delay)
        return kept, judged, count - dropped

    def filter_send(
        self, message: Message, time: float, recipient: str | None = None
    ) -> FaultDecision:
        """Judge one send to ``recipient`` (default ``message.recipient``):
        :meth:`judge_wave` for a wave of one with a zero latency."""
        if recipient is None:
            recipient = message.recipient
        __, delays, sent = self.judge_wave(message, time, (recipient,), [0.0])
        if not sent:
            return _DROPPED
        if len(delays) == 1:
            return FaultDecision(extra_delay=delays[0])
        return FaultDecision(extra_delay=delays[1], duplicate_delay=delays[0])

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
