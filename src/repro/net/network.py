"""The broadcast network with latency and per-shard message accounting."""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigError, NetworkError
from repro.net.events import Scheduler
from repro.net.messages import Message, MessageKind

try:  # pragma: no cover - exercised indirectly via sample_many
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is optional
    _np = None

#: Below this fan-out the numpy round trip costs more than it saves.
_NUMPY_BATCH_MIN = 32

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.model import FaultModel
    from repro.net.node import Node


@dataclass(frozen=True)
class LatencyModel:
    """Message delay: a base latency plus uniform jitter.

    The paper's testbed runs nine AWS c5.large instances in one region;
    the defaults approximate intra-region datacenter latency. Set both
    fields to zero for logical-time experiments where propagation is
    irrelevant (e.g. the large-scale game simulations of Sec. VI-E).

    Both fields are validated at construction: a negative base used to
    surface much later as a "cannot schedule in the past"
    ``SimulationError`` deep inside the event loop, and a negative
    jitter was silently ignored by :meth:`sample`.
    """

    base_seconds: float = 0.05
    jitter_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.base_seconds < 0:
            raise ConfigError(
                f"latency base_seconds must be non-negative: {self.base_seconds}"
            )
        if self.jitter_seconds < 0:
            raise ConfigError(
                f"latency jitter_seconds must be non-negative: {self.jitter_seconds}"
            )

    def sample(self, rng: random.Random) -> float:
        if self.jitter_seconds <= 0:
            return self.base_seconds
        return self.base_seconds + rng.uniform(0.0, self.jitter_seconds)

    def sample_many(self, rng: random.Random, count: int) -> list[float]:
        """``count`` delays in one pass.

        Draw-order contract: consumes exactly the same RNG stream as
        ``count`` successive :meth:`sample` calls (and nothing at all
        when jitter is zero), so fan-out fast paths that pre-sample a
        latency vector stay bit-identical to per-send sampling.

        Large fan-outs vectorize the multiply-add over the raw uniforms
        with numpy when it is available. ``rng.uniform(0.0, j)`` is
        exactly ``0.0 + j * rng.random()`` in CPython, and IEEE-754
        multiply/add are elementwise identical in numpy, so the batched
        path is bit-equal to the scalar one (a pinned test property).
        Only ``*`` and ``+`` are allowed here — numpy transcendentals
        (``np.log`` etc.) do NOT match ``math``'s libm bit-for-bit.
        """
        base = self.base_seconds
        jitter = self.jitter_seconds
        if jitter <= 0:
            return [base] * count
        draw = rng.random
        uniforms = [draw() for __ in range(count)]
        if _np is not None and count >= _NUMPY_BATCH_MIN:
            return (base + jitter * _np.asarray(uniforms)).tolist()
        return [base + jitter * u for u in uniforms]


class Network:
    """Connects nodes, delivers latency-delayed messages, counts traffic.

    Accounting: every *cross-shard* delivery (see
    :attr:`MessageKind.is_cross_shard`) increments the counter of the
    shard(s) involved — the per-shard "communication times" the paper
    plots in Fig. 4(b) and 4(c).

    An optional :class:`~repro.faults.model.FaultModel` filters every
    send and delivery (drops, duplicates, delay spikes, partitions,
    crashed endpoints). The fault model owns its own RNG, so omitting it
    or installing a no-op plan leaves the latency stream — and therefore
    the whole run — bit-identical.

    **RNG draw-order contract.** The latency RNG is consumed in exactly
    one order: one draw per scheduled recipient, in recipient order
    (registration order for :meth:`broadcast`, list order for
    :meth:`multicast`). The fan-out fast paths pre-sample that latency
    vector in a single pass and must never reorder or batch draws
    differently — the engine-parity tests pin this against the
    pre-optimization :class:`repro.net.legacy.LegacyNetwork`.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        latency: LatencyModel | None = None,
        seed: int | None = None,
        faults: "FaultModel | None" = None,
        waves: bool = True,
    ) -> None:
        self._scheduler = scheduler
        self._latency = latency or LatencyModel()
        self._rng = random.Random(seed)
        self._faults = faults
        #: Wave scheduling for the fault-free fan-out fast paths: one
        #: self-re-arming DeliveryWave heap entry per broadcast instead
        #: of one push + Message per recipient. ``waves=False`` keeps
        #: the per-event path as the differential oracle.
        self._waves = waves
        self._nodes: dict[str, "Node"] = {}
        self.messages_delivered = 0
        self.cross_shard_messages = 0
        self.per_shard_messages: dict[int, int] = defaultdict(int)
        self.per_kind_messages: dict[MessageKind, int] = defaultdict(int)

    @property
    def faults(self) -> "FaultModel | None":
        return self._faults

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def register(self, node: "Node") -> None:
        if node.node_id in self._nodes:
            raise NetworkError(f"node {node.node_id} already registered")
        self._nodes[node.node_id] = node

    def node(self, node_id: str) -> "Node":
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NetworkError(f"unknown node {node_id}") from None

    @property
    def node_ids(self) -> list[str]:
        return list(self._nodes)

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def send(self, message: Message) -> bool:
        """Deliver one message after a sampled latency.

        Returns True when a delivery was scheduled, False when the fault
        layer swallowed the send (drop, partition, crashed sender).
        """
        target = self.node(message.recipient)
        delay = self._latency.sample(self._rng)
        if self._faults is not None:
            decision = self._faults.filter_send(message, self._scheduler.now)
            if decision.dropped:
                return False
            delay += decision.extra_delay
            if decision.duplicated:
                self._scheduler.schedule_in(
                    delay + decision.duplicate_delay,
                    self._deliver,
                    target,
                    message,
                )
        self._scheduler.schedule_in(delay, self._deliver, target, message)
        return True

    def broadcast(self, message_kind: MessageKind, sender: str, payload: object,
                  shard_id: int | None = None) -> int:
        """Send a payload to every node except the sender.

        Returns the number of sends actually scheduled (the fault layer
        may swallow some). Without a fault model this takes the fan-out
        fast path: the shared payload is wrapped once per recipient and
        scheduled against a pre-sampled latency vector, with bound-method
        dispatch instead of a closure per send.
        """
        if self._faults is None:
            nodes = self._nodes
            recipients = [nid for nid in nodes if nid != sender]
            delays = self._latency.sample_many(self._rng, len(recipients))
            if self._waves and len(recipients) > 1:
                now = self._scheduler.now
                self._scheduler.schedule_wave(
                    [now + delay for delay in delays],
                    [nodes[recipient] for recipient in recipients],
                    self._wave_emit(message_kind, sender, payload, shard_id),
                )
                return len(recipients)
            schedule = self._scheduler.schedule_in
            deliver = self._deliver
            for recipient, delay in zip(recipients, delays):
                schedule(
                    delay,
                    deliver,
                    nodes[recipient],
                    Message(
                        kind=message_kind,
                        sender=sender,
                        recipient=recipient,
                        payload=payload,
                        shard_id=shard_id,
                    ),
                )
            return len(recipients)
        sent = 0
        for recipient in self._nodes:
            if recipient == sender:
                continue
            sent += self.send(
                Message(
                    kind=message_kind,
                    sender=sender,
                    recipient=recipient,
                    payload=payload,
                    shard_id=shard_id,
                )
            )
        return sent

    def _wave_emit(self, message_kind: MessageKind, sender: str,
                   payload: object, shard_id: int | None):
        """The lazy per-recipient materializer for wave scheduling.

        One closure per fan-out (not per recipient); the Message is only
        built when the recipient's delivery actually pops.
        """
        deliver = self._deliver

        def emit(target: "Node"):
            return deliver, (
                target,
                Message(
                    kind=message_kind,
                    sender=sender,
                    recipient=target.node_id,
                    payload=payload,
                    shard_id=shard_id,
                ),
            )

        return emit

    def multicast(self, message_kind: MessageKind, sender: str, payload: object,
                  recipients: list[str], shard_id: int | None = None) -> int:
        """Send a payload to an explicit recipient list; returns sends made.

        The sender is skipped and does not count toward the fan-out.
        Fault-free sends take the same pre-sampled fast path as
        :meth:`broadcast`, preserving the per-recipient draw order.
        """
        if self._faults is None:
            nodes = self._nodes
            actual = [nid for nid in recipients if nid != sender]
            targets = []
            for recipient in actual:
                try:
                    targets.append(nodes[recipient])
                except KeyError:
                    raise NetworkError(
                        f"unknown recipient {recipient} in "
                        f"{message_kind.name} multicast from {sender}"
                    ) from None
            delays = self._latency.sample_many(self._rng, len(actual))
            if self._waves and len(actual) > 1:
                now = self._scheduler.now
                self._scheduler.schedule_wave(
                    [now + delay for delay in delays],
                    targets,
                    self._wave_emit(message_kind, sender, payload, shard_id),
                )
                return len(actual)
            schedule = self._scheduler.schedule_in
            deliver = self._deliver
            for recipient, target, delay in zip(actual, targets, delays):
                schedule(
                    delay,
                    deliver,
                    target,
                    Message(
                        kind=message_kind,
                        sender=sender,
                        recipient=recipient,
                        payload=payload,
                        shard_id=shard_id,
                    ),
                )
            return len(actual)
        sent = 0
        for recipient in recipients:
            if recipient == sender:
                continue
            if recipient not in self._nodes:
                raise NetworkError(
                    f"unknown recipient {recipient} in "
                    f"{message_kind.name} multicast from {sender}"
                )
            sent += self.send(
                Message(
                    kind=message_kind,
                    sender=sender,
                    recipient=recipient,
                    payload=payload,
                    shard_id=shard_id,
                )
            )
        return sent

    def _deliver(self, target: "Node", message: Message) -> None:
        if self._faults is not None and not self._faults.filter_delivery(
            message, self._scheduler.now
        ):
            return
        self.messages_delivered += 1
        self.per_kind_messages[message.kind] += 1
        if message.kind.is_cross_shard:
            self.cross_shard_messages += 1
            if message.shard_id is not None:
                self.per_shard_messages[message.shard_id] += 1
        target.receive(message)

    # ------------------------------------------------------------------
    # accounting views
    # ------------------------------------------------------------------
    def mean_per_shard_messages(self, shard_count: int) -> float:
        """Average cross-shard communication times per shard (Fig. 4b/4c)."""
        if shard_count <= 0:
            raise NetworkError("shard_count must be positive")
        return self.cross_shard_messages / shard_count

    def reset_accounting(self) -> None:
        """Zero the counters (used between experiment repetitions)."""
        self.messages_delivered = 0
        self.cross_shard_messages = 0
        self.per_shard_messages.clear()
        self.per_kind_messages.clear()
