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
    :meth:`multicast`), and the recorded digests in
    ``tests/sim/seed_digests.json`` pin that stream.

    Fault-free fan-outs are **wave-scheduled**: the latency vector is
    pre-sampled in one pass and the whole fan-out is one self-re-arming
    :class:`~repro.net.events.DeliveryWave` heap entry, with each
    recipient's ``Message`` built only when its delivery pops. Under a
    fault model every recipient is a separate :meth:`send`, because the
    fault plan filters each send and each delivery.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        latency: LatencyModel | None = None,
        seed: int | None = None,
        faults: "FaultModel | None" = None,
    ) -> None:
        self._scheduler = scheduler
        self._latency = latency or LatencyModel()
        self._rng = random.Random(seed)
        self._faults = faults
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
        may swallow some). Without a fault model the fan-out is one
        wave over a pre-sampled latency vector.
        """
        if self._faults is None:
            targets = [
                node for nid, node in self._nodes.items() if nid != sender
            ]
            self._schedule_wave(targets, message_kind, sender, payload, shard_id)
            return len(targets)
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

    def _schedule_wave(self, targets: list["Node"], message_kind: MessageKind,
                       sender: str, payload: object,
                       shard_id: int | None) -> None:
        """One wave delivering ``payload`` to ``targets``, in that order.

        Draws one latency per target, in target order. The emit closure
        is built once per fan-out (not per recipient); the Message is
        only built when the recipient's delivery actually pops.
        """
        delays = self._latency.sample_many(self._rng, len(targets))
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

        now = self._scheduler.now
        self._scheduler.schedule_wave(
            [now + delay for delay in delays], targets, emit
        )

    def multicast(self, message_kind: MessageKind, sender: str, payload: object,
                  recipients: list[str], shard_id: int | None = None) -> int:
        """Send a payload to an explicit recipient list; returns sends made.

        The sender is skipped and does not count toward the fan-out.
        Fault-free sends are one wave, like :meth:`broadcast`, in list
        order.
        """
        if self._faults is None:
            nodes = self._nodes
            targets = []
            for recipient in recipients:
                if recipient == sender:
                    continue
                try:
                    targets.append(nodes[recipient])
                except KeyError:
                    raise NetworkError(
                        f"unknown recipient {recipient} in "
                        f"{message_kind.name} multicast from {sender}"
                    ) from None
            self._schedule_wave(targets, message_kind, sender, payload, shard_id)
            return len(targets)
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
