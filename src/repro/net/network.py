"""The broadcast network with latency and cross-shard message accounting.

One call per delivery: each fan-out schedules one
:class:`~repro.net.events.DeliveryWave` with a ``deliver`` closure that
holds what the wave's deliveries share (kind, sender, payload, shard,
fault model, the kind's cross-shard flag). Handed a due recipient, it
builds that recipient's :class:`~repro.net.messages.Message` — the only
one built for that delivery — drops it if the fault model says the
recipient is down, counts it if it is cross-shard, and calls
``recipient.receive``.
"""

from __future__ import annotations

import random
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
        # ``not x >= 0`` also rejects NaN, which fails every comparison.
        if not self.base_seconds >= 0:
            raise ConfigError(
                f"latency base_seconds must be non-negative: {self.base_seconds}"
            )
        if not self.jitter_seconds >= 0:
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
    :attr:`MessageKind.is_cross_shard`) increments
    :attr:`cross_shard_messages` — the "communication times" the paper
    plots in Fig. 4(b) and 4(c).

    **One delivery path.** :meth:`send`, :meth:`broadcast` and
    :meth:`multicast` share one fan-out. It draws one latency per
    recipient in recipient order (registration order for
    :meth:`broadcast`, list order for :meth:`multicast`), lets an
    optional :class:`~repro.faults.model.FaultModel` drop, delay or
    duplicate each recipient in that order, and schedules the survivors
    as one wave. The fault model owns its own RNG, so omitting it leaves
    the latency stream bit-identical; ``tests/sim/seed_digests.json``
    pins both streams and the sequence numbers.
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
        self.cross_shard_messages = 0

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
        return self._fan_out(
            [target], message.kind, message.sender, message.payload, message.shard_id
        ) > 0

    def broadcast(self, message_kind: MessageKind, sender: str, payload: object,
                  shard_id: int | None = None) -> int:
        """Send a payload to every node except the sender.

        Returns the number of sends actually scheduled (the fault layer
        may swallow some).
        """
        targets = [node for nid, node in self._nodes.items() if nid != sender]
        return self._fan_out(targets, message_kind, sender, payload, shard_id)

    def multicast(self, message_kind: MessageKind, sender: str, payload: object,
                  recipients: list[str], shard_id: int | None = None) -> int:
        """Send a payload to an explicit recipient list; returns sends made.

        The sender is skipped and does not count toward the fan-out.
        """
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
        return self._fan_out(targets, message_kind, sender, payload, shard_id)

    def _fan_out(self, targets: list["Node"], message_kind: MessageKind,
                 sender: str, payload: object, shard_id: int | None) -> int:
        """One wave delivering ``payload`` to ``targets``; returns sends made.

        The fault model judges every recipient against one unaddressed
        message, so a send builds its :class:`Message` only when it is
        delivered. A dropped recipient still consumes its latency draw;
        a duplicate is an extra item just before its original, so it
        takes the sequence number a separate schedule ahead of the
        original would.
        """
        scheduler = self._scheduler
        delays = self._latency.sample_many(self._rng, len(targets))
        now = scheduler.now
        sent = len(targets)
        faults = self._faults
        if faults is not None:
            unaddressed = Message(message_kind, sender, None, payload, shard_id)
            kept: list["Node"] = []
            times: list[float] = []
            for target, delay in zip(targets, delays):
                decision = faults.filter_send(unaddressed, now, target.node_id)
                if decision.dropped:
                    sent -= 1
                    continue
                delay += decision.extra_delay
                if decision.duplicated:
                    kept.append(target)
                    times.append(now + (delay + decision.duplicate_delay))
                kept.append(target)
                times.append(now + delay)
            targets = kept
        else:
            times = [now + delay for delay in delays]
        cross_shard = message_kind.is_cross_shard

        def deliver(target: "Node") -> None:
            message = Message(message_kind, sender, target.node_id, payload, shard_id)
            if faults is not None and not faults.filter_delivery(
                message, scheduler.now
            ):
                return
            if cross_shard:
                self.cross_shard_messages += 1
            target.receive(message)

        scheduler.schedule_wave(times, targets, deliver)
        return sent
