"""The broadcast network with latency and cross-shard message accounting.

One call per delivery: each fan-out schedules one
:class:`~repro.net.events.DeliveryWave` with a ``deliver`` closure that
holds what the wave's deliveries share (kind, sender, payload, home
shard, fault model, the kind's cross-shard flag). Handed a due
recipient, it drops the delivery if the fault model says the recipient
is down, counts it if it is cross-shard, and then screens it: a
delivery whose payload has a home shard
(:attr:`~repro.net.messages.Message.shard_id`) is settled at a
recipient in another shard by one comparison, and the recipient is
never called. On a fault-free wave the screen comes first, so a
screened delivery builds no :class:`~repro.net.messages.Message`
either. Any other recipient gets its message, the only one built for
that delivery, through ``recipient.receive``.

A fault-free fan-out builds only the deliveries that can fire: a wave
whose base latency already lands past the horizon only advances the RNG
and the sequence numbers, and a large one is drawn, cut and sorted as
one numpy vector (:meth:`LatencyModel.sample_array`). A faulty fan-out
is judged as one wave: :meth:`~repro.faults.model.FaultModel.judge_wave`
gets the wave's latency draws and returns the surviving recipients and
their delays, so the network builds no per-recipient fault decision.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.errors import ConfigError, NetworkError
from repro.net.events import Scheduler
from repro.net.messages import Message, MessageKind

#: Fault-free fan-outs this large take the vector path; timed over a
#: whole fan-out, it breaks even near 96 recipients and wins from 112.
_NUMPY_BATCH_MIN = 112

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
    ``SimulationError`` deep inside the event loop, a negative jitter
    was silently ignored by :meth:`sample`, and an infinite one never
    fires under a finite horizon (or, as ``inf * 0.0``, comes out NaN).
    """

    base_seconds: float = 0.05
    jitter_seconds: float = 0.05

    def __post_init__(self) -> None:
        for name in ("base_seconds", "jitter_seconds"):
            value = getattr(self, name)
            # ``0 <= x < inf`` also rejects NaN, which fails every comparison.
            if not 0 <= value < math.inf:
                raise ConfigError(
                    f"latency {name} must be finite and non-negative: {value}"
                )

    def sample(self, rng: random.Random) -> float:
        if self.jitter_seconds <= 0:
            return self.base_seconds
        return self.base_seconds + rng.uniform(0.0, self.jitter_seconds)

    def sample_many(self, rng: random.Random, count: int) -> list[float]:
        """``count`` delays in one pass.

        Draw-order contract: consumes exactly the same RNG stream as
        ``count`` successive :meth:`sample` calls — two 32-bit Mersenne
        Twister words per delay, and nothing at all when jitter is zero
        — so fan-out fast paths that pre-sample a latency vector stay
        bit-identical to per-send sampling. ``rng.uniform(0.0, j)`` is
        exactly ``0.0 + j * rng.random()`` in CPython, which is
        ``j * rng.random()`` for ``j >= 0``.
        """
        base = self.base_seconds
        jitter = self.jitter_seconds
        if jitter <= 0:
            return [base] * count
        draw = rng.random
        return [base + jitter * draw() for __ in range(count)]

    def skip(self, rng: random.Random, count: int) -> None:
        """Advance ``rng`` past ``count`` delays without making them."""
        if self.jitter_seconds > 0:
            rng.getrandbits(64 * count)

    def sample_array(self, rng: random.Random, count: int) -> np.ndarray:
        """:meth:`sample_many` as a float64 array, bit for bit: each word
        pair of one ``getrandbits`` call, least significant first, becomes
        CPython's ``random()``, ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53``.
        Only exact steps and IEEE ``*``/``+`` are used: numpy's ``np.log``
        etc. would not match ``math`` bit for bit."""
        if self.jitter_seconds <= 0:
            return np.full(count, self.base_seconds)
        words = np.frombuffer(
            rng.getrandbits(64 * count).to_bytes(8 * count, "little"), dtype="<u4"
        )
        uniforms = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * 2.0**-53
        return self.base_seconds + self.jitter_seconds * uniforms


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
    optional :class:`~repro.faults.model.FaultModel` judge the whole
    wave (drop, delay or duplicate each recipient in that order), and
    schedules the survivors as one wave. The fault model owns its own
    RNG, so omitting it leaves the latency stream bit-identical;
    ``tests/sim/seed_digests.json`` pins both streams and the sequence
    numbers. A payload's home shard (``shard_id``) screens the wave: a
    recipient whose ``shard_id`` is another shard is not called, and a
    recipient whose ``shard_id`` is ``None`` takes every message.
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
        # Registration order, and each node id's place in it: a
        # broadcast slices its recipients out of the list.
        self._nodes: list["Node"] = []
        self._positions: dict[str, int] = {}
        # The ids in registration order, built on first read after a
        # register: every forge and leader broadcast reads them.
        self._ids: tuple[str, ...] | None = None
        self.cross_shard_messages = 0

    @property
    def faults(self) -> "FaultModel | None":
        return self._faults

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def register(self, node: "Node") -> None:
        if node.node_id in self._positions:
            raise NetworkError(f"node {node.node_id} already registered")
        self._positions[node.node_id] = len(self._nodes)
        self._nodes.append(node)
        self._ids = None

    def node(self, node_id: str) -> "Node":
        try:
            return self._nodes[self._positions[node_id]]
        except KeyError:
            raise NetworkError(f"unknown node {node_id}") from None

    @property
    def node_ids(self) -> tuple[str, ...]:
        ids = self._ids
        if ids is None:
            ids = self._ids = tuple(self._positions)
        return ids

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
            [target], None, message.kind, message.sender, message.payload,
            message.shard_id,
        ) > 0

    def broadcast(self, message_kind: MessageKind, sender: str, payload: object,
                  shard_id: int | None = None) -> int:
        """Send a payload to every node except the sender.

        Returns the number of sends actually scheduled (the fault layer
        may swallow some).
        """
        return self._fan_out(
            self._nodes, self._positions.get(sender), message_kind, sender,
            payload, shard_id,
        )

    def multicast(self, message_kind: MessageKind, sender: str, payload: object,
                  recipients: Iterable[str], shard_id: int | None = None) -> int:
        """Send a payload to an explicit recipient list; returns sends made.

        The sender is skipped and does not count toward the fan-out.
        """
        nodes, positions = self._nodes, self._positions
        targets = []
        for recipient in recipients:
            if recipient == sender:
                continue
            try:
                targets.append(nodes[positions[recipient]])
            except KeyError:
                raise NetworkError(
                    f"unknown recipient {recipient} in "
                    f"{message_kind.name} multicast from {sender}"
                ) from None
        return self._fan_out(
            targets, None, message_kind, sender, payload, shard_id
        )

    def _fan_out(self, targets: list["Node"], skip: int | None,
                 message_kind: MessageKind, sender: str, payload: object,
                 home: int | None) -> int:
        """One wave delivering ``payload`` to ``targets`` but the one at
        position ``skip`` (the sender, if any); returns sends made.

        The fault model judges the whole wave against one unaddressed
        message, so a send builds its :class:`Message` only when it is
        delivered. A dropped recipient still consumes its latency draw;
        a duplicate is an extra item just before its original, so it
        takes the sequence number a separate schedule ahead of the
        original would. A faulty recipient due past the scheduler's
        horizon is judged too (both RNG streams stay unchanged); the
        wave then drops it. A wholly late fault-free wave never slices
        ``targets``.

        ``home`` is the payload's home shard, or ``None``: a delivery to
        a recipient whose ``shard_id`` is another shard is screened out
        (see the module docstring).
        """
        scheduler = self._scheduler
        latency = self._latency
        rng = self._rng
        now = scheduler.now
        faults = self._faults
        count = len(targets) - (skip is not None)
        if faults is None and scheduler.drop_late_wave(
            now + latency.base_seconds, count
        ):
            latency.skip(rng, count)
            return count
        if skip is not None:
            targets = targets[:skip] + targets[skip + 1:]
        sent = count
        if faults is not None:
            kept, delays, sent = faults.judge_wave(
                Message(message_kind, sender, None, payload, home),
                now,
                [target.node_id for target in targets],
                latency.sample_many(rng, count),
            )
            targets = [targets[position] for position in kept]
            times = [now + delay for delay in delays]
        elif count >= _NUMPY_BATCH_MIN:
            times = now + latency.sample_array(rng, count)
        else:
            times = [now + delay for delay in latency.sample_many(rng, count)]
        cross_shard = message_kind.is_cross_shard

        if faults is None:
            def deliver(target: "Node") -> None:
                if cross_shard:
                    self.cross_shard_messages += 1
                shard = target.shard_id
                if shard != home and shard is not None and home is not None:
                    return
                target.receive(
                    Message(message_kind, sender, target.node_id, payload, home)
                )
        else:
            def deliver(target: "Node") -> None:
                message = Message(message_kind, sender, target.node_id, payload, home)
                if not faults.filter_delivery(message, scheduler.now):
                    return
                if cross_shard:
                    self.cross_shard_messages += 1
                shard = target.shard_id
                if shard != home and shard is not None and home is not None:
                    return
                target.receive(message)

        scheduler.schedule_wave(times, targets, deliver)
        return sent
