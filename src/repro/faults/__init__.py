"""Deterministic fault injection for the protocol stack.

The paper's security argument (Sec. IV-C, V) rests on honest miners
*rejecting* deviant behavior, but open networks also lose messages,
partition, and crash nodes mid-epoch — the failure modes surveys of
sharding systems identify as primary (arXiv:2102.13364). This package
models those failures deterministically:

* :class:`FaultPlan` — a declarative, seed-stable description of what
  goes wrong: per-:class:`~repro.net.messages.MessageKind` message
  faults (drop / duplicate / delay spikes), scheduled node crashes with
  optional recovery, network partitions with heal times, and a
  :class:`FaultyLeader` that withholds or equivocates its
  :class:`~repro.core.unification.UnificationPacket`.
* :class:`FaultModel` — the runtime engine the network consults once
  per fan-out and on every delivery. It owns a dedicated RNG so that
  installing a no-op plan leaves every other random stream — latency,
  mining, assignment — bit-identical to a run without the fault layer.
* :class:`FaultStats` — the per-fault counters (``drops``,
  ``retransmissions``, ``fallbacks``, ``equivocations_detected``, ...)
  surfaced on :class:`~repro.sim.protocol.ProtocolResult`.
"""

from repro.faults.model import FaultDecision, FaultModel
from repro.faults.plan import (
    CrashEvent,
    FaultPlan,
    FaultStats,
    FaultyLeader,
    MessageFaults,
    Partition,
)

__all__ = [
    "CrashEvent",
    "FaultDecision",
    "FaultModel",
    "FaultPlan",
    "FaultStats",
    "FaultyLeader",
    "MessageFaults",
    "Partition",
]
