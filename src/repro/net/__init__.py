"""Discrete-event network substrate.

A minimal but complete DES: a priority event queue drives simulated time;
nodes exchange latency-delayed messages over a broadcast network that
counts every delivery — the accounting behind the paper's communication
cost comparisons (Fig. 4b, 4c).
"""

from repro.net.events import Scheduler
from repro.net.messages import Message, MessageKind
from repro.net.network import Network, LatencyModel
from repro.net.node import Node, FullNode

__all__ = [
    "Scheduler",
    "Message",
    "MessageKind",
    "Network",
    "LatencyModel",
    "Node",
    "FullNode",
]
