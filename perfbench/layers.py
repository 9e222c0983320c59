"""Outside-in layer trace: per-layer counts and self time for one run.

The program carries no counters of its own, so the traced pass wraps
each layer's public methods from here: the class attributes listed in
``WRAPPED`` are patched for the duration of ``sim.run()`` and restored
after. Each layer is named after the module that owns it. A layer's
self time is the time inside its wrapped calls minus the time in
wrapped calls nested beneath them, so the self times and the tracer's
cost add up to the wrapped part of the run. ``net.events`` wraps ``Scheduler.run`` and so
keeps what no other layer claims inside the event loop: heap pops,
dispatch and protocol glue, including unwrapped work that event
callbacks do themselves. The stop condition handed to ``Scheduler.run``
is timed as ``sim.protocol``, and a stream workload's generator as
``workloads.generators``.

A wrapper's own cost lands in its caller's self time. :func:`calibrate`
measures it per call, and :meth:`LayerTrace.report` takes it back out:
each layer's self time is reduced by the calibrated cost of the wrapped
calls made directly beneath it, and the total tracer cost is reported
on its own (``trace.wrapper_s``). ``trace.attributed_share`` is the
layers' share of the traced run without that cost. The calibration is
a tight loop, so it can read a little under the cost inside a real run,
and the share then slightly over 1.
"""

from __future__ import annotations

import dataclasses
import time

from repro.chain.callgraph import CallGraph
from repro.chain.ledger import Ledger
from repro.chain.mempool import Mempool
from repro.chain.state import SpeculativeView, WorldState
from repro.chain.validation import BlockValidator
from repro.consensus.pow import MiningCalendar, MiningProcess
from repro.faults.model import FaultModel
from repro.net.events import Scheduler
from repro.net.network import LatencyModel, Network
from repro.net.node import FullNode
from repro.runtime.cache import named_cache_stats
from repro.workloads.generators import TxStream

_now = time.perf_counter_ns

LAYERS = (
    "net.events",
    "sim.protocol",
    "net.network",
    "faults.model",
    "net.node",
    "chain.validation",
    "chain.ledger",
    "chain.state",
    "chain.mempool",
    "chain.callgraph",
    "consensus.pow",
    "workloads.generators",
)

#: (owner, method, layer, tallies). A tally maps a counter name to a
#: function of the call's (result, args) giving what the call adds.
WRAPPED = (
    (Network, "broadcast", "net.network", None),
    (Network, "multicast", "net.network", None),
    (Network, "send", "net.network", None),
    (FullNode, "receive", "net.network", None),
    (LatencyModel, "sample", "net.network", {"latency_draws": lambda r, a: 1}),
    (
        LatencyModel,
        "sample_many",
        "net.network",
        {"latency_draws": lambda r, a: len(r)},
    ),
    (FaultModel, "filter_send", "faults.model", {"dropped": lambda r, a: r.dropped}),
    (FaultModel, "filter_delivery", "faults.model", None),
    (FullNode, "on_block", "net.node", None),
    (FullNode, "on_transaction", "net.node", {"pooled": lambda r, a: r}),
    (
        FullNode,
        "forge_block",
        "net.node",
        {
            "empty_forges": lambda r, a: not r.transactions,
            "packed": lambda r, a: len(r.transactions),
        },
    ),
    (FullNode, "adopt_block", "net.node", None),
    (FullNode, "canonical_tip_blocks", "net.node", None),
    (
        BlockValidator,
        "inspect",
        "chain.validation",
        {"rejected": lambda r, a: not r.accepted},
    ),
    (Ledger, "add_block", "chain.ledger", None),
    (WorldState, "apply_transaction", "chain.state", None),
    (WorldState, "apply_block_body", "chain.state", None),
    (WorldState, "revert_block_body", "chain.state", None),
    (WorldState, "can_apply", "chain.state", None),
    (WorldState, "has_account", "chain.state", None),
    (WorldState, "create_account", "chain.state", None),
    (SpeculativeView, "has_account", "chain.state", None),
    (SpeculativeView, "create_account", "chain.state", None),
    (Mempool, "add", "chain.mempool", None),
    (Mempool, "select_by_fee", "chain.mempool", {"selected": lambda r, a: len(r)}),
    (Mempool, "remove_confirmed", "chain.mempool", None),
    (CallGraph, "observe", "chain.callgraph", None),
    (CallGraph, "classify", "chain.callgraph", None),
    (CallGraph, "sole_contract_of", "chain.callgraph", None),
    (MiningProcess, "next_block_time", "consensus.pow", None),
    (MiningCalendar, "rearm", "consensus.pow", None),
    (MiningCalendar, "set_next", "consensus.pow", None),
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class LayerTrace:
    """Counts and self time per layer, from wrappers installed outside."""

    def __init__(self) -> None:
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls: dict[str, int] = {}
        self.tallies: dict[str, int] = {}
        #: Wrapped calls made directly beneath each layer; "" counts the
        #: top-level ones.
        self.child_calls = dict.fromkeys(("",) + LAYERS, 0)
        # Child-time accumulators of the open wrapped calls, and their
        # layers; the root slot collects the time of every top-level
        # wrapped call.
        self._stack = [0]
        self._open = [""]
        self._patches: list[tuple[type, str, object]] = []

    def timed(self, fn, key: str, layer: str, tallies: dict | None = None):
        """``fn`` wrapped to count its calls under ``key`` and time ``layer``."""
        stack, opened, self_ns, calls, counts, children = (
            self._stack,
            self._open,
            self.self_ns,
            self.calls,
            self.tallies,
            self.child_calls,
        )
        calls.setdefault(key, 0)
        measures = tuple((tallies or {}).items())
        for name, __ in measures:
            counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            stack.append(0)
            opened.append(layer)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _now() - start
                self_ns[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
                opened.pop()
                children[opened[-1]] += 1
            calls[key] += 1
            for name, measure in measures:
                counts[name] += measure(result, args)
            return result

        return wrapper

    def timed_stream(self, stream: TxStream) -> TxStream:
        """``stream`` with every generated transaction timed and counted."""
        factory = stream.factory
        return dataclasses.replace(
            stream, factory=lambda: self._timed_iter(factory())
        )

    def _timed_iter(self, iterator):
        stack, opened, self_ns, calls, children = (
            self._stack, self._open, self.self_ns, self.calls, self.child_calls
        )
        step = iterator.__next__
        calls.setdefault("TxStream.next", 0)
        while True:
            stack.append(0)
            opened.append("workloads.generators")
            start = _now()
            try:
                item = step()
            except StopIteration:
                return
            finally:
                elapsed = _now() - start
                self_ns["workloads.generators"] += elapsed - stack.pop()
                stack[-1] += elapsed
                opened.pop()
                children[opened[-1]] += 1
            calls["TxStream.next"] += 1
            yield item

    def install(self) -> None:
        for owner, name, layer, tallies in WRAPPED:
            key = f"{owner.__name__}.{name}"
            self._patch(
                owner, name, self.timed(owner.__dict__[name], key, layer, tallies)
            )
        timed_run = self.timed(Scheduler.run, "Scheduler.run", "net.events")

        def run(scheduler, *args, **kwargs):
            stop = kwargs.get("stop_condition")
            if stop is not None:
                kwargs["stop_condition"] = self.timed(
                    stop, "stop_condition", "sim.protocol"
                )
            return timed_run(scheduler, *args, **kwargs)

        self._patch(Scheduler, "run", run)

    def _patch(self, owner: type, name: str, replacement) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def report(self, sim, result, inputs, run_s: float, wrapper_ns: float):
        """``(counts, timed)`` metrics: per-layer counts, then timings."""
        calls = self.calls.get
        tallies = self.tallies.get
        nodes = [sim.node(miner.public) for miner in inputs.miners]
        ledgers = [node.ledger for node in nodes]
        scheduler = sim.scheduler
        confirmed = result.confirmed_count()
        broadcasts = calls("Network.broadcast", 0) + calls("Network.multicast", 0)
        deliveries = calls("FullNode.receive", 0)
        filter_calls = calls("FaultModel.filter_send", 0)
        blocks_received = calls("FullNode.on_block", 0)
        txs_offered = calls("FullNode.on_transaction", 0)
        forges = calls("FullNode.forge_block", 0)
        tx_applies = calls("WorldState.apply_transaction", 0)
        observes = calls("CallGraph.observe", 0)
        recorded = sum(node.stats.blocks_recorded for node in nodes)
        stored = sum(len(ledger.all_blocks()) - 1 for ledger in ledgers)
        stale = sum(ledger.count_stale_blocks() for ledger in ledgers)
        caches = named_cache_stats().values()
        hits = sum(cache["hits"] for cache in caches)
        lookups = hits + sum(cache["misses"] for cache in caches)
        counts = {
            "net.events.fired": scheduler.events_fired,
            "net.events.peak_pending": scheduler.peak_pending,
            "sim.protocol.stop_checks": calls("stop_condition", 0),
            "sim.protocol.failed_tx_share": _ratio(
                inputs.injected - confirmed, inputs.injected
            ),
            "net.network.broadcasts": broadcasts,
            "net.network.sends": calls("Network.send", 0),
            "net.network.deliveries": deliveries,
            "net.network.latency_draws": tallies("latency_draws", 0),
            "net.network.deliveries_per_broadcast": _ratio(deliveries, broadcasts),
            "faults.model.filter_calls": filter_calls,
            "faults.model.drop_ratio": _ratio(tallies("dropped", 0), filter_calls),
            "net.node.blocks_received": blocks_received,
            # Own forged blocks are recorded through adopt_block, not
            # on_block, so they are taken out of the useful share.
            "net.node.block_useful_ratio": _ratio(
                recorded - calls("FullNode.adopt_block", 0), blocks_received
            ),
            "net.node.txs_offered": txs_offered,
            "net.node.tx_pooled_ratio": _ratio(tallies("pooled", 0), txs_offered),
            "net.node.forges": forges,
            "net.node.empty_block_share": _ratio(tallies("empty_forges", 0), forges),
            "net.node.orphans_buffered": sum(
                node.stats.orphans_buffered for node in nodes
            ),
            "chain.validation.inspects": calls("BlockValidator.inspect", 0),
            "chain.validation.rejected": tallies("rejected", 0),
            "chain.ledger.adds": calls("Ledger.add_block", 0),
            "chain.ledger.stale_share": _ratio(stale, stored),
            "chain.state.tx_applies": tx_applies,
            "chain.state.block_applies": calls("WorldState.apply_block_body", 0),
            "chain.state.block_reverts": calls("WorldState.revert_block_body", 0),
            "chain.state.applies_per_confirmed_tx": _ratio(tx_applies, confirmed),
            "chain.mempool.adds": calls("Mempool.add", 0),
            "chain.mempool.evictions": sum(node.mempool.evictions for node in nodes),
            "chain.mempool.selects": calls("Mempool.select_by_fee", 0),
            "chain.mempool.pack_ratio": _ratio(
                tallies("packed", 0), tallies("selected", 0)
            ),
            "chain.callgraph.observes": observes,
            "chain.callgraph.classifies": calls("CallGraph.classify", 0),
            "chain.callgraph.observes_per_tx": _ratio(observes, inputs.injected),
            "runtime.cache.hit_ratio": _ratio(hits, lookups),
            "consensus.pow.draws": calls("MiningProcess.next_block_time", 0),
            "consensus.pow.rearms": calls("MiningCalendar.rearm", 0),
            "workloads.generators.txs_yielded": calls("TxStream.next", 0),
        }
        # Each layer's self time without the calibrated cost of the
        # wrappers it called into.
        self_s = {
            layer: (ns - self.child_calls[layer] * wrapper_ns) / 1e9
            for layer, ns in self.self_ns.items()
        }
        wrapper_s = sum(self.child_calls.values()) * wrapper_ns / 1e9
        timed = {
            f"{layer}.self_s": seconds
            for layer, seconds in self_s.items()
            if layer != "sim.protocol"
        }
        timed["sim.protocol.stop_check_s"] = self_s["sim.protocol"]
        # The part of ProtocolSimulation.run that no wrapped call covers:
        # set-up before Scheduler.run and result assembly after it.
        timed["sim.protocol.outside_loop_s"] = run_s - self._stack[0] / 1e9
        timed["net.events.ns_per_event"] = _ratio(
            self_s["net.events"] * 1e9, scheduler.events_fired
        )
        # The share of the program's time (the traced run without the
        # tracer's own cost) that the layers' self times account for.
        timed["trace.attributed_share"] = sum(self_s.values()) / (run_s - wrapper_s)
        timed["trace.wrapper_s"] = wrapper_s
        timed["trace.wrapper_ns_per_call"] = wrapper_ns
        return counts, timed


def calibrate(calls: int = 50_000, repeats: int = 5) -> float:
    """Extra nanoseconds one wrapped call costs over a bare one (best of)."""

    def probe():
        return None

    wrapped = LayerTrace().timed(probe, "probe", "net.events")
    best = float("inf")
    for __ in range(repeats):
        start = _now()
        for __ in range(calls):
            probe()
        bare = _now() - start
        start = _now()
        for __ in range(calls):
            wrapped()
        best = min(best, (_now() - start - bare) / calls)
    return best
