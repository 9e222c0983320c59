"""Sample server: one forked process per benchmark sample.

``run.py`` starts this once per invocation with a pinned environment.
The server imports the program and nothing else, then reads one JSON
request per line on standard input (``workload``, ``seed``, ``traced``,
``toy``) and forks a fresh child for each: the child builds the inputs
from the seed, times one simulation, checks it and writes one JSON
record line to standard output, then exits. Forking from a server that
has only imported the program gives every sample a fresh process (its
own ``MemoCache`` registry, transaction-id serials and ``ru_maxrss``)
without paying the interpreter start and the program's imports on every
sample. If a child fails, the server writes ``{"error": ...}`` instead.

In a sample, ``setup_s`` times ``ProtocolSimulation(...)`` alone (shard
formation, node build and, where the workload does not pin one, the
epoch draw), ``run_s`` times ``sim.run()``, and ``cpu_s`` is the process
CPU time of both. A traced sample installs the layer wrappers of
``layers.py`` around ``sim.run()`` only. Just before the set-up and just
after the run the child times a fixed reference work
(``reference_s``); ``run.py`` uses the mean of the two readings to take
the host's speed of the moment out of the timings.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gate  # noqa: E402
import layers  # noqa: E402
import repro.chain.contract  # noqa: E402,F401  (imported lazily by the run)
from repro.runtime.executor import effective_cpu_count  # noqa: E402
from repro.sim.protocol import ProtocolSimulation  # noqa: E402
from repro.workloads.generators import TxStream  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class _Entry:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.weight = weight

    def score(self) -> int:
        return self.weight * 31 + self.key


def _reference_work(rounds: int = 6_000) -> int:
    """Fixed interpreter work like the program's: objects, dicts, a heap
    and hashing. It never changes, so its time measures the host."""
    table: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    digests: dict[str, int] = {}
    total = 0
    for i in range(rounds):
        entry = _Entry((i * 7919) % 4093, i & 255)
        table[entry.key] = table.get(entry.key, 0) + entry.score()
        heapq.heappush(heap, (entry.score(), i))
        if len(heap) > 256:
            total += heapq.heappop(heap)[0]
        digests[hashlib.sha256(b"ref-%d" % i).hexdigest()[:8]] = i
    return total + len(sorted(table.values())) + len(digests)


def reference_s(repeats: int = 3) -> float:
    """The quickest of ``repeats`` times of the reference work, right now.

    An untimed first pass takes the copy-on-write faults of a freshly
    forked sample, and the collector is off meanwhile, so the heap a run
    leaves behind does not slow the reading either.
    """
    times = []
    gc.disable()
    try:
        _reference_work()
        for __ in range(repeats):
            start = time.perf_counter()
            _reference_work()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return min(times)


def measure(workload: str, seed: int, traced: bool, toy: bool) -> dict:
    """Build the inputs, time one simulation and check it."""
    inputs = WORKLOADS[workload].build(seed, toy)
    trace = None
    if traced:
        wrapper_ns = layers.calibrate()
        trace = layers.LayerTrace()
        if isinstance(inputs.transactions, TxStream):
            inputs.transactions = trace.timed_stream(inputs.transactions)
    gc.collect()
    reference_before = reference_s()

    cpu_start = time.process_time()
    start = time.perf_counter()
    sim = ProtocolSimulation(
        inputs.miners,
        inputs.transactions,
        config=inputs.config,
        assignment=inputs.assignment,
    )
    setup_s = time.perf_counter() - start
    if trace is not None:
        trace.install()
    start = time.perf_counter()
    try:
        result = sim.run()
    finally:
        run_s = time.perf_counter() - start
        if trace is not None:
            trace.uninstall()
    cpu_s = time.process_time() - cpu_start
    reference_after = reference_s()
    # Linux reports ru_maxrss in KiB.
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mib": peak_rss_mib,
        "reference_s": (reference_before + reference_after) / 2,
        "injected": inputs.injected,
        "events_fired": sim.scheduler.events_fired,
        "outcome": gate.outcome(result),
        "problems": gate.invariant_problems(sim, result, inputs),
        "effective_cpu_count": effective_cpu_count(),
        "python": platform.python_version(),
    }
    if trace is not None:
        record["counts"], record["timed"] = trace.report(
            sim, result, inputs, run_s, wrapper_ns
        )
    return record


def serve() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        sys.stdout.flush()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                record = measure(
                    request["workload"],
                    request["seed"],
                    request["traced"],
                    request["toy"],
                )
                sys.stdout.write(json.dumps(record) + "\n")
                sys.stdout.flush()
                status = 0
            except Exception:
                traceback.print_exc()
            finally:
                os._exit(status)
        __, status = os.waitpid(pid, 0)
        if status != 0:
            error = f"sample process ended with wait status {status}"
            sys.stdout.write(json.dumps({"error": error}) + "\n")
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(serve())
