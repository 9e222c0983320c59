"""Repo benchmark: seeded protocol workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload wan-fanout --seed 1 --seconds 20 --trace 0

Each sample is one simulation run, start to finish, in a fresh process
forked by the sample server of ``sample.py``. Samples run one after
another (a closed loop with one client) until ``--seconds`` have
passed. The server runs with ``PYTHONHASHSEED`` fixed, the ``REPRO_*``
switches cleared and the math libraries held to one thread.

``--seed`` stands for ``INPUTS_PER_RUN`` workload inputs
(``input_seeds``) that the samples take in turn, so one run measures
several draws of the workload, each at least once. A metric is the
median over each input's samples, averaged over the inputs.

The host this runs on is shared, and its speed switches between states
up to 1.9 times apart that last from a second to minutes. So every
sample also times a fixed reference work (``sample.reference_s``) just
before and just after its run, and the end-to-end timings are reported
in reference-host seconds (see ``host_scale``), which takes out the
host's speed of the moment and leaves the program's. The line
``unscaled`` before the result gives the same timings in plain seconds.

``--trace 0`` reports the end-to-end metrics (``END_TO_END``).
``--trace 1`` runs every input untraced and then traced (see
``layers.py``), reports the per-layer metrics (``PER_LAYER``), including
the tracing overhead between the two, and prints the workload's top
layer by self time.

Every sample passes the correctness gate of ``gate.py`` or counts as
failed. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it stamps the host and the program's revision. Without the
program's source beside it (``src/repro``) the command exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import gate  # noqa: E402

WORKLOAD_NAMES = ("wan-fanout", "stream-evict", "campaign", "lossy-crash")

#: Workload inputs one ``--seed`` stands for, and the spacing that keeps
#: the inputs of different seeds apart.
INPUTS_PER_RUN = 8
SEED_STRIDE = 16

#: End-to-end metric -> unit.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "events_per_s": "1/s",
    "confirmed_tx_per_s": "tx/s",
    "sim_s_per_wall_s": "ratio",
    "peak_rss_mib": "MiB",
    "confirmed_tx_share": "ratio",
}
#: The end-to-end metrics that are (or divide by) a timing.
SCALED = (
    "setup_s",
    "run_s",
    "cpu_s",
    "events_per_s",
    "confirmed_tx_per_s",
    "sim_s_per_wall_s",
)

#: Per-layer metric -> unit (produced by ``layers.LayerTrace.report``).
PER_LAYER = {
    "net.events.fired": "count",
    "net.events.peak_pending": "count",
    "net.events.self_s": "s",
    "net.events.ns_per_event": "ns",
    "sim.protocol.stop_checks": "count",
    "sim.protocol.stop_check_s": "s",
    "sim.protocol.outside_loop_s": "s",
    "sim.protocol.failed_tx_share": "ratio",
    "net.network.broadcasts": "count",
    "net.network.sends": "count",
    "net.network.deliveries": "count",
    "net.network.latency_draws": "count",
    "net.network.deliveries_per_broadcast": "ratio",
    "net.network.self_s": "s",
    "faults.model.filter_calls": "count",
    "faults.model.drop_ratio": "ratio",
    "faults.model.self_s": "s",
    "net.node.blocks_received": "count",
    "net.node.block_useful_ratio": "ratio",
    "net.node.txs_offered": "count",
    "net.node.tx_pooled_ratio": "ratio",
    "net.node.forges": "count",
    "net.node.empty_block_share": "ratio",
    "net.node.orphans_buffered": "count",
    "net.node.self_s": "s",
    "chain.validation.inspects": "count",
    "chain.validation.rejected": "count",
    "chain.validation.self_s": "s",
    "chain.ledger.adds": "count",
    "chain.ledger.stale_share": "ratio",
    "chain.ledger.self_s": "s",
    "chain.state.tx_applies": "count",
    "chain.state.block_applies": "count",
    "chain.state.block_reverts": "count",
    "chain.state.applies_per_confirmed_tx": "ratio",
    "chain.state.self_s": "s",
    "chain.mempool.adds": "count",
    "chain.mempool.evictions": "count",
    "chain.mempool.selects": "count",
    "chain.mempool.pack_ratio": "ratio",
    "chain.mempool.self_s": "s",
    "chain.callgraph.observes": "count",
    "chain.callgraph.classifies": "count",
    "chain.callgraph.observes_per_tx": "ratio",
    "chain.callgraph.self_s": "s",
    "runtime.cache.hit_ratio": "ratio",
    "consensus.pow.draws": "count",
    "consensus.pow.rearms": "count",
    "consensus.pow.self_s": "s",
    "workloads.generators.txs_yielded": "count",
    "workloads.generators.self_s": "s",
    "trace.attributed_share": "ratio",
    "trace.overhead_pct": "%",
    "trace.wrapper_s": "s",
    "trace.wrapper_ns_per_call": "ns",
}

#: Seconds the reference work of ``sample.reference_s`` takes on the
#: reference host: a shared 2.0 GHz Xeon vCPU in the quicker of its speed
#: states (it reads about 0.027 s in the slower one).
REFERENCE_S = 0.015
#: log(program's slow/fast time) / log(reference's slow/fast time) across
#: the speed states of that host, as measured on stream-evict and
#: campaign: about 1.7x against 1.9x.
HOST_SENSITIVITY = 0.8

#: Wall-clock budget of one invocation; no sample starts after
#: ``START_LIMIT_S`` and none may outlive ``DEADLINE_S``.
DEADLINE_S = 170.0
START_LIMIT_S = 110.0
#: Fewest samples a run takes, whatever ``--seconds`` says: every input
#: once (with ``--trace 1``, once untraced and once traced).
MIN_SAMPLES = INPUTS_PER_RUN
#: Attributed share below which the trace names what it misses.
ATTRIBUTION_FLOOR = 0.9


def input_seeds(seed: int) -> list[int]:
    """The workload inputs one ``--seed`` stands for."""
    return [seed * SEED_STRIDE + k for k in range(INPUTS_PER_RUN)]


def sample_env() -> dict[str, str]:
    """The pinned environment of the sample server."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=str(SRC),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class SampleServer:
    """The sample server of ``sample.py`` and its request pipe."""

    def __init__(self) -> None:
        # Its own session, so a kill reaches the sample it forked too.
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "sample.py")],
            cwd=ROOT,
            env=sample_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )

    def __enter__(self) -> "SampleServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def sample(
        self,
        workload: str,
        seed: int,
        *,
        traced: bool = False,
        toy: bool = False,
        timeout: float = DEADLINE_S,
    ) -> dict:
        """One sample in a fresh process: its record, or ``{"error": ...}``."""
        request = {"workload": workload, "seed": seed, "traced": traced, "toy": toy}
        try:
            self._proc.stdin.write(json.dumps(request) + "\n")
            self._proc.stdin.flush()
        except BrokenPipeError:
            return {"error": "the sample server has exited"}
        ready, __, __ = select.select([self._proc.stdout], [], [], max(timeout, 0.0))
        if not ready:
            self.kill()
            return {"error": f"sample timed out after {timeout:.0f} s"}
        line = self._proc.stdout.readline()
        if not line:
            return {"error": "the sample server has exited"}
        return json.loads(line)

    def kill(self) -> None:
        """Stop the server and any sample it forked, and wait for it."""
        try:
            os.killpg(self._proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self._proc.wait()

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.kill()
        self._proc.stdout.close()


def collect(server: SampleServer, args) -> list[dict]:
    """Samples until ``--seconds`` have passed (and at least MIN_SAMPLES)."""
    seeds = input_seeds(args.seed)
    fewest = MIN_SAMPLES * (1 + args.trace)
    samples: list[dict] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(samples) >= fewest and elapsed >= args.seconds:
            break
        if elapsed >= START_LIMIT_S:
            break
        turn = len(samples) // 2 if args.trace else len(samples)
        sample = server.sample(
            args.workload,
            seeds[turn % len(seeds)],
            traced=args.trace == 1 and len(samples) % 2 == 1,
            timeout=DEADLINE_S - elapsed,
        )
        samples.append(sample)
        if "timed out" in sample.get("error", ""):
            break
    return samples


def judge(
    samples: list[dict], workload: str, use_record: bool = True
) -> tuple[list[dict], list[str]]:
    """The samples that pass the gate, and one line per failed sample.

    Each input's samples, traced or not, must reproduce its recorded
    outcome, or (unrecorded, or ``use_record=False``) its first sample's.
    """
    expected: dict[int, dict] = {}
    passed, failures = [], []
    for index, sample in enumerate(samples):
        if "error" in sample:
            problems = [sample["error"]]
        else:
            seed = sample["seed"]
            if seed not in expected:
                record = gate.recorded(workload, seed) if use_record else None
                expected[seed] = record or sample["outcome"]
            problems = list(sample["problems"])
            problems += gate.compare(expected[seed], sample["outcome"])
        if problems:
            failures.append(f"sample {index}: " + "; ".join(problems))
        else:
            passed.append(sample)
    return passed, failures


def _aggregate(samples: list[dict], value) -> float:
    """Median over each input's samples, averaged over the inputs."""
    by_input: dict[int, list[float]] = {}
    for sample in samples:
        by_input.setdefault(sample["seed"], []).append(value(sample))
    return statistics.fmean(statistics.median(v) for v in by_input.values())


def host_scale(sample: dict) -> float:
    """Factor turning a sample's seconds into reference-host seconds.

    Between the host's speed states the program's run time changes by
    ``HOST_SENSITIVITY`` of the reference's change, on a log scale; the
    factor follows that.
    """
    return (REFERENCE_S / sample["reference_s"]) ** HOST_SENSITIVITY


def end_to_end(untraced: list[dict], scale=host_scale) -> dict[str, float]:
    """The end-to-end metrics, timings in seconds times ``scale(sample)``."""

    def run_s(s: dict) -> float:
        return s["run_s"] * scale(s)

    return {
        "setup_s": _aggregate(untraced, lambda s: s["setup_s"] * scale(s)),
        "run_s": _aggregate(untraced, run_s),
        "cpu_s": _aggregate(untraced, lambda s: s["cpu_s"] * scale(s)),
        "events_per_s": _aggregate(untraced, lambda s: s["events_fired"] / run_s(s)),
        "confirmed_tx_per_s": _aggregate(
            untraced, lambda s: s["outcome"]["confirmed"] / run_s(s)
        ),
        "sim_s_per_wall_s": _aggregate(
            untraced, lambda s: s["outcome"]["duration"] / run_s(s)
        ),
        "peak_rss_mib": _aggregate(untraced, lambda s: s["peak_rss_mib"]),
        "confirmed_tx_share": _aggregate(
            untraced, lambda s: s["outcome"]["confirmed"] / s["injected"]
        ),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    metrics = {
        key: _aggregate(traced, lambda s: s[part][key])
        for part in ("counts", "timed")
        for key in traced[0][part]
    }
    traced_run = _aggregate(traced, lambda s: s["run_s"])
    plain_run = _aggregate(untraced, lambda s: s["run_s"])
    metrics["trace.overhead_pct"] = 100.0 * (traced_run / plain_run - 1.0)
    return metrics


def describe_layers(workload: str, metrics: dict[str, float]) -> None:
    """Print the top layer by self time, and what the trace misses."""
    self_s = {
        key[: -len(".self_s")]: value
        for key, value in metrics.items()
        if key.endswith(".self_s")
    }
    self_s["sim.protocol"] = metrics["sim.protocol.stop_check_s"]
    attributed = metrics["trace.attributed_share"]
    # The program's share of the traced run: the tracer's cost taken out.
    program_s = sum(self_s.values()) / attributed
    top = max(self_s, key=self_s.get)
    print(
        f"top layer on {workload}: {top} "
        f"({self_s[top] / program_s:.1%} of the traced run without tracer cost)"
    )
    if attributed < ATTRIBUTION_FLOOR:
        outside = metrics["sim.protocol.outside_loop_s"]
        missing = {
            "ProtocolSimulation.run outside Scheduler.run": outside,
            # Time inside wrapped calls the layers lose when the
            # calibrated wrapper cost overstates the real one.
            "over-corrected wrapper cost": program_s * (1 - attributed) - outside,
        }
        part = max(missing, key=missing.get)
        print(
            f"trace.attributed_share {attributed:.3f} < {ATTRIBUTION_FLOOR}; "
            f"the largest unattributed part is {part}: "
            f"{missing[part] / program_s:.1%} of the program's traced time"
        )


def stamp(samples: list[dict]) -> dict:
    """Host and revision facts printed beside the result."""
    first = next((s for s in samples if "error" not in s), {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        git_rev = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_rev = None
    return {
        "effective_cpu_count": first.get("effective_cpu_count"),
        "python": first.get("python"),
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "sim" / "protocol.py").is_file():
        print(
            f"perfbench: no program source at {SRC / 'repro'}; "
            "run from a full checkout",
            file=sys.stderr,
        )
        return 2

    with SampleServer() as server:
        samples = collect(server, args)
    passed, failures = judge(samples, args.workload)
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    untraced = [s for s in passed if not s["traced"]]
    traced = [s for s in passed if s["traced"]]
    units: dict[str, str] = {}
    if args.trace == 0 and untraced:
        values, units = end_to_end(untraced), END_TO_END
        wall = end_to_end(untraced, scale=lambda s: 1.0)
        print("unscaled " + json.dumps({k: wall[k] for k in SCALED}))
    elif args.trace == 1 and untraced and traced:
        values, units = per_layer(untraced, traced), PER_LAYER
        describe_layers(args.workload, values)
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in units.items()
    }
    print("stamp " + json.dumps(stamp(samples)))
    print(
        json.dumps(
            {
                "correct": not failures and bool(metrics),
                "attempted": len(samples),
                "failed": len(samples) - len(passed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
