"""Shared benchmark plumbing.

Each ``bench_*`` module reproduces one table/figure: it runs the full
experiment, prints the same rows/series the paper reports, persists them
under ``benchmarks/results/``, and times the experiment kernel with
pytest-benchmark.

Every bench run additionally emits a machine-readable record —
``benchmarks/results/BENCH_<name>.json`` — carrying wall times and the
parallel-vs-serial speedup, stamped with the git revision and time it
was taken. CI asserts the behavioural fields of the records it
regenerates (budgets, bounded memory, drained runs). Speed itself is
judged by ``perfbench/``, the repo benchmark.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import platform
import subprocess
import sys
import time
from typing import Callable

from repro.experiments import run_experiment
from repro.experiments.common import clear_experiment_caches
from repro.runtime import (
    ProcessExecutor,
    SerialExecutor,
    effective_cpu_count,
    use_executor,
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Workers used for the parallel leg of every speedup measurement.
BENCH_WORKERS = 2


def bench_environment() -> dict[str, object]:
    """The context a perf number is meaningless without.

    ``cpu_count`` is what the machine has; ``effective_cpus`` is what
    this process may actually use (cgroup/affinity limited — the number
    that decides whether a parallel speedup is even possible).
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "effective_cpus": effective_cpu_count(),
        "pid": os.getpid(),
    }


def git_revision(repo_dir: str | pathlib.Path | None = None) -> str | None:
    """Short commit hash of the enclosing checkout, or None."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo_dir or pathlib.Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def utc_timestamp() -> str:
    """The current time as an ISO-8601 UTC string (second precision)."""
    return (
        datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0)
        .isoformat()
    )


def timed(fn: Callable[[], object], repeats: int = 1) -> float:
    """Best-of-``repeats`` wall time of ``fn`` in seconds."""
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def write_bench_record(
    name: str, payload: dict, results_dir: pathlib.Path | None = None
) -> pathlib.Path:
    """Persist one perf record as ``BENCH_<name>.json`` and return it.

    Every record is stamped with the git revision it was measured at
    (None outside a checkout) and an ISO-8601 UTC timestamp.
    """
    target_dir = RESULTS_DIR if results_dir is None else pathlib.Path(results_dir)
    target_dir.mkdir(exist_ok=True, parents=True)
    record = {
        "bench": name,
        "git_rev": git_revision(),
        "recorded_at": utc_timestamp(),
        "environment": bench_environment(),
        **payload,
    }
    path = target_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"[bench] wrote {path}", file=sys.stderr)
    return path


def measure_experiment_speedup(
    experiment_id: str, seed: int = 0, repeats: int = 2
) -> dict[str, object]:
    """Serial vs. parallel wall time of one experiment's quick kernel.

    Both legs recompute from scratch (experiment-level memo caches are
    cleared) and produce bit-identical rows — the runtime's determinism
    contract — so the comparison times identical work.
    """

    def quick_run():
        clear_experiment_caches()
        return run_experiment(experiment_id, quick=True, seed=seed)

    with use_executor(SerialExecutor()):
        serial_s = timed(quick_run, repeats=repeats)
    with use_executor(ProcessExecutor(workers=BENCH_WORKERS)):
        parallel_s = timed(quick_run, repeats=repeats)
    record: dict[str, object] = {
        "experiment": experiment_id,
        "mode": "quick",
        "workers": BENCH_WORKERS,
        "wall_serial_s": round(serial_s, 6),
        "wall_parallel_s": round(parallel_s, 6),
    }
    speedup = round(serial_s / parallel_s, 3)
    if effective_cpu_count() == 1:
        # A process pool on one effective core can only lose to serial
        # execution: the "slowdown" is a property of the host, not the
        # code. Record it under a key that says so.
        record["speedup_parallel_vs_serial_informational"] = speedup
    else:
        record["speedup_parallel_vs_serial"] = speedup
    return record


def reproduce(benchmark, experiment_id: str, seed: int = 0) -> None:
    """Run one paper artifact end to end and record its reproduction."""
    result = run_experiment(experiment_id, quick=False, seed=seed)
    text = result.to_table() + "\n" + "\n".join(result.summary_lines())
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment_id}.txt").write_text(text + "\n")
    print("\n" + text)

    # The machine-readable perf record: quick-kernel wall time under the
    # serial and parallel executors (bit-identical outputs by contract).
    write_bench_record(experiment_id, measure_experiment_speedup(experiment_id, seed))

    # The timed kernel is the quick configuration: representative of the
    # computation, small enough to keep the benchmark suite snappy.
    def quick_kernel():
        clear_experiment_caches()
        return run_experiment(experiment_id, quick=True, seed=seed)

    benchmark.pedantic(
        quick_kernel,
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
