"""Seeded, deterministic task executors (serial and process-pool).

The contract every executor honors:

1. **Ordered results** — ``map(fn, items)`` returns ``[fn(x) for x in
   items]`` in submission order, whatever order tasks finish in.
2. **Determinism** — tasks must derive all randomness from their item
   (typically a seed); under that discipline a parallel map is
   bit-identical to a serial one, because float64 values survive the
   worker→parent pickle round-trip exactly.
3. **No nesting** — a task scheduled by :class:`ProcessExecutor` that
   itself calls ``map`` runs that inner map serially (workers set a
   process-local flag), so fan-out never multiplies.

:class:`ProcessExecutor` requires the ``fork`` start method: the worker
inherits the parent's memory, so task callables may be closures (the
experiment runners build their measures as closures over sweep
parameters) — only *results* must be picklable. On platforms without
``fork`` it degrades to serial execution.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import time
from typing import Callable, Iterable, Protocol, Sequence, TypeVar

from repro.errors import SimulationError
from repro.observe import get_tracer

T = TypeVar("T")
R = TypeVar("R")

#: Fork-inherited task payload: (fn, items). Only ever set around a pool
#: invocation in the parent; workers read it, the parent clears it.
_TASKS: tuple[Callable, Sequence] | None = None

#: True inside a pool worker; inner maps then run serially.
_IN_WORKER = False


def effective_cpu_count() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine, not the cgroup/affinity
    limit — inside a 1-CPU container on a 64-core host it says 64, and
    worker pools sized from it thrash. The scheduler affinity mask is
    the truthful bound where available (Linux); elsewhere fall back to
    the machine count.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class Executor(Protocol):
    """An ordered, deterministic ``map`` provider."""

    workers: int

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Evaluate ``fn`` over ``items``, results in submission order."""
        ...


def _serial_map(
    fn: Callable[[T], R], tasks: Sequence[T], mode: str, workers: int
) -> list[R]:
    """An in-process ordered map, traced when a tracer is active.

    The emitted record's identity carries only deterministic facts
    (mode, task count, worker count); per-task wall timings ride in the
    sidecar so traced runs stay digest-stable.
    """
    tracer = get_tracer()
    if tracer is None or _IN_WORKER:
        return [fn(item) for item in tasks]
    task_walls: list[float] = []
    results: list[R] = []
    begin = time.perf_counter()
    for item in tasks:
        started = time.perf_counter()
        results.append(fn(item))
        task_walls.append(time.perf_counter() - started)
    wall: dict[str, object] = {"duration_s": round(time.perf_counter() - begin, 6)}
    if task_walls:
        wall.update(
            task_min_s=round(min(task_walls), 6),
            task_max_s=round(max(task_walls), 6),
            task_mean_s=round(sum(task_walls) / len(task_walls), 6),
        )
    tracer.event(
        "executor.map",
        phase="runtime",
        mode=mode,
        tasks=len(tasks),
        workers=workers,
        wall=wall,
    )
    return results


class SerialExecutor:
    """The reference executor: evaluate in the calling process."""

    workers = 1

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        return _serial_map(fn, list(items), mode="serial", workers=1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialExecutor()"


def _mark_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


def _run_task(index: int):
    assert _TASKS is not None, "worker invoked without an active task set"
    fn, items = _TASKS
    return fn(items[index])


def fork_available() -> bool:
    """Whether the fork start method (and thus real pools) exists."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


class ProcessExecutor:
    """A fork-based process pool with ordered result collection.

    Parameters
    ----------
    workers:
        Pool size; defaults to the *effective* CPU count (the
        scheduler-affinity mask, not the machine core count — see
        :func:`effective_cpu_count`). A fresh pool is forked per
        ``map`` call so workers always see the caller's current memory
        (closures, module state) — fork on Linux is a few milliseconds,
        which the repetition-level task sizes amortize.
    min_items:
        Below this many tasks the pool is not worth forking; the map
        runs serially (the result is identical either way).
    """

    def __init__(self, workers: int | None = None, min_items: int = 2) -> None:
        if workers is not None and workers < 1:
            raise SimulationError("a process executor needs >= 1 worker")
        self.workers = workers if workers is not None else effective_cpu_count()
        self.min_items = min_items

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        global _TASKS
        tasks = list(items)
        if (
            _IN_WORKER
            or self.workers <= 1
            or len(tasks) < self.min_items
            or not fork_available()
        ):
            return _serial_map(fn, tasks, mode="process-degraded", workers=1)
        if _TASKS is not None:
            # Re-entrant map in the parent (an executor task spawned more
            # parent-side work): nested fan-out is disallowed, run serial.
            return _serial_map(fn, tasks, mode="process-nested", workers=1)

        tracer = get_tracer()
        begin = time.perf_counter() if tracer is not None else 0.0
        pool_size = min(self.workers, len(tasks))
        context = multiprocessing.get_context("fork")
        _TASKS = (fn, tasks)
        try:
            with context.Pool(
                processes=pool_size,
                initializer=_mark_worker,
            ) as pool:
                # Pool.map returns results in submission order regardless
                # of completion order — the ordered-collection guarantee.
                results = pool.map(_run_task, range(len(tasks)), chunksize=1)
        finally:
            _TASKS = None
        if tracer is not None:
            # Worker-side events die with the forked children; the parent
            # records the fan-out itself (deterministic) and its wall time
            # (sidecar only).
            tracer.event(
                "executor.map",
                phase="runtime",
                mode="process",
                tasks=len(tasks),
                workers=pool_size,
                wall={"duration_s": round(time.perf_counter() - begin, 6)},
            )
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessExecutor(workers={self.workers})"


def executor_from_env() -> Executor:
    """Build the default executor from the environment.

    ``REPRO_EXECUTOR`` selects the mode: ``serial``, ``process``, or
    ``auto`` (the default — a pool when more than one CPU is visible,
    serial otherwise, so single-core machines never pay fork overhead
    for nothing). ``REPRO_WORKERS`` overrides the pool size.
    """
    mode = os.environ.get("REPRO_EXECUTOR", "auto").strip().lower()
    workers_env = os.environ.get("REPRO_WORKERS", "").strip()
    workers: int | None = None
    if workers_env:
        try:
            workers = int(workers_env)
        except ValueError:
            raise SimulationError(
                f"REPRO_WORKERS={workers_env!r} is not an integer worker count"
            ) from None
        if workers < 1:
            # Explicit in every mode: 0 workers in auto would silently
            # degrade to serial instead of flagging the misconfiguration.
            raise SimulationError(
                f"REPRO_WORKERS={workers_env!r}: worker count must be >= 1"
            )
    if mode not in ("serial", "process", "auto"):
        raise SimulationError(
            f"REPRO_EXECUTOR={mode!r}: expected serial, process, or auto"
        )
    if mode == "serial":
        return SerialExecutor()
    if mode == "process":
        return ProcessExecutor(workers=workers)
    available = workers if workers is not None else effective_cpu_count()
    if available > 1 and fork_available():
        return ProcessExecutor(workers=available)
    return SerialExecutor()


_DEFAULT: Executor | None = None


def get_default_executor() -> Executor:
    """The process-wide executor every fan-out point shares."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = executor_from_env()
    return _DEFAULT


@contextlib.contextmanager
def use_executor(executor: Executor):
    """Scope a default-executor override (benchmarks, parity tests)."""
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = executor
    try:
        yield executor
    finally:
        _DEFAULT = previous
