"""The deterministic parallel runtime.

The paper's evaluation is embarrassingly parallel: every figure repeats
its injection loop 20 times with independent seeds, every sweep walks
independent x-axis points, and a campaign's epoch *simulations* are
independent once the (sequential) epoch plans exist. This package turns
that structure into wall-clock speedup without giving up the bit-exact
determinism the unification protocol depends on:

* :class:`SerialExecutor` — the reference semantics: a plain ordered
  ``map`` in the calling process.
* :class:`ProcessExecutor` — a fork-based process pool that evaluates
  the same tasks in workers and reassembles results *in submission
  order*. Because every task derives all randomness from its own seed
  argument and results come back pickled (floats round-trip exactly),
  a parallel run is bit-identical to a serial one.
* :func:`get_default_executor` — the process-wide default, selected
  via ``REPRO_EXECUTOR`` / ``REPRO_WORKERS`` (see
  :func:`executor_from_env`); :func:`use_executor` scopes an override.
* :class:`MemoCache` — the tiny invalidating memo table behind the
  call-graph/shard-formation lookup caches.
"""

from __future__ import annotations

from repro.runtime.cache import MemoCache
from repro.runtime.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    effective_cpu_count,
    executor_from_env,
    get_default_executor,
    use_executor,
)

__all__ = [
    "Executor",
    "MemoCache",
    "ProcessExecutor",
    "SerialExecutor",
    "effective_cpu_count",
    "executor_from_env",
    "get_default_executor",
    "use_executor",
]
