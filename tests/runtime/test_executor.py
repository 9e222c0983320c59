"""Tests for repro.runtime.executor."""

import os

import pytest

from repro.errors import SimulationError
from repro.runtime import (
    ProcessExecutor,
    SerialExecutor,
    effective_cpu_count,
    executor_from_env,
    get_default_executor,
    use_executor,
)
from repro.runtime.executor import fork_available

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process executor needs the fork start method"
)


def _square(x: int) -> int:
    return x * x


def _pid(_: int) -> int:
    return os.getpid()


class TestEffectiveCpuCount:
    def test_positive(self):
        assert effective_cpu_count() >= 1

    def test_matches_affinity_when_available(self):
        if hasattr(os, "sched_getaffinity"):
            assert effective_cpu_count() == len(os.sched_getaffinity(0))


class TestSerialExecutor:
    def test_map_preserves_order(self):
        assert SerialExecutor().map(_square, range(5)) == [0, 1, 4, 9, 16]

    def test_runs_in_calling_process(self):
        assert SerialExecutor().map(_pid, [0]) == [os.getpid()]


class TestProcessExecutor:
    def test_map_matches_serial(self):
        items = list(range(17))
        assert ProcessExecutor(workers=2).map(_square, items) == [
            _square(i) for i in items
        ]

    def test_runs_in_worker_processes(self):
        pids = ProcessExecutor(workers=2).map(_pid, range(4))
        assert os.getpid() not in pids

    def test_closures_are_supported(self):
        offset = 100
        results = ProcessExecutor(workers=2).map(
            lambda x: x + offset, range(4)
        )
        assert results == [100, 101, 102, 103]

    def test_below_min_items_runs_serial(self):
        executor = ProcessExecutor(workers=2, min_items=5)
        assert executor.map(_pid, range(3)) == [os.getpid()] * 3

    def test_single_worker_runs_serial(self):
        assert ProcessExecutor(workers=1).map(_pid, range(4)) == [
            os.getpid()
        ] * 4

    def test_zero_workers_rejected(self):
        with pytest.raises(SimulationError):
            ProcessExecutor(workers=0)

    def test_nested_map_does_not_multiply_fanout(self):
        outer = ProcessExecutor(workers=2)

        def inner_sum(x: int) -> int:
            # A task that itself fans out: the inner map must degrade to
            # serial inside the worker instead of forking grandchildren.
            return sum(ProcessExecutor(workers=2).map(_square, range(x + 2)))

        assert outer.map(inner_sum, range(4)) == [
            sum(i * i for i in range(x + 2)) for x in range(4)
        ]

    def test_task_exception_propagates(self):
        def boom(x: int) -> int:
            raise ValueError(f"task {x}")

        with pytest.raises(ValueError):
            ProcessExecutor(workers=2).map(boom, range(4))


class TestEnvSelection:
    def test_serial_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "serial")
        assert isinstance(executor_from_env(), SerialExecutor)

    def test_process_mode_with_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        monkeypatch.setenv("REPRO_WORKERS", "3")
        executor = executor_from_env()
        assert isinstance(executor, ProcessExecutor)
        assert executor.workers == 3

    def test_auto_mode_single_cpu_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "auto")
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert isinstance(executor_from_env(), SerialExecutor)

    def test_auto_mode_multi_cpu_is_process(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "auto")
        monkeypatch.setenv("REPRO_WORKERS", "4")
        executor = executor_from_env()
        assert isinstance(executor, ProcessExecutor)
        assert executor.workers == 4

    def test_invalid_mode_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "threads")
        with pytest.raises(SimulationError):
            executor_from_env()

    def test_non_integer_workers_rejected(self, monkeypatch):
        """REPRO_WORKERS=max used to escape as a raw ValueError from
        int(); it must surface as a SimulationError naming the variable
        and the offending value."""
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        monkeypatch.setenv("REPRO_WORKERS", "max")
        with pytest.raises(SimulationError, match=r"REPRO_WORKERS='max'"):
            executor_from_env()

    def test_zero_workers_rejected_in_auto_mode(self, monkeypatch):
        """Zero used to slip through auto mode (os.cpu_count() was never
        consulted) and blow up later inside ProcessExecutor."""
        monkeypatch.setenv("REPRO_EXECUTOR", "auto")
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(SimulationError, match=r"REPRO_WORKERS='0'"):
            executor_from_env()

    def test_negative_workers_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        monkeypatch.setenv("REPRO_WORKERS", "-2")
        with pytest.raises(SimulationError, match="must be >= 1"):
            executor_from_env()


class TestDefaultExecutor:
    def test_use_executor_scopes_the_override(self):
        original = get_default_executor()
        replacement = SerialExecutor()
        with use_executor(replacement) as active:
            assert active is replacement
            assert get_default_executor() is replacement
        assert get_default_executor() is original

    def test_unset_default_derives_from_env(self, monkeypatch):
        import repro.runtime.executor as executor_mod

        monkeypatch.setenv("REPRO_EXECUTOR", "serial")
        monkeypatch.setattr(executor_mod, "_DEFAULT", None)
        assert isinstance(get_default_executor(), SerialExecutor)
