"""Shared experiment plumbing: results, tables, repetition helpers."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ExperimentError
from repro.runtime import Executor, get_default_executor


@dataclass
class ExperimentResult:
    """One experiment's output: labelled rows plus paper reference points.

    ``rows`` is a list of dicts sharing the same keys (one dict per
    x-axis point); ``paper_claims`` records the reference values from the
    paper so EXPERIMENTS.md and the benchmark output can show
    paper-vs-measured side by side.
    """

    experiment_id: str
    title: str
    rows: list[dict] = field(default_factory=list)
    paper_claims: dict[str, object] = field(default_factory=dict)
    notes: str = ""

    def column(self, key: str) -> list:
        """Extract one column across all rows."""
        try:
            return [row[key] for row in self.rows]
        except KeyError:
            raise ExperimentError(
                f"{self.experiment_id}: no column {key!r}"
            ) from None

    def to_table(self) -> str:
        """Render the rows as an aligned text table."""
        if not self.rows:
            return f"[{self.experiment_id}] (no rows)"
        keys = list(self.rows[0])
        cells = [[_fmt(row.get(k)) for k in keys] for row in self.rows]
        widths = [
            max(len(k), *(len(row[i]) for row in cells))
            for i, k in enumerate(keys)
        ]
        header = "  ".join(k.ljust(w) for k, w in zip(keys, widths))
        divider = "  ".join("-" * w for w in widths)
        body = "\n".join(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
            for row in cells
        )
        return "\n".join([f"[{self.experiment_id}] {self.title}", header, divider, body])

    def summary_lines(self) -> list[str]:
        """Paper-vs-measured lines for the benchmark output."""
        lines = [f"[{self.experiment_id}] {self.title}"]
        for key, claim in self.paper_claims.items():
            lines.append(f"  paper {key}: {claim}")
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return lines


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value != 0.0 and abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)


def _apply_measure(task: tuple[Callable[[int], object], int]) -> object:
    """Executor task shape shared by :func:`repeated_sweep`."""
    measure, seed = task
    return measure(seed)


def repeated_sweep(
    points: list[tuple[Callable[[int], object], int, int]],
    executor: Executor | None = None,
) -> list[list]:
    """Run many seeded measurements, fanning every repetition out.

    ``points`` is a list of ``(measure, repetitions, base_seed)`` — one
    entry per x-axis point (or per column of one). All repetitions of
    all points flatten into a single executor map, so a sweep
    parallelizes across both axes at once. Returns each point's values
    *in repetition order*, which makes the result bit-identical to
    running every point serially.
    """
    tasks: list[tuple[Callable[[int], object], int]] = []
    spans: list[tuple[int, int]] = []
    for measure, repetitions, base_seed in points:
        if repetitions <= 0:
            raise ExperimentError("repetitions must be positive")
        start = len(tasks)
        tasks.extend(
            (measure, base_seed * 10_007 + rep) for rep in range(repetitions)
        )
        spans.append((start, len(tasks)))
    chosen = executor if executor is not None else get_default_executor()
    values = chosen.map(_apply_measure, tasks)
    return [values[start:end] for start, end in spans]


def averaged_sweep(
    points: list[tuple[Callable[[int], float], int, int]],
    executor: Executor | None = None,
) -> list[float]:
    """Each point's mean over its repetitions (see :func:`repeated_sweep`)."""
    return [statistics.mean(values) for values in repeated_sweep(points, executor)]


def averaged(
    measure: Callable[[int], float],
    repetitions: int,
    base_seed: int,
    executor: Executor | None = None,
) -> float:
    """Average a seeded measurement over ``repetitions`` runs.

    The paper repeats injections ("We repeat this injecting process for
    20 times ... to make the results more valid"); this helper is that
    loop with deterministic per-repetition seeds, fanned out over the
    runtime executor (bit-identical to the serial loop; see
    :mod:`repro.runtime`).
    """
    return averaged_sweep([(measure, repetitions, base_seed)], executor)[0]
