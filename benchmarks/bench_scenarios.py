"""Perf + fidelity record for the adversarial scenario suite.

Two things are priced and persisted:

* **scenario throughput** — every library scenario (takeover,
  double-spend, griefing, eclipse, adaptive) is run end to end on the
  fast engine with lineage tracing and detection, and the suite's
  aggregate rate is recorded as ``scenario_runs_per_s``. Per-scenario
  wall times and trace digests ride along as determinism evidence.
* **overlay fidelity** — a reduced-trial Eq. 3 sweep
  (:func:`repro.scenarios.takeover_corruption_sweep`) runs through the
  engine and the record stores empirical-vs-analytical corruption per
  grid point plus the within-tolerance verdict, so the record also
  shows whether the engine still reproduces Fig. 1d.

Emits ``benchmarks/results/BENCH_scenarios.json``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

if __package__ in (None, ""):  # direct script execution
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.common import write_bench_record
from repro.scenarios import (
    get_scenario,
    run_scenario,
    scenario_names,
    takeover_corruption_sweep,
)

SEED = 0
#: Reduced sweep for the bench record: one contested grid point, enough
#: trials that the empirical rate is meaningful but the record stays
#: cheap to regenerate in CI.
SWEEP_POINTS = ((7, 0.2), (9, 0.32))
SWEEP_TRIALS_QUICK = 40
SWEEP_TRIALS_FULL = 120


def measure_scenarios(quick: bool = False) -> dict:
    per_scenario = {}
    suite_start = time.perf_counter()
    for name in scenario_names():
        start = time.perf_counter()
        outcome = run_scenario(get_scenario(name), seed=SEED)
        elapsed = time.perf_counter() - start
        report = outcome.report
        per_scenario[name] = {
            "wall_s": round(elapsed, 4),
            "digest": outcome.digest,
            "detected": report.detected,
            "safety_violated": report.safety_violated,
            "txs_reverted": report.txs_reverted,
            "txs_censored": report.txs_censored,
            "trace_records": len(outcome.result.trace),
        }
    suite_s = time.perf_counter() - suite_start
    runs = len(per_scenario)

    trials = SWEEP_TRIALS_QUICK if quick else SWEEP_TRIALS_FULL
    sweep_start = time.perf_counter()
    points = takeover_corruption_sweep(
        points=SWEEP_POINTS, trials=trials, seed=SEED
    )
    sweep_s = time.perf_counter() - sweep_start

    return {
        "mode": "quick" if quick else "full",
        "seed": SEED,
        "scenarios": per_scenario,
        "suite_wall_s": round(suite_s, 4),
        "scenario_runs_per_s": round(runs / suite_s, 4),
        "sweep_trials": trials,
        "sweep_wall_s": round(sweep_s, 4),
        "sweep_engine_runs": sum(p.engine_trials for p in points),
        "sweep_points": [
            {
                "miners": p.miners,
                "adversary_fraction": p.adversary_fraction,
                "empirical": round(p.empirical, 4),
                "analytical": round(p.analytical, 4),
                "z": round(p.z, 3),
                "within_tolerance": p.within_tolerance,
            }
            for p in points
        ],
        "sweep_all_within_tolerance": all(p.within_tolerance for p in points),
    }


def test_scenario_suite(benchmark) -> None:
    """pytest-benchmark entry: suite timed, record emitted."""
    record = measure_scenarios(quick=True)
    write_bench_record("scenarios", record)
    assert record["sweep_all_within_tolerance"], record["sweep_points"]
    assert all(s["detected"] for s in record["scenarios"].values()), record
    benchmark.pedantic(
        lambda: run_scenario(get_scenario("takeover"), seed=SEED),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="Run the scenario suite + Eq. 3 overlay sweep and emit "
        "BENCH_scenarios.json."
    )
    parser.add_argument(
        "--quick", action="store_true", help="fewer sweep trials (CI smoke)"
    )
    args = parser.parse_args(argv)
    record = measure_scenarios(quick=args.quick)
    write_bench_record("scenarios", record)
    for name, entry in record["scenarios"].items():
        print(
            f"{name:12s} {entry['wall_s']:.3f}s detected={entry['detected']} "
            f"digest={entry['digest'][:12]}"
        )
    print(
        f"suite {record['suite_wall_s']:.2f}s "
        f"({record['scenario_runs_per_s']:.2f} runs/s), "
        f"sweep {record['sweep_wall_s']:.1f}s over "
        f"{record['sweep_engine_runs']} engine runs, "
        f"fidelity={'ok' if record['sweep_all_within_tolerance'] else 'FAIL'}"
    )


if __name__ == "__main__":
    main()
