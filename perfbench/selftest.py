"""Self-test of the benchmark: toy-size runs and a tampered outcome.

    python3 perfbench/selftest.py

For every workload, at toy size:

* untraced samples on two seeds both pass the correctness gate, so the
  workload drains (or reaches its horizon) the same way on each;
* a traced sample reproduces the untraced outcome and reports every
  per-layer metric;
* the gate rejects a sample whose outcome was tampered with.

It also drives ``run.py`` end to end, at full size, in both trace modes
on its quickest workload, and checks that ``BENCHMARK.json`` names the
same workloads and metrics as ``run.py``. Exits 1 if anything fails.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import END_TO_END, PER_LAYER, ROOT, WORKLOAD_NAMES, SampleServer, judge


def check_workload(server: SampleServer, name: str) -> list[str]:
    plain = [server.sample(name, seed, toy=True) for seed in (1, 2)]
    traced = server.sample(name, 1, traced=True, toy=True)
    __, problems = judge(plain + [traced], name, use_record=False)
    if problems:
        return problems
    reported = set(traced["counts"]) | set(traced["timed"]) | {"trace.overhead_pct"}
    if reported != set(PER_LAYER):
        problems.append(f"traced metrics differ: {sorted(reported ^ set(PER_LAYER))}")
    outcome = dict(plain[0]["outcome"], confirmed=plain[0]["outcome"]["confirmed"] + 1)
    tampered = dict(plain[0], outcome=outcome)
    __, failures = judge([plain[0], tampered], name, use_record=False)
    if len(failures) != 1:
        problems.append("the gate accepted a tampered outcome")
    return problems


def check_command(trace: int) -> list[str]:
    command = [
        sys.executable, "perfbench/run.py", "--workload", "lossy-crash",
        "--seed", "3", "--seconds", "1", "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    expected = PER_LAYER if trace else END_TO_END
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"run.py --trace {trace}: {proc.stderr.strip()}")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if units != expected:
        problems.append(f"run.py --trace {trace} reported other metrics")
    return problems


def check_manifest() -> list[str]:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if tuple(w["name"] for w in manifest["workloads"]) != WORKLOAD_NAMES:
        problems.append("BENCHMARK.json workloads differ from run.py")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if {m["name"]: m["unit"] for m in manifest[key]} != table:
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    return problems


def main() -> int:
    problems = check_manifest()
    with SampleServer() as server:
        for name in WORKLOAD_NAMES:
            found = check_workload(server, name)
            print(f"{name}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for trace in (0, 1):
        problems += check_command(trace)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest ok" if not problems else "selftest FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
