"""Record each workload's outcomes and trace digests for a range of seeds.

    python3 perfbench/record.py --seeds 0-9 [--workload campaign ...]

For every input a ``--seed`` stands for (``run.input_seeds``), runs one
untraced and one traced sample and writes their outcome to
``outcomes.json``, the record the correctness gate compares every later
sample against. An input whose samples break an invariant, or whose
traced and untraced outcomes differ, is refused, not recorded. Record
again only when the program's behaviour changes on purpose.
"""

from __future__ import annotations

import argparse
import json
import sys

import gate
from run import WORKLOAD_NAMES, SampleServer, input_seeds


def _seed_range(text: str) -> range:
    low, __, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, type=_seed_range)
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    try:
        records = json.loads(gate.RECORD_PATH.read_text())
    except FileNotFoundError:
        records = {}
    with SampleServer() as server:
        for workload in args.workload or WORKLOAD_NAMES:
            for seed in (s for run in args.seeds for s in input_seeds(run)):
                plain = server.sample(workload, seed)
                traced = server.sample(workload, seed, traced=True)
                problems = [
                    problem
                    for sample in (plain, traced)
                    for problem in (
                        [sample["error"]] if "error" in sample else sample["problems"]
                    )
                ]
                if not problems:
                    problems = gate.compare(plain["outcome"], traced["outcome"])
                if problems:
                    print(f"{workload} input {seed}: {'; '.join(problems)}")
                    return 1
                records.setdefault(workload, {})[str(seed)] = plain["outcome"]
                print(f"{workload} input {seed}: {plain['outcome']}", flush=True)
    gate.RECORD_PATH.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
