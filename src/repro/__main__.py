"""Command-line entry point: reproduce paper artifacts from the shell.

Usage::

    python -m repro list                  # show available experiment ids
    python -m repro run fig3a             # full reproduction of Fig. 3(a)
    python -m repro run fig3c --quick --trace fig3c.jsonl
    python -m repro all --quick           # sweep everything

    python -m repro run fig3a --progress  # live heartbeat line on stderr

    python -m repro trace record out.jsonl --seed 7
    python -m repro trace record out.jsonl --heartbeat 25 --shard-stats s.json
    python -m repro trace profile out.jsonl
    python -m repro trace diff run1.jsonl run2.jsonl
    python -m repro trace digest out.jsonl
    python -m repro trace shards s.json   # shard-load report + imbalance

    python -m repro bench history         # BENCH_*.json trajectory table
    python -m repro bench check           # nonzero exit on a regression

    python -m repro scenario list         # the adversarial scenario library
    python -m repro scenario run takeover --seed 0 --trace takeover.jsonl
    python -m repro scenario sweep        # empirical Eq. 3 / Fig. 1d overlay

``trace diff`` exits 1 when the traces deterministically diverge;
``bench check`` exits 1 when a tracked metric regresses beyond the
tolerance; ``scenario sweep`` exits 1 when an empirical corruption rate
leaves binomial confidence of the Eq. 3 curve; trace/bench/scenario data
errors (missing file, corrupt JSONL, unknown scenario) are reported on
stderr with exit code 2.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.errors import ConfigError, ReproError
from repro.experiments import experiment_ids, run_experiment

#: Default benchmark-record directory for ``bench history`` / ``check``.
_RESULTS_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"


def _print_result(result) -> None:
    print(result.to_table())
    for line in result.summary_lines()[1:]:
        print(line)
    print()


def _run_traced(
    experiment: str,
    quick: bool,
    seed: int,
    trace_path: str,
    miners: int | None = None,
) -> None:
    """Run one experiment inside a lineage-enabled tracer scope."""
    from repro.observe import Tracer, use_tracer

    tracer = Tracer(lineage=True)
    with use_tracer(tracer):
        result = run_experiment(experiment, quick=quick, seed=seed, miners=miners)
    _print_result(result)
    target = tracer.write_jsonl(trace_path)
    print(
        f"trace written to {target} "
        f"({len(tracer)} records, digest {tracer.digest()})"
    )


def _progress_scope(enabled: bool):
    """A live-heartbeat telemetry scope (or a no-op when disabled).

    Every protocol run launched inside the scope inherits the
    telemetry via :func:`repro.observe.resolve_telemetry`, prints a
    progress line per heartbeat to stderr, and — because heartbeats
    never touch the tracer or the RNG — leaves digests untouched.
    """
    import contextlib

    if not enabled:
        return contextlib.nullcontext()
    from repro.observe import Telemetry, use_telemetry

    return use_telemetry(Telemetry(heartbeat_interval=5.0, progress=True))


# ----------------------------------------------------------------------
# trace subcommands
# ----------------------------------------------------------------------
def _trace_record(args) -> int:
    """Record one seeded protocol run's trace to a JSONL file."""
    from repro.consensus.miner import MinerIdentity
    from repro.consensus.pow import PoWParameters
    from repro.faults.plan import FaultPlan
    from repro.net.network import LatencyModel
    from repro.observe import Telemetry, Tracer
    from repro.sim.protocol import ProtocolConfig, ProtocolSimulation
    from repro.workloads import (
        streaming_uniform_contract_workload,
        uniform_contract_workload,
    )

    if args.miners < 1:
        raise ConfigError(f"--miners/--nodes must be positive: {args.miners}")
    miners = [MinerIdentity.create(f"m{i}") for i in range(args.miners)]
    if args.stream:
        workload = streaming_uniform_contract_workload(
            total_txs=args.txs, contract_shards=args.shards, seed=args.seed
        )
    else:
        workload = uniform_contract_workload(
            total_txs=args.txs, contract_shards=args.shards, seed=args.seed
        )
    # Lineage indexes a materialized workload; paced streaming refuses
    # it, and sink mode spills records the lineage probes would re-read.
    lineage = not args.no_lineage and not args.stream and not args.sink
    tracer = Tracer(
        lineage=lineage, sink=args.output if args.sink else None
    )
    telemetry: Telemetry | bool = False
    if args.heartbeat is not None or args.progress or args.shard_stats:
        interval = args.heartbeat
        if interval is None and args.progress:
            interval = 5.0
        telemetry = Telemetry(
            heartbeat_interval=interval, progress=args.progress
        )
    config = ProtocolConfig(
        pow_params=PoWParameters(difficulty=0x40000 // 60),
        latency=LatencyModel(base_seconds=0.01, jitter_seconds=0.01),
        seed=args.seed,
        max_duration=5_000.0,
        trace=tracer,
        fault_plan=(
            FaultPlan.lossy(0.08, duplicate_probability=0.05)
            if args.faulty
            else None
        ),
        retransmit_interval=60.0 if args.faulty else None,
        inject_batch=args.inject_batch,
        inject_interval=args.inject_interval,
        mempool_limit=args.mempool_limit,
        telemetry=telemetry,
    )
    result = ProtocolSimulation(
        miners, workload, config=config, unified=args.unified
    ).run()
    trace = result.trace
    if args.sink:
        target = trace.finish_sink()
        records = trace.spilled
    else:
        target = trace.write_jsonl(args.output)
        records = len(trace)
    print(
        f"recorded {records} records to {target} "
        f"(seed={args.seed}, "
        f"confirmed={result.confirmed_count()})"
    )
    print(f"digest {trace.digest()}")
    if result.shard_stats is not None:
        print(result.shard_stats.render(title="shard load"))
        if args.shard_stats:
            import json

            with open(args.shard_stats, "w", encoding="utf-8") as handle:
                json.dump(result.shard_stats.as_dict(), handle, indent=2)
                handle.write("\n")
            print(f"shard stats written to {args.shard_stats}")
    return 0


def _trace_profile(args) -> int:
    from repro.observe import as_payloads, render_profile

    payloads = as_payloads(args.trace)
    print(render_profile(payloads, title=pathlib.Path(args.trace).name))
    return 0


def _trace_diff(args) -> int:
    from repro.observe import as_payloads, diff_traces, render_diff

    left = as_payloads(args.left)
    right = as_payloads(args.right)
    diff = diff_traces(left, right)
    names = (pathlib.Path(args.left).name, pathlib.Path(args.right).name)
    print(render_diff(diff, left, right, names=names, window=args.window))
    return 1 if diff.divergent else 0


def _trace_digest(args) -> int:
    from repro.observe import digest_of_jsonl

    print(digest_of_jsonl(args.trace))
    return 0


def _trace_shards(args) -> int:
    """Render a recorded shard-load report (traffic matrix + imbalance)."""
    import json

    from repro.errors import SimulationError
    from repro.observe import ShardStats

    path = pathlib.Path(args.stats)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SimulationError(f"{path}: corrupt shard-stats JSON: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise SimulationError(
            f"{path}: expected a JSON object, got {type(payload).__name__}"
        )
    stats = ShardStats.from_dict(payload)
    print(stats.render(title=path.name))
    return 0


# ----------------------------------------------------------------------
# scenario subcommands
# ----------------------------------------------------------------------
def _scenario_list(args) -> int:
    from repro.scenarios import get_scenario, scenario_names

    for name in scenario_names():
        scenario = get_scenario(name)
        print(f"{name:12s} {scenario.summary} [{scenario.paper_ref}]")
    return 0


def _scenario_run(args) -> int:
    import json

    from repro.scenarios import get_scenario, run_scenario

    scenario = get_scenario(args.name)
    outcome = run_scenario(scenario, seed=args.seed)
    report = outcome.report.as_dict()
    extras = report.pop("extras")
    for key, value in report.items():
        print(f"{key}: {value}")
    for key, value in extras.items():
        print(f"extras.{key}: {value}")
    print(f"trace digest {outcome.digest}")
    if args.trace:
        target = outcome.result.trace.write_jsonl(args.trace)
        print(f"trace written to {target} ({len(outcome.result.trace)} records)")
    if args.json:
        payload = outcome.report.as_dict()
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=False)
            handle.write("\n")
        print(f"report written to {args.json}")
    return 0


def _scenario_sweep(args) -> int:
    import json

    from repro.errors import ScenarioError
    from repro.scenarios import (
        DEFAULT_POINTS,
        render_sweep,
        takeover_corruption_sweep,
    )

    if args.points:
        try:
            points = tuple(
                (int(m), float(f))
                for m, f in (point.split(":") for point in args.points.split(","))
            )
        except ValueError as exc:
            raise ScenarioError(
                f"--points wants 'miners:fraction,...', got {args.points!r}"
            ) from exc
    else:
        points = DEFAULT_POINTS
    results = takeover_corruption_sweep(
        points=points,
        trials=args.trials,
        seed=args.seed,
    )
    print(render_sweep(results))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump([p.as_dict() for p in results], handle, indent=2)
            handle.write("\n")
        print(f"sweep written to {args.json}")
    return 0 if all(p.within_tolerance for p in results) else 1


# ----------------------------------------------------------------------
# bench subcommands
# ----------------------------------------------------------------------
def _bench_history(args) -> int:
    from repro.observe import load_bench_records, render_history

    print(render_history(load_bench_records(args.results)))
    return 0


def _bench_check(args) -> int:
    from repro.observe import (
        check_regressions,
        load_bench_records,
        render_check,
        render_history,
    )

    baselines = load_bench_records(args.baseline)
    candidates = (
        load_bench_records(args.candidate)
        if args.candidate is not None
        else baselines
    )
    if not baselines:
        print(f"error: no BENCH_*.json records under {args.baseline}",
              file=sys.stderr)
        return 2
    print(render_history(candidates))
    findings = check_regressions(
        candidates, baselines, tolerance=args.tolerance
    )
    print(render_check(findings, tolerance=args.tolerance))
    return 1 if any(f.regressed for f in findings) else 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce tables/figures of 'On Sharding Open "
        "Blockchains with Smart Contracts' (ICDE 2020).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list experiment ids")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=experiment_ids())
    run_parser.add_argument("--quick", action="store_true", help="trimmed sweep")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--miners",
        "--nodes",
        dest="miners",
        type=int,
        default=None,
        metavar="N",
        help="override the experiment's miner/node axis "
        "(fig1d: shard size; fig3a: miners per shard)",
    )
    run_parser.add_argument(
        "--trace",
        metavar="PATH",
        help="dump the run's JSONL trace here and print its digest",
    )
    run_parser.add_argument(
        "--progress",
        action="store_true",
        help="live heartbeat line on stderr while the runs execute",
    )

    all_parser = subparsers.add_parser("all", help="run every experiment")
    all_parser.add_argument("--quick", action="store_true", help="trimmed sweeps")
    all_parser.add_argument("--seed", type=int, default=0)
    all_parser.add_argument(
        "--progress",
        action="store_true",
        help="live heartbeat line on stderr while the runs execute",
    )

    report_parser = subparsers.add_parser(
        "report", help="render a markdown reproduction report"
    )
    report_parser.add_argument(
        "--output", default="-", help="output path ('-' for stdout)"
    )
    report_parser.add_argument("--full", action="store_true", help="full sweeps")
    report_parser.add_argument("--seed", type=int, default=0)
    report_parser.add_argument(
        "--only", nargs="*", choices=experiment_ids(), help="subset of experiments"
    )

    trace_parser = subparsers.add_parser(
        "trace", help="trace analytics: record, profile, diff, digest"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)

    record = trace_sub.add_parser(
        "record", help="record one seeded protocol run's trace"
    )
    record.add_argument("output", help="JSONL output path")
    record.add_argument("--seed", type=int, default=7)
    record.add_argument(
        "--miners",
        "--nodes",
        dest="miners",
        type=int,
        default=6,
        metavar="N",
        help="how many miners (= full nodes) join the run",
    )
    record.add_argument("--txs", type=int, default=30)
    record.add_argument("--shards", type=int, default=2)
    record.add_argument("--faulty", action="store_true", help="lossy network")
    record.add_argument(
        "--unified", action="store_true", help="Sec. IV-C unified run"
    )
    record.add_argument(
        "--no-lineage",
        action="store_true",
        help="omit per-transaction lifecycle events",
    )
    record.add_argument(
        "--stream",
        action="store_true",
        help="generator-backed workload instead of a materialized list",
    )
    record.add_argument(
        "--sink",
        action="store_true",
        help="spill trace records to the output file incrementally",
    )
    record.add_argument(
        "--inject-batch",
        type=int,
        default=None,
        help="paced injection: transactions per injection tick",
    )
    record.add_argument(
        "--inject-interval",
        type=float,
        default=1.0,
        help="paced injection: seconds between injection ticks",
    )
    record.add_argument(
        "--mempool-limit",
        type=int,
        default=None,
        help="bounded mempool: evict lowest-fee txs above this size",
    )
    record.add_argument(
        "--heartbeat",
        type=float,
        default=None,
        metavar="SECONDS",
        help="telemetry heartbeat interval in sim seconds "
        "(digest-neutral; implies a final shard-load report)",
    )
    record.add_argument(
        "--progress",
        action="store_true",
        help="print a live heartbeat line per sample to stderr",
    )
    record.add_argument(
        "--shard-stats",
        metavar="PATH",
        default=None,
        help="write the shard-load report as JSON (see 'trace shards')",
    )

    profile = trace_sub.add_parser(
        "profile",
        help="per-phase attribution + per-transaction lineage latencies",
    )
    profile.add_argument("trace", help="JSONL trace path")

    diff = trace_sub.add_parser(
        "diff", help="first deterministic divergence between two traces"
    )
    diff.add_argument("left")
    diff.add_argument("right")
    diff.add_argument(
        "--window", type=int, default=3, help="context records around the divergence"
    )

    digest = trace_sub.add_parser(
        "digest", help="recompute a trace file's wall-excluding digest"
    )
    digest.add_argument("trace", help="JSONL trace path")

    shards = trace_sub.add_parser(
        "shards",
        help="shard-load report from a recorded shard-stats JSON file",
    )
    shards.add_argument(
        "stats", help="shard-stats JSON path (trace record --shard-stats)"
    )

    scenario_parser = subparsers.add_parser(
        "scenario", help="adversarial scenarios through the full engine"
    )
    scenario_sub = scenario_parser.add_subparsers(
        dest="scenario_command", required=True
    )

    scenario_sub.add_parser("list", help="list the scenario library")

    scenario_run = scenario_sub.add_parser(
        "run", help="run one scenario and print its detection report"
    )
    scenario_run.add_argument("name", help="scenario name (see 'scenario list')")
    scenario_run.add_argument("--seed", type=int, default=0)
    scenario_run.add_argument(
        "--trace", metavar="PATH", help="dump the run's JSONL trace here"
    )
    scenario_run.add_argument(
        "--json", metavar="PATH", help="write the detection report as JSON"
    )

    scenario_sweep = scenario_sub.add_parser(
        "sweep",
        help="empirical vs analytical shard corruption (Eq. 3 / Fig. 1d)",
    )
    scenario_sweep.add_argument(
        "--trials", type=int, default=120, help="trials per grid point"
    )
    scenario_sweep.add_argument("--seed", type=int, default=0)
    scenario_sweep.add_argument(
        "--points",
        metavar="M:F,...",
        help="grid as 'miners:fraction' pairs, e.g. '7:0.18,9:0.32'",
    )
    scenario_sweep.add_argument(
        "--json", metavar="PATH", help="write the sweep points as JSON"
    )

    bench_parser = subparsers.add_parser(
        "bench", help="benchmark regression observatory over BENCH_*.json"
    )
    bench_sub = bench_parser.add_subparsers(dest="bench_command", required=True)

    history = bench_sub.add_parser(
        "history", help="trajectory table of every benchmark record"
    )
    history.add_argument(
        "--results", default=str(_RESULTS_DIR), help="records directory"
    )

    check = bench_sub.add_parser(
        "check", help="fail (exit 1) when a tracked metric regressed"
    )
    check.add_argument(
        "--baseline",
        default=str(_RESULTS_DIR),
        help="baseline records directory (default: committed results)",
    )
    check.add_argument(
        "--candidate",
        default=None,
        help="candidate records directory (default: the baseline itself)",
    )
    check.add_argument(
        "--tolerance",
        type=float,
        default=0.1,
        help="allowed relative drop per metric (default 0.1 = 10%%)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for experiment_id in experiment_ids():
            print(experiment_id)
        return 0

    if args.command == "run":
        try:
            with _progress_scope(args.progress):
                if args.trace:
                    _run_traced(
                        args.experiment,
                        args.quick,
                        args.seed,
                        args.trace,
                        miners=args.miners,
                    )
                else:
                    _print_result(
                        run_experiment(
                            args.experiment,
                            quick=args.quick,
                            seed=args.seed,
                            miners=args.miners,
                        )
                    )
        except (ReproError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    if args.command == "report":
        from repro.experiments.report import generate_report

        text = generate_report(
            ids=args.only or None, quick=not args.full, seed=args.seed
        )
        if args.output == "-":
            print(text)
        else:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"report written to {args.output}")
        return 0

    if args.command == "trace":
        handler = {
            "record": _trace_record,
            "profile": _trace_profile,
            "diff": _trace_diff,
            "digest": _trace_digest,
            "shards": _trace_shards,
        }[args.trace_command]
        try:
            return handler(args)
        except (ReproError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.command == "scenario":
        handler = {
            "list": _scenario_list,
            "run": _scenario_run,
            "sweep": _scenario_sweep,
        }[args.scenario_command]
        try:
            return handler(args)
        except (ReproError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.command == "bench":
        handler = {"history": _bench_history, "check": _bench_check}[
            args.bench_command
        ]
        try:
            return handler(args)
        except (ReproError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    with _progress_scope(getattr(args, "progress", False)):
        for experiment_id in experiment_ids():
            _print_result(
                run_experiment(experiment_id, quick=args.quick, seed=args.seed)
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
