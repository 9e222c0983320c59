"""Tests for the python -m repro command-line interface."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import repro
from repro.__main__ import main
from repro.observe import RunReport


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3a" in out and "table1" in out and "security" in out

    def test_run_quick(self, capsys):
        assert main(["run", "fig1d", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "safety_33pct" in out

    def test_run_with_seed(self, capsys):
        assert main(["run", "fig4c", "--quick", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "comm_times_per_shard" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestProgress:
    def test_progress_leaves_stdout_alone_and_beats_on_stderr(self):
        # A lane-model experiment, run the way a user runs it: the
        # heartbeat is the scoped telemetry's, printed to stderr.
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))

        def run(*flags):
            return subprocess.run(
                [sys.executable, "-m", "repro", "run", "table1", "--quick", *flags],
                capture_output=True,
                env=env,
                check=True,
            )

        plain, progress = run(), run("--progress")
        assert progress.stdout == plain.stdout
        assert plain.stderr == b""
        beats = progress.stderr.decode().splitlines()
        assert beats
        assert all(line.startswith("[heartbeat] t=") for line in beats)

    def test_progress_prints_at_most_a_line_a_second_per_run(self):
        # fig3a's quick sweep beats thousands of times in about a second.
        # Every run prints its first beat (at t=5.0, one interval in);
        # later beats print at most once a wall second per run.
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
        start = time.perf_counter()
        progress = subprocess.run(
            [sys.executable, "-m", "repro", "run", "fig3a", "--quick", "--progress"],
            capture_output=True,
            env=env,
            check=True,
        )
        elapsed = time.perf_counter() - start
        beats = progress.stderr.decode().splitlines()
        assert all(line.startswith("[heartbeat] t=") for line in beats)
        runs = sum(line.startswith("[heartbeat] t=       5.0 ") for line in beats)
        assert runs >= 1
        assert len(beats) <= runs * (1 + int(elapsed))


class TestMinerOverride:
    def test_run_with_miners_pins_fig1d_axis(self, capsys):
        assert main(["run", "fig1d", "--quick", "--miners", "30"]) == 0
        out = capsys.readouterr().out
        # The sweep collapses to the single requested shard size.
        rows = [line for line in out.splitlines() if line[:1].isdigit()]
        assert len(rows) == 1
        assert rows[0].startswith("30")

    def test_nodes_is_an_alias(self, capsys):
        assert main(["run", "fig1d", "--quick", "--nodes", "30"]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if line[:1].isdigit()]
        assert rows and rows[0].startswith("30")

    def test_non_positive_miners_rejected(self, capsys):
        assert main(["run", "fig1d", "--miners", "0"]) == 2
        err = capsys.readouterr().err
        assert "positive" in err and "0" in err

    def test_negative_miners_rejected(self, capsys):
        assert main(["run", "fig1d", "--miners", "-3"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_experiment_without_miner_axis_rejected(self, capsys):
        assert main(["run", "table1", "--quick", "--miners", "5"]) == 2
        err = capsys.readouterr().err
        assert "no miner axis" in err
        # The error teaches which experiments do take the override.
        assert "fig1d" in err and "fig3a" in err

    def test_trace_record_non_positive_miners_rejected(self, tmp_path, capsys):
        code = main(
            ["trace", "record", str(tmp_path / "t.jsonl"), "--miners", "0"]
        )
        assert code == 2
        assert "positive" in capsys.readouterr().err

    def test_trace_record_bounded_pool_needs_a_stream(self, tmp_path, capsys):
        code = main(
            ["trace", "record", str(tmp_path / "t.jsonl"), "--mempool-limit", "3"]
        )
        assert code == 2
        assert "mempool_limit" in capsys.readouterr().err

    def test_trace_record_nodes_alias(self, tmp_path, capsys):
        target = tmp_path / "t.jsonl"
        assert (
            main(["trace", "record", str(target), "--txs", "8", "--nodes", "3"])
            == 0
        )
        assert target.exists()


class TestRunTrace:
    def test_run_quick_with_trace_dumps_jsonl(self, tmp_path, capsys):
        target = tmp_path / "fig3c.jsonl"
        assert main(["run", "fig3c", "--quick", "--trace", str(target)]) == 0
        out = capsys.readouterr().out
        assert "trace written to" in out and "digest" in out
        assert target.exists()
        first = json.loads(target.read_text().splitlines()[0])
        assert "seq" in first and "name" in first

    def test_unknown_experiment_rejected_with_trace(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "fig99", "--trace", str(tmp_path / "x.jsonl")])


class TestTraceCommands:
    def _record(self, tmp_path, name, *extra):
        target = tmp_path / name
        args = ["trace", "record", str(target), "--txs", "12", "--miners", "4"]
        args.extend(extra)
        assert main(args) == 0
        return target

    def test_record_reports_the_runs_own_cache_lookups(self, tmp_path):
        # In a fresh process the only live named cache is the run's call
        # graph. The default run looks it up 130 times (100 hits); the
        # shard-stats fold after the run adds 50 hits the report must
        # not count.
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
        saved = tmp_path / "report.json"
        subprocess.run(
            [
                sys.executable, "-m", "repro", "trace", "record",
                str(tmp_path / "run.jsonl"), "--report", str(saved),
            ],
            capture_output=True,
            env=env,
            check=True,
        )
        caches = json.loads(saved.read_text())["caches"]
        assert caches["callgraph.analysis"]["hits"] == 100
        assert caches["callgraph.analysis"]["misses"] == 30

    def test_record_then_profile(self, tmp_path, capsys):
        trace = self._record(tmp_path, "run.jsonl")
        out = capsys.readouterr().out
        assert "digest" in out
        assert main(["trace", "report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("[run.jsonl] ")
        assert "phases (sim-time window vs. wall sidecar):" in out
        assert "latency: 12 tracked, " in out
        assert "per-shard end-to-end confirmation latency" in out

    def test_saved_report_renders_as_recorded(self, tmp_path, capsys):
        saved = tmp_path / "R.json"
        self._record(tmp_path, "run.jsonl", "--report", str(saved))
        recorded = capsys.readouterr().out
        assert main(["trace", "report", str(saved)]) == 0
        rendered = capsys.readouterr().out
        assert recorded.startswith(rendered)
        for section in ("phases", "latency:", "shards:", "metrics:"):
            assert f"\n{section}" in rendered
        payload = json.loads(saved.read_text())
        assert payload["report"] == 1
        assert RunReport.from_dict(payload).as_dict() == payload

    def test_same_seed_diff_is_clean(self, tmp_path, capsys):
        first = self._record(tmp_path, "first.jsonl")
        second = self._record(tmp_path, "second.jsonl")
        assert main(["trace", "diff", str(first), str(second)]) == 0
        out = capsys.readouterr().out
        assert "no deterministic divergence" in out

    def test_diff_flags_a_perturbed_record(self, tmp_path, capsys):
        trace = self._record(tmp_path, "run.jsonl")
        lines = trace.read_text().splitlines()
        perturbed = json.loads(lines[4])
        perturbed["time"] = (perturbed.get("time") or 0.0) + 123.0
        lines[4] = json.dumps(perturbed, sort_keys=True)
        other = tmp_path / "perturbed.jsonl"
        other.write_text("\n".join(lines) + "\n")
        assert main(["trace", "diff", str(trace), str(other)]) == 1
        out = capsys.readouterr().out
        assert "first deterministic divergence at record 4" in out

    def test_digest_matches_recorded_digest(self, tmp_path, capsys):
        trace = self._record(tmp_path, "run.jsonl")
        recorded = capsys.readouterr().out.split("digest ")[-1].strip()
        assert main(["trace", "digest", str(trace)]) == 0
        assert capsys.readouterr().out.strip() == recorded

    def test_missing_trace_file_is_a_data_error(self, tmp_path, capsys):
        assert main(["trace", "report", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_trace_names_the_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"seq": 0, "name": "a"}\n{oops\n')
        assert main(["trace", "report", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_malformed_lineage_record_is_a_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"seq":0,"name":"tx.seen","attrs":{}}\n')
        assert main(["trace", "report", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad.jsonl" in err and "seq 0" in err and "attrs.tx" in err

    def test_malformed_saved_report_is_a_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        shards = {"loads": [{"blocks_forged": 3}], "traffic": {}, "imbalance": {}}
        bad.write_text(json.dumps({"report": 1, "title": "t", "shards": shards}))
        assert main(["trace", "report", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad.json" in err and "shards.loads[0]" in err and "'shard'" in err


class TestScenarioCommands:
    def test_list_names_all_five(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("takeover", "double-spend", "griefing", "eclipse", "adaptive"):
            assert name in out
        assert "Eq. 3" in out  # paper anchors ride along

    def test_run_prints_report_and_digest(self, capsys):
        assert main(["scenario", "run", "double-spend"]) == 0
        out = capsys.readouterr().out
        assert "safety_violated: False" in out
        assert "detected: True" in out
        assert "extras.blocked_pairs:" in out
        assert "trace digest " in out

    def test_run_writes_trace_and_json(self, tmp_path, capsys):
        trace = tmp_path / "ds.jsonl"
        report = tmp_path / "ds.json"
        assert main([
            "scenario", "run", "double-spend",
            "--trace", str(trace), "--json", str(report),
        ]) == 0
        out = capsys.readouterr().out
        assert "trace written to" in out and "report written to" in out
        first = json.loads(trace.read_text().splitlines()[0])
        assert "seq" in first and "name" in first
        payload = json.loads(report.read_text())
        for key in ("scenario", "seed", "safety_violated",
                    "detected", "time_to_detect", "extras"):
            assert key in payload

    def test_unknown_scenario_is_a_data_error(self, capsys):
        assert main(["scenario", "run", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario 'nosuch'" in err
        assert "takeover" in err  # the error lists what is available

    def test_small_sweep_within_tolerance(self, tmp_path, capsys):
        target = tmp_path / "sweep.json"
        assert main([
            "scenario", "sweep", "--points", "5:0.2", "--trials", "12",
            "--json", str(target),
        ]) == 0
        out = capsys.readouterr().out
        assert "empirical" in out and "Eq. 3" in out
        (point,) = json.loads(target.read_text())
        assert point["miners"] == 5
        assert point["within_tolerance"] is True

    def test_malformed_points_is_a_data_error(self, capsys):
        assert main(["scenario", "sweep", "--points", "bogus"]) == 2
        assert "miners:fraction" in capsys.readouterr().err
