"""Tests for the python -m repro command-line interface."""

import json
import pathlib

import pytest

from repro.__main__ import main


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

    def test_record_then_profile(self, tmp_path, capsys):
        trace = self._record(tmp_path, "run.jsonl")
        out = capsys.readouterr().out
        assert "digest" in out
        assert main(["trace", "profile", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "per-phase attribution" in out
        assert "transaction lineage" in out

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
        assert main(["trace", "profile", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_trace_names_the_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"seq": 0, "name": "a"}\n{oops\n')
        assert main(["trace", "profile", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err


class TestBenchCommands:
    RESULTS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "results"

    def test_history_over_committed_results(self, capsys):
        assert main(["bench", "history"]) == 0
        out = capsys.readouterr().out
        assert "benchmark records:" in out

    def test_check_passes_on_committed_results(self, capsys):
        assert main(["bench", "check"]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out

    def test_check_fails_on_injected_regression(self, tmp_path, capsys):
        def degrade(node):
            # Only *tracked* speedups count — "informational" keys (e.g.
            # parallel-vs-serial on a 1-CPU host) are excluded from the
            # gate on purpose, so degrading them must not trip it.
            found = False
            if isinstance(node, dict):
                for key, value in node.items():
                    if (
                        isinstance(value, (int, float))
                        and not isinstance(value, bool)
                        and "speedup" in key
                        and "informational" not in key
                    ):
                        node[key] = value * 0.5
                        found = True
                    elif isinstance(value, (dict, list)):
                        found = degrade(value) or found
            elif isinstance(node, list):
                for value in node:
                    found = degrade(value) or found
            return found

        for source in sorted(self.RESULTS.glob("BENCH_*.json")):
            record = json.loads(source.read_text())
            if degrade(record):
                break
        else:
            raise AssertionError("no record with a tracked speedup metric")
        candidate_dir = tmp_path / "candidate"
        candidate_dir.mkdir()
        (candidate_dir / source.name).write_text(json.dumps(record))
        assert (
            main(["bench", "check", "--candidate", str(candidate_dir)]) == 1
        )
        out = capsys.readouterr().out
        assert "REGRESSED" in out

    def test_check_errors_on_empty_baseline_dir(self, tmp_path, capsys):
        assert main(["bench", "check", "--baseline", str(tmp_path)]) == 2
        assert "no BENCH_*.json records" in capsys.readouterr().err


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
