"""Trace analytics: profiles, causal lineage, and the trace diff."""

import json

import pytest

from repro.errors import SimulationError
from repro.observe import (
    Tracer,
    as_payloads,
    build_lineages,
    build_phase_profiles,
    diff_traces,
    read_jsonl,
    render_diff,
    render_profile,
    shard_latency_histograms,
)


def _payload(seq, name, **extra):
    payload = {"seq": seq, "name": name}
    payload.update(extra)
    return payload


def lineage_trace():
    """A small synthetic trace with a full and a pending lifecycle."""
    return [
        _payload(0, "workload.inject", time=0.0, phase="inject",
                 attrs={"txs": 3}),
        _payload(1, "tx.seen", time=0.5, phase="gossip", shard=1,
                 actor="m0", attrs={"tx": 0}),
        _payload(2, "tx.seen", time=0.7, phase="gossip", shard=2,
                 actor="m1", attrs={"tx": 1}),
        _payload(3, "block.forged", time=10.0, phase="mine", shard=1,
                 actor="m0", attrs={"height": 1, "txs": 1, "empty": False,
                                    "tx_idx": [0]}),
        _payload(4, "tx.confirmed", time=10.0, phase="confirm", shard=1,
                 attrs={"tx": 0}),
        _payload(5, "run.complete", time=20.0, phase="result",
                 attrs={"confirmed": 1},
                 wall={"events_fired": 12}),
    ]


class TestLineage:
    def test_full_lifecycle_reconstructed(self):
        lineages = build_lineages(lineage_trace())
        entry = lineages[0]
        assert entry.injected_at == 0.0
        assert entry.seen_at == 0.5
        assert entry.seen_shard == 1 and entry.seen_by == "m0"
        assert entry.included_at == 10.0 and entry.included_height == 1
        assert entry.confirmed_at == 10.0 and entry.confirmed_shard == 1
        assert entry.confirmed and entry.latency == 10.0
        assert entry.phase_times() == {
            "gossip": 0.5, "queue": 9.5, "confirm": 0.0,
        }

    def test_never_confirmed_transactions_stay_pending(self):
        lineages = build_lineages(lineage_trace())
        # tx 1 was seen but never included/confirmed; tx 2 only injected.
        assert len(lineages) == 3
        assert not lineages[1].confirmed
        assert lineages[1].seen_at == 0.7
        assert lineages[1].latency is None
        assert lineages[2].seen_at is None
        assert lineages[2].injected_at == 0.0
        assert lineages[2].phase_times() == {}

    def test_first_inclusion_wins_for_competing_blocks(self):
        trace = lineage_trace()
        trace.insert(4, _payload(9, "block.forged", time=12.0, phase="mine",
                                 shard=1, actor="m2",
                                 attrs={"height": 1, "tx_idx": [0]}))
        lineages = build_lineages(trace)
        assert lineages[0].included_at == 10.0
        assert lineages[0].included_by == "m0"

    def test_shard_latency_histograms_group_by_confirming_shard(self):
        hists = shard_latency_histograms(build_lineages(lineage_trace()))
        assert sorted(hists) == [1]
        assert hists[1].samples == [10.0]
        assert hists[1].percentile(99.0) == 10.0

    def test_empty_trace_has_no_lineages(self):
        assert build_lineages([]) == {}


class TestPhaseProfile:
    def test_per_phase_attribution(self):
        profiles = {p.phase: p for p in build_phase_profiles(lineage_trace())}
        assert profiles["gossip"].records == 2
        assert profiles["gossip"].sim_start == 0.5
        assert profiles["gossip"].sim_end == 0.7
        assert profiles["gossip"].sim_span == pytest.approx(0.2)
        assert profiles["result"].records == 1

    def test_wall_durations_summed_separately(self):
        payloads = [
            _payload(0, "a.end", phase="p", wall={"duration_s": 0.25}),
            _payload(1, "b.end", phase="p", wall={"duration_s": 0.5}),
            _payload(2, "c", phase="p"),
        ]
        profile = build_phase_profiles(payloads)[0]
        assert profile.wall_s == pytest.approx(0.75)
        assert profile.records == 3
        assert profile.sim_span == 0.0  # untimed records

    def test_render_profile_reports_latencies_and_pendings(self):
        text = render_profile(lineage_trace(), title="t")
        assert "3 tracked, 1 confirmed, 2 never confirmed" in text
        assert "p50" in text and "p99" in text
        assert "never confirmed: tx [1, 2]" in text

    def test_render_profile_empty_trace(self):
        assert "(empty trace)" in render_profile([], title="t")

    def test_render_profile_without_lineage_events(self):
        payloads = [_payload(0, "block.forged", phase="mine",
                             attrs={"height": 1})]
        assert "no lineage events" in render_profile(payloads)


class TestTraceDiff:
    def test_identical_traces_do_not_diverge(self):
        diff = diff_traces(lineage_trace(), lineage_trace())
        assert not diff.divergent
        assert diff.wall_only == 0
        text = render_diff(diff, lineage_trace(), lineage_trace())
        assert "no deterministic divergence" in text

    def test_wall_only_differences_are_not_divergence(self):
        left = lineage_trace()
        right = lineage_trace()
        right[-1] = dict(right[-1], wall={"events_fired": 15})
        diff = diff_traces(left, right)
        assert not diff.divergent
        assert diff.wall_only == 1
        text = render_diff(diff, left, right)
        assert "no deterministic divergence" in text
        assert "wall-clock sidecars" in text

    def test_perturbed_attr_pinpoints_record_and_field(self):
        left = lineage_trace()
        right = lineage_trace()
        right[3] = dict(right[3], attrs={"height": 2, "txs": 1,
                                         "empty": False, "tx_idx": [0]})
        diff = diff_traces(left, right)
        assert diff.divergent
        assert diff.index == 3
        assert diff.fields == ["attrs"]
        text = render_diff(diff, left, right, names=("a", "b"), window=1)
        assert "first deterministic divergence at record 3" in text
        assert ">> [3]" in text

    def test_time_perturbation_names_the_field(self):
        left = lineage_trace()
        right = lineage_trace()
        right[1] = dict(right[1], time=0.6)
        diff = diff_traces(left, right)
        assert diff.index == 1
        assert diff.fields == ["time"]

    def test_truncated_trace_diverges_at_missing_record(self):
        left = lineage_trace()
        right = lineage_trace()[:-2]
        diff = diff_traces(left, right)
        assert diff.divergent
        assert diff.index == len(right)
        assert diff.fields == ["<missing record>"]
        assert "<absent>" in render_diff(diff, left, right)

    def test_two_empty_traces_do_not_diverge(self):
        diff = diff_traces([], [])
        assert not diff.divergent


class TestPayloadSources:
    def test_as_payloads_accepts_tracer_and_dicts(self):
        tracer = Tracer()
        tracer.event("a", phase="p", k=1)
        tracer.event("b", wall={"duration_s": 0.1})
        payloads = as_payloads(tracer)
        assert payloads[0]["name"] == "a"
        assert payloads[1]["wall"] == {"duration_s": 0.1}
        assert as_payloads(payloads) is payloads or as_payloads(payloads) == payloads

    def test_as_payloads_reads_jsonl(self, tmp_path):
        tracer = Tracer()
        tracer.event("a", phase="p")
        path = tracer.write_jsonl(tmp_path / "t.jsonl")
        payloads = as_payloads(path)
        assert payloads[0]["name"] == "a"

    def test_corrupt_jsonl_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"seq": 0, "name": "a"})
            + "\n{\"seq\": 1, \"name\":\n"
        )
        with pytest.raises(SimulationError, match="line 2"):
            read_jsonl(path)

    def test_non_object_jsonl_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 0, "name": "a"}\n[1, 2]\n')
        with pytest.raises(SimulationError, match="line 2"):
            read_jsonl(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('\n{"seq": 0, "name": "a"}\n\n')
        assert len(read_jsonl(path)) == 1
