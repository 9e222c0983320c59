"""Tests for repro.observe.tracer and the export helpers."""

import json

import pytest

from repro.errors import ConfigError
from repro.observe import (
    RunReport,
    TraceRecord,
    Tracer,
    digest_of_jsonl,
    get_tracer,
    read_jsonl,
    resolve_tracer,
    trace_digest,
    use_tracer,
)


@pytest.fixture(autouse=True)
def _clean_tracer_state(monkeypatch):
    """Tests here poke the process-wide active tracer; isolate them."""
    import repro.observe.tracer as tracer_mod

    monkeypatch.setattr(tracer_mod, "_ACTIVE", None)


class TestTraceRecord:
    def test_identity_excludes_wall_and_none_fields(self):
        record = TraceRecord(
            seq=3,
            name="block.forged",
            time=1.25,
            shard=2,
            attrs={"txs": 5},
            wall={"duration_s": 0.01},
        )
        identity = record.identity()
        assert identity == {
            "seq": 3,
            "name": "block.forged",
            "time": 1.25,
            "shard": 2,
            "attrs": {"txs": 5},
        }
        assert "wall" not in identity
        assert "phase" not in identity

    def test_to_json_is_canonical(self):
        record = TraceRecord(seq=0, name="e", attrs={"b": 1, "a": 2})
        parsed = json.loads(record.to_json())
        assert parsed == {"seq": 0, "name": "e", "attrs": {"b": 1, "a": 2}}
        # sorted keys, compact separators
        assert record.to_json().startswith('{"attrs":{"a":2,"b":1}')

    def test_to_json_can_drop_wall(self):
        record = TraceRecord(seq=0, name="e", wall={"duration_s": 0.5})
        assert "wall" in record.to_json()
        assert "wall" not in record.to_json(include_wall=False)


class TestTracer:
    def test_event_assigns_sequence_numbers(self):
        tracer = Tracer()
        first = tracer.event("a")
        second = tracer.event("b", shard=1, time=1.0)
        assert (first.seq, second.seq) == (0, 1)
        assert (first.time, second.time) == (None, 1.0)
        assert len(tracer) == 2

    def test_count_filters_by_name_and_phase(self):
        tracer = Tracer()
        tracer.event("a", phase="mine")
        tracer.event("a", phase="leader")
        tracer.event("b", phase="mine")
        assert tracer.count() == 3
        assert tracer.count(name="a") == 2
        assert tracer.count(phase="mine") == 2
        assert tracer.count(name="a", phase="mine") == 1
        assert tracer.records_named("b")[0].phase == "mine"

    def test_digest_ignores_wall_sidecar(self):
        one, two = Tracer(), Tracer()
        one.event("e", txs=3, wall={"duration_s": 0.001})
        two.event("e", txs=3, wall={"duration_s": 99.0})
        assert one.digest() == two.digest()
        assert len(one.digest()) == 64  # sha256 hex

    def test_digest_sees_attrs(self):
        one, two = Tracer(), Tracer()
        one.event("e", txs=3)
        two.event("e", txs=4)
        assert one.digest() != two.digest()

    def test_span_emits_begin_end_with_wall_duration(self):
        tracer = Tracer()
        with tracer.span("build", phase="setup"):
            tracer.event("inner")
        names = [r.name for r in tracer.records]
        assert names == ["build.begin", "inner", "build.end"]
        end = tracer.records[-1]
        assert end.phase == "setup"
        assert end.wall["duration_s"] >= 0.0

    def test_span_emits_end_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("build"):
                raise RuntimeError("boom")
        assert [r.name for r in tracer.records] == ["build.begin", "build.end"]

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        tracer.event("a", time=1.0, shard=2, txs=5, wall={"duration_s": 0.1})
        tracer.event("b", phase="mine")
        path = tracer.write_jsonl(tmp_path / "trace.jsonl")
        rows = read_jsonl(path)
        assert [r["name"] for r in rows] == ["a", "b"]
        assert rows[0]["wall"] == {"duration_s": 0.1}

    def test_digest_of_jsonl_matches_live_digest(self, tmp_path):
        tracer = Tracer()
        tracer.event("a", txs=1, wall={"duration_s": 0.25})
        tracer.event("b", shard=3)
        path = tracer.write_jsonl(tmp_path / "trace.jsonl")
        assert digest_of_jsonl(path) == tracer.digest()
        # and the wall-free export digests identically too
        bare = tracer.write_jsonl(tmp_path / "bare.jsonl", include_wall=False)
        assert digest_of_jsonl(bare) == tracer.digest()

    def test_trace_digest_of_empty_stream(self):
        assert trace_digest([]) == Tracer().digest()

    def test_summary_renders(self):
        tracer = Tracer()
        tracer.event("block.forged", phase="mine", shard=0, time=2.0, txs=4)
        text = RunReport.from_run(tracer, title="unit").render()
        assert text.startswith(f"[unit] 1 records, digest {tracer.digest()}")
        assert "  mine " in text
        assert "protocol.blocks_forged = 1" in text


class TestActiveTracer:
    def test_off_by_default(self):
        assert get_tracer() is None

    def test_use_tracer_scopes_and_nests(self):
        outer, inner = Tracer(), Tracer()
        with use_tracer(outer):
            assert get_tracer() is outer
            with use_tracer(inner):
                assert get_tracer() is inner
            assert get_tracer() is outer
        assert get_tracer() is None

    def test_use_tracer_restores_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with use_tracer(tracer):
                raise RuntimeError("boom")
        assert get_tracer() is None


class TestResolveTracer:
    def test_tracer_passes_through(self):
        tracer = Tracer()
        assert resolve_tracer(tracer) is tracer

    def test_true_builds_fresh_tracer(self):
        a, b = resolve_tracer(True), resolve_tracer(True)
        assert isinstance(a, Tracer) and isinstance(b, Tracer)
        assert a is not b

    def test_false_is_off_even_inside_scope(self):
        with use_tracer(Tracer()):
            assert resolve_tracer(False) is None

    def test_none_joins_active_scope_else_off(self):
        assert resolve_tracer(None) is None
        with use_tracer(Tracer()) as active:
            assert resolve_tracer(None) is active
        assert resolve_tracer(None) is None

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            resolve_tracer("yes")
