"""The rolling digest and the streaming sink (bounded-memory tracing)."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.observe.export import digest_of_jsonl, trace_digest
from repro.observe.report import RunReport
from repro.observe.tracer import Tracer


def _emit_some(tracer: Tracer, n: int) -> None:
    for i in range(n):
        tracer.event(
            "step", time=float(i), phase="p", shard=i % 3, k=i,
            wall={"noise": i},
        )


class TestRollingDigest:
    def test_matches_batch_digest(self):
        tracer = Tracer()
        _emit_some(tracer, 25)
        assert tracer.digest() == trace_digest(tracer.records)

    def test_digest_is_readable_mid_stream(self):
        tracer = Tracer()
        _emit_some(tracer, 3)
        first = tracer.digest()
        _emit_some(tracer, 3)
        assert tracer.digest() != first
        assert tracer.digest() == trace_digest(tracer.records)

    def test_count_from_tally(self):
        tracer = Tracer()
        _emit_some(tracer, 10)
        tracer.event("other", phase="q")
        assert tracer.count("step") == 10
        assert tracer.count(phase="p") == 10
        assert tracer.count("other", phase="q") == 1
        assert tracer.count() == 11


class TestSinkMode:
    def test_spills_beyond_buffer_limit(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=sink, buffer_limit=8)
        _emit_some(tracer, 30)
        assert tracer.spilled >= 24
        assert len(tracer.records) < 8
        assert len(tracer) == 30
        assert tracer.count("step") == 30

    def test_sink_file_is_the_complete_trace(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=sink, buffer_limit=4)
        _emit_some(tracer, 13)
        digest = tracer.digest()
        assert tracer.finish_sink() == sink
        assert len(sink.read_text().splitlines()) == 13
        # The exported file recomputes to the same wall-excluding digest.
        assert digest_of_jsonl(sink) == digest

    def test_digest_identical_to_unsinked_run(self, tmp_path):
        plain = Tracer()
        sunk = Tracer(sink=tmp_path / "t.jsonl", buffer_limit=2)
        _emit_some(plain, 9)
        _emit_some(sunk, 9)
        assert sunk.digest() == plain.digest()

    def test_record_apis_refuse_after_spill(self, tmp_path):
        tracer = Tracer(sink=tmp_path / "t.jsonl", buffer_limit=2)
        _emit_some(tracer, 5)
        with pytest.raises(SimulationError, match="streamed"):
            tracer.records_named("step")
        with pytest.raises(SimulationError, match="streamed"):
            tracer.to_jsonl()
        with pytest.raises(SimulationError, match="streamed"):
            tracer.write_jsonl(tmp_path / "elsewhere.jsonl")

    def test_summary_survives_spill(self, tmp_path):
        tracer = Tracer(sink=tmp_path / "t.jsonl", buffer_limit=2)
        _emit_some(tracer, 7)
        assert tracer.spilled and tracer.records  # mid-run: file + tail
        report = RunReport.from_run(tracer)
        assert report.records == 7
        assert report.phases[0]["records"] == 7
        assert (report.phases[0]["sim_start"], report.phases[0]["sim_end"]) == (
            0.0,
            6.0,
        )
        assert "7 records" in report.render()

    def test_finish_sink_requires_a_sink(self):
        with pytest.raises(ConfigError):
            Tracer().finish_sink()

    def test_buffer_limit_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigError):
            Tracer(sink=tmp_path / "t.jsonl", buffer_limit=0)
