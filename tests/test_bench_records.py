"""Stamping of the ``BENCH_<name>.json`` records the benchmarks write."""

import datetime
import json

from benchmarks.common import git_revision, utc_timestamp, write_bench_record


class TestStamping:
    def test_write_bench_record_stamps_rev_and_time(self, tmp_path):
        path = write_bench_record(
            "stampcheck", {"speedup": 2.0}, results_dir=tmp_path
        )
        record = json.loads(path.read_text())
        assert record["bench"] == "stampcheck"
        assert record["speedup"] == 2.0
        # Written inside this git checkout, so the rev must resolve.
        assert record["git_rev"] == git_revision()
        assert record["recorded_at"].endswith("+00:00")
        assert "environment" in record

    def test_utc_timestamp_is_iso8601_utc(self):
        parsed = datetime.datetime.fromisoformat(utc_timestamp())
        assert parsed.utcoffset() == datetime.timedelta(0)

    def test_git_revision_none_outside_a_checkout(self, tmp_path):
        assert git_revision(tmp_path) is None
