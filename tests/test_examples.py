"""Smoke tests: every shipped example runs end to end.

Examples are part of the public surface; they must keep working as the
library evolves. Each is executed in-process via runpy so failures carry
full tracebacks, once per session: tests that read an example's output
share that run.
"""

import contextlib
import functools
import io
import json
import pathlib
import runpy

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))

BASELINES = json.loads(
    (pathlib.Path(__file__).parent / "sim" / "seed_digests.json").read_text()
)


@functools.cache
def _output(script: str) -> str:
    """The stdout of one in-process run of an example."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    return buffer.getvalue()


def test_examples_directory_populated():
    assert len(EXAMPLES) >= 4
    assert "quickstart.py" in EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script):
    assert _output(script).strip(), f"{script} produced no output"


def test_quickstart_reports_improvement():
    out = _output("quickstart.py")
    assert "Throughput improvement" in out
    assert "MaxShard" in out


def test_adversarial_audit_rejects_cheaters():
    out = _output("adversarial_audit.py")
    assert "blocks rejected network-wide" in out
    assert "cheating block follows selection: False" in out


def test_telemetry_example_matches_recorded_digest():
    """The 96-miner Zipf paced stream, heartbeats on, reproduces the
    ``zipf-stream`` digest recorded with telemetry off."""
    (line,) = [
        line
        for line in _output("telemetry.py").splitlines()
        if line.startswith("trace digest ")
    ]
    assert line.split()[2] == BASELINES["zipf-stream"]
