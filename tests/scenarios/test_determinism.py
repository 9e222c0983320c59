"""Scenario determinism: (scenario, seed) pins the trace.

Same (scenario, seed) must yield bit-identical trace digests in-process
and across PR history (each scenario's seed-0 digest is recorded in
``tests/sim/seed_digests.json``); different seeds must vary the metrics
while the report schema stays fixed.
"""

import dataclasses
import functools
import json
import pathlib

import pytest

from repro.scenarios import DetectionReport, get_scenario, run_scenario, scenario_names

BASELINES = json.loads(
    (
        pathlib.Path(__file__).parents[1] / "sim" / "seed_digests.json"
    ).read_text()
)


@functools.cache
def _digest_and_report(name: str, seed: int):
    """One run per (scenario, seed), shared by the tests below."""
    outcome = run_scenario(get_scenario(name), seed=seed)
    return outcome.digest, outcome.report


@pytest.mark.parametrize("name", scenario_names())
def test_same_seed_same_digest_fast(name):
    second = run_scenario(get_scenario(name), seed=1)
    assert _digest_and_report(name, 1) == (second.digest, second.report)


@pytest.mark.parametrize("name", scenario_names())
def test_digest_matches_recorded(name):
    digest, __ = _digest_and_report(name, 0)
    assert digest == BASELINES[f"scenario-{name}"]


@pytest.mark.parametrize("name", scenario_names())
def test_different_seeds_vary_metrics_not_schema(name):
    a_digest, a_report = _digest_and_report(name, 0)
    b_digest, b_report = _digest_and_report(name, 2)
    assert a_digest != b_digest
    # Schema stability: same core keys, same extras keys, per scenario.
    a_dict, b_dict = a_report.as_dict(), b_report.as_dict()
    schema = {field.name for field in dataclasses.fields(DetectionReport)}
    assert set(a_dict) == set(b_dict) == schema
    assert set(a_dict["extras"]) == set(b_dict["extras"])


def test_takeover_seeds_change_time_to_detect():
    __, a = _digest_and_report("takeover", 0)
    __, b = _digest_and_report("takeover", 2)
    assert a.time_to_detect != b.time_to_detect
    # Both seeds still reach the same verdict at the default coalition.
    assert a.safety_violated and b.safety_violated
