"""Smoke test of the benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest bench -q

Runs all four workloads, end-to-end and traced, at ``--scale 0.02`` and checks
the printed names against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re

import pytest

from bench import ensure_repro_importable

ensure_repro_importable()

from bench import report  # noqa: E402  (needs src/ on the path)
from bench.__main__ import main  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "result.json"
    code = main(["--scale", "0.02", "--seed", "5", "--out", str(out)])
    assert code == 0
    return json.loads(out.read_text())


def test_names_equal_the_declaration(result):
    declared_workloads = {w["name"] for w in report.BENCHMARK["workloads"]}
    assert set(result["workloads"]) == declared_workloads
    for runs in result["workloads"].values():
        assert set(runs["end_to_end"]["metrics"]) == set(report.END_TO_END)
        assert set(runs["per_layer"]["metrics"]) == set(report.PER_LAYER)
    for name in [*declared_workloads, *report.END_TO_END, *report.PER_LAYER]:
        assert NAME.fullmatch(name), name


def test_every_run_is_correct_and_nothing_failed(result):
    for workload, runs in result["workloads"].items():
        for run in runs.values():
            assert run["correct"], (workload, run["gate"])
            assert run["failed_ops_share"] == 0
            assert run["attempted"] >= 1
        for name, value in runs["end_to_end"]["metrics"].items():
            assert value["value"] > 0, (workload, name)


def test_result_carries_environment_units_and_directions(result):
    environment = result["environment"]
    for key in ("cpus", "python", "platform", "event_loop", "git_commit", "seed"):
        assert key in environment
    assert "uvloop" not in environment["event_loop"]
    for runs in result["workloads"].values():
        for run in runs.values():
            for value in run["metrics"].values():
                assert value["unit"] and value["better"] in ("lower", "higher")


def test_the_papers_two_claims_hold(result):
    layers = result["workloads"]["sim_paper"]["per_layer"]["metrics"]
    assert layers["sim.cost_saved_vs_lru_pct"]["value"] > 0


def test_compare_with_itself_is_all_within(result):
    rows = report.compare(result, result)
    assert len(rows) == len(report.END_TO_END) * len(result["workloads"])
    # a tiny run's own segments may spread wider than a bound; never `worse`
    assert {row["verdict"] for row in rows} <= {"within", "unresolved"}
    assert all(row["ratio"] == 1.0 for row in rows)
