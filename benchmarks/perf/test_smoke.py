"""Smoke test of the benchmark: every declared metric comes out, once.

Runs the whole suite in ``--smoke`` mode (one input, one set-up, one
repetition per workload, plus the traced run) in a subprocess and
checks the plumbing, not the numbers:
``pytest benchmarks/perf -q`` with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from benchmarks.perf import REPO_ROOT, runner, spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _tree() -> set:
    """Repo-root entries plus everything under benchmarks/ and the trace cache."""
    listed = {path.name for path in REPO_ROOT.iterdir()}
    for sub in ("benchmarks", ".sievestore-trace-cache"):
        listed |= {
            str(path.relative_to(REPO_ROOT))
            for path in (REPO_ROOT / sub).rglob("*")
            if "__pycache__" not in path.parts
        }
    return {entry for entry in listed if entry not in ("__pycache__", ".pytest_cache")}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("perf-smoke")
    output = tmp / "result.json"
    before = _tree()
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    finished = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "--smoke", "--traced",
         "--output", str(output)],
        cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=120,
    )
    assert finished.returncode == 0, finished.stdout + finished.stderr
    created = _tree() - before
    return json.loads(output.read_text()), finished.stdout, created


def test_benchmark_json_names_are_well_formed():
    bench = spec.load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), name
    assert tuple(w["name"] for w in bench["workloads"]) == spec.WORKLOADS
    assert any(m["name"] == "setup_s" for m in bench["end_to_end"])
    assert len(bench["per_layer"]) <= 128


def test_every_end_to_end_metric_once_per_applicable_workload(smoke):
    result, stdout, _ = smoke
    assert result["comparable"] is False
    (one_set,) = result["sets"]
    assert tuple(one_set["workloads"]) == spec.WORKLOADS
    metrics = spec.end_to_end_metrics()
    assert len(metrics) == 9
    for workload, record in one_set["workloads"].items():
        assert record["correct"] and record["failed"] == 0, record["problems"]
        expected = {m.name for m in metrics if m.applies_to(workload)}
        block = stdout.split(f"\n{workload}  (", 1)[1].split("\n\n", 1)[0]
        printed = re.findall(r"^  (\S+) ", block, re.M)
        # printed by name exactly once in this workload's block
        assert sorted(printed) == sorted(expected), workload
        # the driver reads each of its four from every workload, never 0
        for name in spec.driver_end_to_end():
            assert record["metrics"][name]["value"] > 0, name


def test_every_per_layer_metric_once_and_span_parents_resolve(smoke):
    result, _, _ = smoke
    declared = [m.name for m in spec.per_layer_metrics()]
    touched = set()
    for workload in spec.WORKLOADS:
        record = result["traced"][workload]
        assert record["correct"], record["problems"]
        assert list(record["metrics"]) == declared, workload
        touched |= {name for name, m in record["metrics"].items() if m["value"]}
        ids = {span["id"] for span in record["spans"]}
        assert len(ids) == len(record["spans"])
        for span in record["spans"]:
            assert span["parent"] is None or span["parent"] in ids
            assert span["end"] >= span["start"]
            assert NAME.fullmatch(span["name"]), span["name"]
            assert span["run_id"].startswith(workload)
    # Every declared layer metric is exercised by at least one workload
    # (the three failure counters are zero on a healthy run).
    idle = set(declared) - touched
    healthy = {"sim.parallel.retries", "sim.parallel.failed_tasks", "failed_share"}
    assert idle <= healthy, sorted(idle)


def test_no_file_created_outside_the_temp_dirs(smoke):
    _, _, created = smoke
    assert created == set(), created
    assert not runner.WORK_ROOT.exists(), "work directories are removed"


def test_smoke_results_may_not_go_under_results(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    finished = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "--smoke",
         "--output", str(REPO_ROOT / "benchmarks/perf/results/BENCH_smoke.json")],
        cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert finished.returncode != 0
    assert "non-comparable" in finished.stderr
