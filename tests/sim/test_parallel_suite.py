"""Parallel policy-suite execution equals the serial reference run."""

import json

import pytest

from repro.faults import FaultPlan, OutageWindow
from repro.sim.experiment import run_policy_suite
from repro.sim.parallel import MANIFEST_SCHEMA_VERSION, default_jobs

#: A small but representative slice: oracle, discrete sieve, unsieved.
SUITE = ("ideal", "sievestore-d", "aod-16")


@pytest.fixture(scope="module")
def serial_results(tiny_context):
    return run_policy_suite(
        tiny_context, SUITE, track_minutes=True, fast_path=True, jobs=1
    )


def assert_suites_equal(parallel, serial):
    assert set(parallel) == set(serial)
    for name in serial:
        assert parallel[name].policy_name == serial[name].policy_name
        assert (serial[name].engine, parallel[name].engine) == ("fast", "fast")
        assert parallel[name].stats.per_day == serial[name].stats.per_day
        assert (
            parallel[name].stats.per_minute == serial[name].stats.per_minute
        )


def test_two_workers_match_serial(tiny_context, serial_results):
    parallel = run_policy_suite(
        tiny_context, SUITE, track_minutes=True, fast_path=True, jobs=2
    )
    assert_suites_equal(parallel, serial_results)


def test_all_cores_match_serial(tiny_context, serial_results):
    parallel = run_policy_suite(
        tiny_context, SUITE, track_minutes=True, fast_path=True, jobs=None
    )
    assert_suites_equal(parallel, serial_results)


def test_object_path_through_workers(tiny_context):
    # fast_path=False in the workers must also equal the serial run.
    serial = run_policy_suite(
        tiny_context, ("aod-16",), track_minutes=False, fast_path=False, jobs=1
    )
    parallel = run_policy_suite(
        tiny_context, ("aod-16",), track_minutes=False, fast_path=False, jobs=2
    )
    assert (serial["aod-16"].engine, parallel["aod-16"].engine) == (
        "object", "object"
    )
    assert (
        parallel["aod-16"].stats.per_day == serial["aod-16"].stats.per_day
    )


def test_results_keyed_in_request_order(tiny_context):
    names = ("aod-16", "ideal")
    results = run_policy_suite(
        tiny_context, names, track_minutes=False, fast_path=True, jobs=2
    )
    assert list(results) == list(names)


def test_invalid_jobs_rejected(tiny_context):
    with pytest.raises(ValueError):
        run_policy_suite(tiny_context, SUITE, fast_path=True, jobs=-1)


@pytest.mark.parametrize("jobs", [0, -3])
def test_nonpositive_jobs_rejected_not_run_serially(tiny_context, jobs):
    with pytest.raises(ValueError, match="jobs must be positive"):
        run_policy_suite(tiny_context, ("aod-16",), jobs=jobs)


def test_default_jobs_positive():
    assert default_jobs() >= 1


class TestManifestMetadata:
    """Manifest schema v2: per-task fault-plan and checkpoint metadata."""

    def test_fields_default_to_none(self, tiny_context):
        results = run_policy_suite(
            tiny_context, ("aod-16",), track_minutes=False, jobs=1
        )
        assert results.manifest["schema"] == MANIFEST_SCHEMA_VERSION
        (task,) = results.manifest["tasks"]
        assert task["fault_plan"] is None
        assert task["checkpoint"] is None

    def test_records_plan_fingerprint_and_checkpoint(self, tiny_context,
                                                     tmp_path):
        plan = FaultPlan(outages=(OutageWindow(1e9,),))  # beyond the trace
        results = run_policy_suite(
            tiny_context, ("aod-16", "ideal"), track_minutes=False, jobs=1,
            fault_plan=plan, checkpoint_dir=tmp_path, checkpoint_every=5000,
        )
        for task in results.manifest["tasks"]:
            assert task["fault_plan"] == plan.fingerprint()
            assert task["checkpoint"] == {
                "path": str(tmp_path / f"{task['policy']}.ckpt"),
                "every": 5000,
            }
        # The per-task checkpoint files were actually written.
        assert (tmp_path / "aod-16.ckpt").exists()

    def test_serial_run_records_no_task_timeout(self, tiny_context):
        # Nothing times out an in-process task, so the serial manifest
        # says so whatever the caller passed.
        results = run_policy_suite(
            tiny_context, ("aod-16",), track_minutes=False, jobs=1,
            task_timeout=60.0,
        )
        assert results.manifest["task_timeout"] is None

    def test_manifest_serialization_round_trip(self, tiny_context, tmp_path):
        plan = FaultPlan(outages=(OutageWindow(1e9,),))
        results = run_policy_suite(
            tiny_context, ("aod-16",), track_minutes=False, jobs=1,
            fault_plan=plan, checkpoint_dir=tmp_path / "ckpts",
        )
        path = tmp_path / "manifest.json"
        results.save_manifest(path)
        assert json.loads(path.read_text()) == results.manifest
