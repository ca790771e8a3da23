"""Fault tolerance of the parallel suite runner.

A long multi-config sweep must survive one sick task: worker crashes
degrade to in-process serial execution, task exceptions get one bounded
retry and then a structured failure record, and every surviving
policy's statistics stay bit-identical to a serial run.  Fault
injection rides the ``SIEVESTORE_FAULT_INJECT`` env var (worker
processes inherit it), which is also how CI exercises this path.
"""

import json
import os

import pytest

from repro.sim.experiment import run_policy_suite
from repro.sim.parallel import (
    FAULT_ENV_VAR,
    MANIFEST_SCHEMA_VERSION,
    PolicyFailure,
    SuiteRun,
    default_jobs,
)

SUITE = ("ideal", "sievestore-d", "aod-16")


@pytest.fixture(scope="module")
def serial_reference(tiny_context):
    return run_policy_suite(
        tiny_context, SUITE, track_minutes=True, fast_path=True, jobs=1
    )


def assert_matches_serial(run, serial, names):
    for name in names:
        assert run[name].stats.per_day == serial[name].stats.per_day
        assert run[name].stats.per_minute == serial[name].stats.per_minute


class TestInjectedTaskFailure:
    def test_partial_results_and_failure_record(
        self, tiny_context, serial_reference, monkeypatch
    ):
        monkeypatch.setenv(FAULT_ENV_VAR, "raise:sievestore-d")
        run = run_policy_suite(
            tiny_context, SUITE, track_minutes=True, fast_path=True, jobs=2
        )
        assert set(run) == {"ideal", "aod-16"}
        assert not run.ok
        failure = run.failures["sievestore-d"]
        assert isinstance(failure, PolicyFailure)
        assert failure.error_type == "InjectedWorkerFault"
        assert failure.retries == 1  # one bounded retry was spent
        assert_matches_serial(run, serial_reference, ("ideal", "aod-16"))
        outcomes = {t["policy"]: t["outcome"] for t in run.manifest["tasks"]}
        assert outcomes == {
            "ideal": "ok", "sievestore-d": "failed", "aod-16": "ok",
        }


class TestInjectedWorkerCrash:
    def test_serial_fallback_preserves_survivors(
        self, tiny_context, serial_reference, monkeypatch
    ):
        monkeypatch.setenv(FAULT_ENV_VAR, "crash:sievestore-d")
        with pytest.warns(RuntimeWarning, match="worker pool broke"):
            run = run_policy_suite(
                tiny_context, SUITE, track_minutes=True, fast_path=True,
                jobs=2,
            )
        # Every surviving policy completed (pool or serial fallback),
        # bit-identical to the serial run; the dead one is recorded.
        assert set(run) == {"ideal", "aod-16"}
        assert "sievestore-d" in run.failures
        assert run.manifest["pool_broken"] is True
        assert_matches_serial(run, serial_reference, ("ideal", "aod-16"))
        executors = {t["policy"]: t["executor"] for t in run.manifest["tasks"]}
        # The crashed policy's retry necessarily ran in-process.
        assert executors["sievestore-d"] == "serial-fallback"


class TestFlakyTaskRetry:
    def test_one_shot_failure_retries_to_success(
        self, tiny_context, serial_reference, tmp_path, monkeypatch
    ):
        marker = tmp_path / "flaky-marker"
        monkeypatch.setenv(FAULT_ENV_VAR, f"flaky:aod-16:{marker}")
        run = run_policy_suite(
            tiny_context, SUITE, track_minutes=True, fast_path=True, jobs=2
        )
        assert run.ok
        assert set(run) == set(SUITE)
        assert marker.exists()  # the fault did fire once
        records = {t["policy"]: t for t in run.manifest["tasks"]}
        assert records["aod-16"]["retries"] == 1
        assert records["aod-16"]["outcome"] == "ok"
        assert records["ideal"]["retries"] == 0
        assert_matches_serial(run, serial_reference, SUITE)


class TestTaskTimeout:
    def test_hung_task_times_out_with_failure_record(
        self, tiny_context, monkeypatch
    ):
        # The hang must outlast both timeout windows (first attempt +
        # retry), and the timeout must leave the healthy task plenty of
        # room for worker startup on a loaded single-core machine.
        monkeypatch.setenv(FAULT_ENV_VAR, "hang:aod-16:10.0")
        run = run_policy_suite(
            tiny_context, ("ideal", "aod-16"), track_minutes=False,
            fast_path=True, jobs=2, task_timeout=2.0,
        )
        assert "ideal" in run
        failure = run.failures["aod-16"]
        assert failure.error_type == "TimeoutError"
        assert failure.retries == 1
        records = {t["policy"]: t for t in run.manifest["tasks"]}
        assert records["aod-16"]["outcome"] == "timeout"


class TestNamesHygiene:
    def test_duplicates_deduped_preserving_order(self, tiny_context):
        run = run_policy_suite(
            tiny_context, ("aod-16", "aod-16", "ideal", "aod-16"),
            track_minutes=False, fast_path=True, jobs=2,
        )
        assert list(run) == ["aod-16", "ideal"]
        assert run.manifest["requested"] == [
            "aod-16", "aod-16", "ideal", "aod-16",
        ]
        assert run.manifest["names"] == ["aod-16", "ideal"]
        assert len(run.manifest["tasks"]) == 2

    def test_empty_names_returns_empty_without_pool(self, tiny_context):
        run = run_policy_suite(tiny_context, (), fast_path=True, jobs=4)
        assert len(run) == 0
        assert run.ok
        assert run.manifest["tasks"] == []


class TestDefaultJobs:
    def test_prefers_scheduling_affinity(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        assert default_jobs() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert default_jobs() == 5

    def test_affinity_error_falls_back(self, monkeypatch):
        def broken(pid):
            raise OSError("no affinity support")

        monkeypatch.setattr(os, "sched_getaffinity", broken, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert default_jobs() == 4


class TestManifest:
    def test_schema_and_save(self, tiny_context, tmp_path):
        run = run_policy_suite(
            tiny_context, ("aod-16",), track_minutes=False,
            fast_path=True, jobs=2,
        )
        path = tmp_path / "manifest.json"
        run.save_manifest(path)
        manifest = json.loads(path.read_text())
        assert manifest == run.manifest
        assert manifest["schema"] == MANIFEST_SCHEMA_VERSION
        assert manifest["pool_broken"] is False
        (task,) = manifest["tasks"]
        assert task["policy"] == "aod-16"
        assert task["outcome"] == "ok"
        assert task["engine"] == "fast"
        assert task["executor"] == "pool"
        assert task["retries"] == 0
        assert task["worker_pid"] not in (None, os.getpid())
        assert task["wall_seconds"] > 0

    def test_engine_records_object_path(self, tiny_context):
        run = run_policy_suite(
            tiny_context, ("aod-16",), track_minutes=False,
            fast_path=False, jobs=2,
        )
        (task,) = run.manifest["tasks"]
        assert task["engine"] == "object"
        assert run["aod-16"].engine == "object"


class TestSerialSuiteRun:
    def test_jobs_one_returns_suite_run(self, tiny_context):
        run = run_policy_suite(
            tiny_context, ("aod-16",), track_minutes=False, jobs=1
        )
        assert isinstance(run, SuiteRun)
        assert run.ok
        (task,) = run.manifest["tasks"]
        assert task["executor"] == "serial"
        assert task["worker_pid"] == os.getpid()

    def test_serial_failures_are_recorded_not_raised(
        self, tiny_context, monkeypatch
    ):
        monkeypatch.setenv(FAULT_ENV_VAR, "raise:aod-16")
        run = run_policy_suite(
            tiny_context, ("ideal", "aod-16"), track_minutes=False,
            fast_path=False, jobs=1,
        )
        assert "ideal" in run
        assert run.failures["aod-16"].error_type == "InjectedWorkerFault"
