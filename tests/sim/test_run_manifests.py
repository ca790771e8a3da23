"""Run manifests are a byte-level contract: keys, order and values.

The expected documents below were produced by the runners as they were
before the fan-out driver existed; ``wall_seconds`` and ``worker_pid``
are the only fields a rerun may change, so they are masked.
"""

import json

import pytest

from repro.sim.experiment import run_policy_suite
from repro.sim.parallel import FAULT_ENV_VAR, run_sharded_replay
from repro.traces import tiny_config
from repro.traces.segments import segment_columnar
from repro.traces.synthetic import EnsembleTraceGenerator

SUITE_KEYS = [
    "schema", "requested", "names", "jobs", "track_minutes", "fast_path",
    "task_timeout", "pool_broken", "wall_seconds", "tasks",
]
TASK_KEYS = [
    "policy", "outcome", "engine", "wall_seconds", "retries", "worker_pid",
    "executor", "error", "fault_plan", "checkpoint",
]


def masked_text(manifest) -> str:
    def mask(value):
        if isinstance(value, dict):
            return {
                key: "MASK" if key in ("wall_seconds", "worker_pid") else mask(item)
                for key, item in value.items()
            }
        if isinstance(value, list):
            return [mask(item) for item in value]
        return value

    return json.dumps(mask(manifest), indent=2)


def task(policy, executor="pool", retries=0, checkpoint=None, **changes):
    record = {
        "policy": policy, "outcome": "ok", "engine": "fast",
        "wall_seconds": "MASK", "retries": retries, "worker_pid": "MASK",
        "executor": executor, "error": None, "fault_plan": None,
        "checkpoint": checkpoint,
    }
    record.update(changes)
    return record


def test_suite_manifest_schema_2_bytes(tiny_context, tmp_path):
    run = run_policy_suite(
        tiny_context, ("ideal", "aod-16", "ideal"), track_minutes=False,
        fast_path=True, jobs=2, task_timeout=60.0, checkpoint_dir=tmp_path,
        checkpoint_every=5000,
    )
    expected = {
        "schema": 2,
        "requested": ["ideal", "aod-16", "ideal"],
        "names": ["ideal", "aod-16"],
        "jobs": 2,
        "track_minutes": False,
        "fast_path": True,
        "task_timeout": 60.0,
        "pool_broken": False,
        "wall_seconds": "MASK",
        "tasks": [
            task(name, checkpoint={
                "path": str(tmp_path / f"{name}.ckpt"), "every": 5000,
            })
            for name in ("ideal", "aod-16")
        ],
    }
    assert masked_text(run.manifest) == json.dumps(expected, indent=2)


def test_serial_suite_failure_manifest_bytes(tiny_context, monkeypatch):
    monkeypatch.setenv(FAULT_ENV_VAR, "raise:aod-16")
    run = run_policy_suite(
        tiny_context, ("aod-16",), track_minutes=False, fast_path=False,
        jobs=1,
    )
    expected = {
        "schema": 2,
        "requested": ["aod-16"],
        "names": ["aod-16"],
        "jobs": 1,
        "track_minutes": False,
        "fast_path": False,
        "task_timeout": None,
        "pool_broken": False,
        "wall_seconds": "MASK",
        "tasks": [task(
            "aod-16", executor="serial", outcome="failed", engine=None,
            error="InjectedWorkerFault: injected failure for 'aod-16'",
        )],
    }
    assert masked_text(run.manifest) == json.dumps(expected, indent=2)


def test_suite_manifest_schema_3_layout(tiny_context):
    run = run_policy_suite(
        tiny_context, ("aod-16", "sievestore-c"), track_minutes=False,
        fast_path=True, jobs=2, collect_metrics=True,
    )
    manifest = run.manifest
    assert manifest["schema"] == 3
    assert list(manifest) == SUITE_KEYS + ["metrics"]
    for record in manifest["tasks"]:
        assert list(record) == TASK_KEYS + ["metrics"]
        assert "sim_requests_total" in record["metrics"]
    # Worker snapshots merge first, the driver's own counters after.
    names = list(manifest["metrics"])
    assert names.index("sim_requests_total") < names.index("suite_tasks_total")
    assert names.index("suite_tasks_total") < names.index(
        "suite_task_wait_seconds"
    )
    assert manifest["metrics"] == run.metrics.to_jsonable()


@pytest.fixture(scope="module")
def seg_store(tmp_path_factory):
    columns = EnsembleTraceGenerator(tiny_config(days=3)).generate_columnar()
    directory = tmp_path_factory.mktemp("manifest-shards") / "store"
    return segment_columnar(columns, directory, rows_per_segment=4000)


def test_sharded_manifest_schema_1_bytes(seg_store, tmp_path, monkeypatch):
    monkeypatch.setenv(FAULT_ENV_VAR, f"flaky:shard-1:{tmp_path / 'marker'}")
    run = run_sharded_replay(
        seg_store, "sievestore-c", days=3, scale=1e-4, shards=4, jobs=2,
        track_minutes=False, chunk_rows=2500,
    )
    expected = {
        "schema": 1,
        "kind": "sharded-replay",
        "policy": "sievestore-c",
        "shards": 4,
        "names": ["shard-0", "shard-1", "shard-2", "shard-3"],
        "jobs": 2,
        "track_minutes": False,
        "fast_path": True,
        "chunk_rows": 2500,
        "task_timeout": None,
        "pool_broken": False,
        "wall_seconds": "MASK",
        "tasks": [
            task("shard-0"), task("shard-1", retries=1),
            task("shard-2"), task("shard-3"),
        ],
    }
    assert masked_text(run.manifest) == json.dumps(expected, indent=2)
