"""A CLI run SIGKILLed mid-trace resumes byte-identical.

A child process runs a ``simulate`` command and SIGKILLs itself as soon
as its one checkpoint is on disk, so the kill lands at the same row
every time; ``simulate --resume`` then finishes the run, and its
``--json`` statistics must equal the uninterrupted run's byte for byte.

The faulted run replays under a fault plan (an error window, then an
outage) on the object engine, checkpointing inside the outage, so its
resume starts with the device in BYPASS.  ``sievestore-c`` also carries
the object engine's batched cold rejections across the kill.  The run
without a plan replays on the fast engine, and a copy of its checkpoint
resumes on the object engine too.  The policy key (``aod-32``) differs
from its policy's own name (``aod``), so the ``policy_name`` checks see
whether a resume keeps the run's label.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.faults import DeviceHealth, ErrorWindow, FaultPlan, OutageWindow
from repro.sim.serialize import load_checkpoint

DAY = 86400.0
#: 14,583 rows; the outage covers rows 6,247-10,447.
TRACE = ["--scale", "2e-5", "--days", "3"]
#: The one checkpoint the child writes before it dies: inside the outage.
EVERY = 8000

#: Runs ``repro.cli.main`` on ``sys.argv[1:]``, SIGKILLing itself as
#: soon as the first checkpoint is written.
KILL_AFTER_CHECKPOINT = """
import os, signal, sys
from repro.cli import main
from repro.sim import serialize
save = serialize.save_checkpoint
def save_then_die(payload, path):
    save(payload, path)
    os.kill(os.getpid(), signal.SIGKILL)
serialize.save_checkpoint = save_then_die
sys.exit(main(sys.argv[1:]))
"""


@pytest.fixture
def trace_cache(tmp_path_factory, monkeypatch):
    """One trace cache for the parent and the child, out of the tree."""
    cache = tmp_path_factory.getbasetemp() / "kill-resume-trace-cache"
    monkeypatch.setenv("SIEVESTORE_TRACE_CACHE", str(cache))
    return cache


def kill_after_checkpoint(run, checkpoint):
    """Run the ``simulate`` command ``run`` in a child that checkpoints
    every :data:`EVERY` requests and SIGKILLs itself after the first."""
    src = Path(__file__).resolve().parents[2] / "src"
    child = subprocess.run(
        [sys.executable, "-c", KILL_AFTER_CHECKPOINT, *run,
         "--checkpoint", str(checkpoint), "--checkpoint-every", str(EVERY)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=subprocess.DEVNULL, timeout=120,
    )
    assert child.returncode == -signal.SIGKILL
    state = load_checkpoint(checkpoint)
    assert state["cursor"] == EVERY
    return state


def read_json(path):
    return json.loads(path.read_text())


def same_stats(a, b):
    return json.dumps(a["stats"], sort_keys=True) == json.dumps(b["stats"], sort_keys=True)


@pytest.mark.parametrize("policy", ["aod-32", "sievestore-c"])
def test_killed_faulted_run_resumes_byte_identical(policy, tmp_path,
                                                   trace_cache, capsys):
    plan = tmp_path / "plan.json"
    FaultPlan(
        errors=(ErrorWindow(0.5 * DAY, 1.0 * DAY, "read", 0.2),
                ErrorWindow(0.5 * DAY, 1.0 * DAY, "write", 0.2)),
        outages=(OutageWindow(1.5 * DAY, 2.0 * DAY),),
        seed=3,
    ).save_json(plan)
    run = ["simulate", *TRACE, "--policy", policy, "--fault-plan", str(plan)]
    assert main([*run, "--json", str(tmp_path / "uninterrupted.json")]) == 0

    checkpoint = tmp_path / "faulted.ckpt"
    state = kill_after_checkpoint(run, checkpoint)
    assert state["appliance"].faults.health is DeviceHealth.BYPASS

    assert main(["simulate", "--resume", str(checkpoint),
                 "--json", str(tmp_path / "resumed.json")]) == 0
    capsys.readouterr()
    uninterrupted = read_json(tmp_path / "uninterrupted.json")
    resumed = read_json(tmp_path / "resumed.json")
    assert uninterrupted["stats"]["degraded_seconds"] > 0
    assert uninterrupted["stats"]["bypass_seconds"] > 0
    assert resumed["engine"] == "object"
    assert uninterrupted["policy_name"] == resumed["policy_name"] == policy
    assert same_stats(resumed, uninterrupted)


def test_killed_run_resumes_on_either_engine(tmp_path, trace_cache, capsys):
    run = ["simulate", *TRACE, "--policy", "aod-32"]
    assert main([*run, "--json", str(tmp_path / "uninterrupted.json")]) == 0
    checkpoint = tmp_path / "run.ckpt"
    kill_after_checkpoint(run, checkpoint)
    shutil.copy(checkpoint, tmp_path / "run-object.ckpt")

    assert main(["simulate", "--resume", str(checkpoint),
                 "--json", str(tmp_path / "resumed.json")]) == 0
    assert main(["simulate", "--resume", str(tmp_path / "run-object.ckpt"),
                 "--resume-engine", "object",
                 "--json", str(tmp_path / "resumed-object.json")]) == 0
    capsys.readouterr()
    uninterrupted = read_json(tmp_path / "uninterrupted.json")
    assert uninterrupted["engine"] == "fast"
    assert uninterrupted["policy_name"] == "aod-32"
    for name, engine in (("resumed.json", "fast"), ("resumed-object.json", "object")):
        resumed = read_json(tmp_path / name)
        assert resumed["engine"] == engine, name
        assert resumed["policy_name"] == "aod-32", name
        assert same_stats(resumed, uninterrupted), name
