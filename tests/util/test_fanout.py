"""The fan-out driver on toy tasks: no trace, no simulator, seconds."""

import os
import tempfile
import time
import warnings
from pathlib import Path

import pytest

from repro.util import fanout
from repro.util.fanout import FAULT_ENV_VAR, Task, run_tasks


def _init(tag):
    return f"pool:{tag}"


def _toy(state, mode, arg=None):
    """Worker: ``(engine, payload)``; the payload names the state used."""
    if mode == "raise":
        raise ValueError("boom")
    if mode == "raise-once":
        try:
            Path(arg).touch(exist_ok=False)
        except FileExistsError:
            return "toy", (state, "recovered")
        raise ValueError("first attempt")
    if mode == "sleep":
        time.sleep(arg)
    if mode == "crash-in-child":
        parent_pid, collected = arg
        if os.getpid() != parent_pid:
            while not Path(collected).exists():
                time.sleep(0.01)
            os._exit(1)
    return "toy", (state, mode)


def _run(tasks, jobs, task_timeout=None, on_task_done=None):
    return run_tasks(
        tasks,
        worker=_toy,
        local_state="local",
        initializer=_init,
        initargs=("x",),
        jobs=jobs,
        task_timeout=task_timeout,
        collect_metrics=False,
        on_task_done=on_task_done,
        noun=("toy", "toys"),
    )


def test_ok_tasks_come_back_in_task_order_from_pool_state():
    tasks = [Task(name, ("ok",)) for name in ("c", "a", "b")]
    run = _run(tasks, jobs=2)
    assert list(run.records) == list(run.payloads) == ["c", "a", "b"]
    assert not run.failures and not run.pool_broken and run.metrics is None
    for name, record in run.records.items():
        assert run.payloads[name] == ("pool:x", "ok")
        assert (record.policy, record.outcome, record.engine) == (name, "ok", "toy")
        assert (record.executor, record.retries) == ("pool", 0)
        assert record.worker_pid not in (None, os.getpid())


def test_raise_then_ok_spends_the_one_retry(tmp_path):
    seen = []
    tasks = [
        Task("flaky", ("raise-once", str(tmp_path / "marker"))),
        Task("fine", ("ok",)),
    ]
    run = _run(tasks, jobs=2, on_task_done=seen.append)
    assert not run.failures
    assert run.payloads["flaky"] == ("pool:x", "recovered")
    assert run.records["flaky"].retries == 1
    assert run.records["fine"].retries == 0
    assert [record.policy for record in seen] == ["flaky", "fine"]


def test_raise_twice_is_a_failure_record_not_an_exception():
    tasks = [
        Task("bad", ("raise",), fault_plan="fp", checkpoint={"path": "p"}),
        Task("fine", ("ok",)),
    ]
    run = _run(tasks, jobs=2)
    assert list(run.payloads) == ["fine"]
    failure = run.failures["bad"]
    assert (failure.error_type, failure.message, failure.retries) == (
        "ValueError", "boom", fanout.MAX_ATTEMPTS - 1,
    )
    record = run.records["bad"]
    assert (record.outcome, record.error) == ("failed", "ValueError: boom")
    assert (record.executor, record.worker_pid, record.engine) == (
        "pool", None, None,
    )
    # Task annotations reach the record whatever the outcome.
    assert (record.fault_plan, record.checkpoint) == ("fp", {"path": "p"})


def test_timeout_twice_is_a_timeout_record():
    tasks = [Task("slow", ("sleep", 1.0)), Task("fine", ("ok",))]
    run = _run(tasks, jobs=2, task_timeout=0.2)
    assert run.payloads == {"fine": ("pool:x", "ok")}
    record = run.records["slow"]
    assert (record.outcome, record.retries) == ("timeout", 1)
    assert record.error == "task exceeded 0.2s timeout"
    assert run.failures["slow"].error_type == "TimeoutError"


def test_worker_crash_keeps_collected_results(tmp_path):
    collected = tmp_path / "first-collected"
    tasks = [
        Task("first", ("ok",)),
        Task("dies", ("crash-in-child", (os.getpid(), str(collected)))),
        Task("queued", ("ok",)),
    ]
    with pytest.warns(RuntimeWarning) as caught:
        run = _run(
            tasks, jobs=2,
            on_task_done=lambda record: collected.touch(),
        )
    assert [str(w.message) for w in caught] == [
        "worker pool broke; running 2 remaining toys serially in-process: "
        "dies, queued"
    ]
    assert run.pool_broken and not run.failures
    assert list(run.payloads) == ["first", "dies", "queued"]
    # The result collected before the crash is the pool's, untouched.
    assert run.payloads["first"] == ("pool:x", "ok")
    assert run.records["first"].executor == "pool"
    # Everything after it re-ran in-process against the local state.
    assert run.payloads["dies"] == ("local", "crash-in-child")
    assert run.records["dies"].executor == "serial-fallback"
    assert run.records["dies"].retries == 1
    assert run.records["dies"].worker_pid == os.getpid()
    assert run.records["queued"].executor == "serial-fallback"


def test_single_task_fallback_warning_is_singular(monkeypatch):
    monkeypatch.setenv(FAULT_ENV_VAR, "crash:only")
    with pytest.warns(RuntimeWarning, match="1 remaining toy serially"):
        run = _run([Task("only", ("ok",))], jobs=2)
    # In-process the injected crash degrades to a raise.
    assert run.failures["only"].error_type == "InjectedWorkerFault"
    assert run.records["only"].executor == "serial-fallback"


def test_jobs_one_builds_no_pool_and_writes_nothing(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("jobs=1 must not build a pool")

    monkeypatch.setattr(fanout, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    tasks = [Task("a", ("ok",)), Task("b", ("raise",))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = _run(tasks, jobs=1, task_timeout=0.001)
    assert run.payloads == {"a": ("local", "ok")}
    assert run.records["a"].executor == "serial"
    assert run.records["a"].worker_pid == os.getpid()
    # No retry in-process: the reference path runs each task once.
    assert run.records["b"].retries == 0
    assert run.failures["b"].error_type == "ValueError"
    assert list(tmp_path.iterdir()) == []


def test_no_tasks_and_bad_jobs():
    run = _run([], jobs=4)
    assert run.records == {} and run.payloads == {} and not run.pool_broken
    with pytest.raises(ValueError, match="jobs must be positive"):
        _run([Task("a", ("ok",))], jobs=0)
