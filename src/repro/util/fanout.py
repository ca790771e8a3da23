"""One process fan-out: named tasks in, one record and one payload each out.

Every parallel shape in the simulator — many policies over one trace,
one policy over many shards — is a list of independent, named tasks
handed to the same top-level worker function.  :func:`run_tasks` is the
single place that turns such a list into results, and it degrades
instead of raising:

* ``jobs == 1`` runs every task in-process (executor ``"serial"``, no
  pool, no retry) — the reference the pooled runs are compared against;
* otherwise the tasks go to a ``ProcessPoolExecutor`` whose workers
  build their per-process state once with the caller's ``initializer``;
  a task that raises (or outlives ``task_timeout``) is resubmitted
  **once** (:data:`MAX_ATTEMPTS`), and a second failure becomes a
  :class:`PolicyFailure` next to the completed results;
* a dead worker (``BrokenProcessPool``) routes every not-yet-collected
  task through the same worker function in-process (executor
  ``"serial-fallback"``) — collected pool results are kept.

One worker function serves both sides of the process boundary: it is
handed the initializer's return value in a pool worker and the caller's
own state in-process (see :func:`run_tasks`).

For CI and testing, the ``SIEVESTORE_FAULT_INJECT`` environment
variable (format ``mode:task[:arg]``) injects failures into the named
task: ``raise`` fails it every time, ``crash`` hard-kills the worker
process (``os._exit``; in-process it degrades to a raise),
``flaky:task:marker-path`` fails only the first execution (exercising
the retry path), and ``hang:task:seconds`` sleeps in the worker
(exercising ``task_timeout``).  Unset means zero effect.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsSnapshot

#: Environment variable enabling fault injection (``mode:task[:arg]``).
FAULT_ENV_VAR = "SIEVESTORE_FAULT_INJECT"

#: Attempts per task: the initial run plus one bounded retry.
MAX_ATTEMPTS = 2

#: Bounds for parent-side wait on one task's result (seconds).
_WAIT_BUCKETS = (
    0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 15.0, 60.0, 300.0, 1800.0,
)

#: A worker's answer: the engine that ran (a record label) + the payload.
WorkerResult = Tuple[Optional[str], Any]

#: Per-process worker state, installed by the pool initializer.
_WORKER_STATE: Any = None


class InjectedWorkerFault(RuntimeError):
    """Raised by the fault-injection hook (testing/CI only)."""


@dataclass(frozen=True)
class Task:
    """One unit of work: a unique name plus the worker's picklable args.

    ``fault_plan`` and ``checkpoint`` are copied into the task's
    :class:`TaskRecord` whatever its outcome.
    """

    name: str
    args: Tuple[Any, ...]
    fault_plan: Optional[str] = None
    checkpoint: Optional[Dict[str, Any]] = None


@dataclass
class TaskRecord:
    """One task's execution record (a manifest row)."""

    policy: str
    outcome: str  # "ok" | "failed" | "timeout"
    engine: Optional[str]  # "fast" | "object"; None when the task failed
    wall_seconds: float
    retries: int
    worker_pid: Optional[int]
    executor: str  # "pool" | "serial" | "serial-fallback"
    error: Optional[str] = None
    #: fingerprint of the task's fault plan (None without a plan).
    fault_plan: Optional[str] = None
    #: checkpoint metadata ({"path", "every"}; None when not checkpointing).
    checkpoint: Optional[Dict[str, Any]] = None
    #: JSON-safe metrics snapshot (manifest v3 only; None keeps the
    #: manifest byte-identical to v2).
    metrics: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        """The manifest row: the fields above, in that order."""
        data = asdict(self)
        data["wall_seconds"] = round(self.wall_seconds, 6)
        if self.metrics is None:
            del data["metrics"]
        return data


@dataclass
class PolicyFailure:
    """Structured record of a task that could not be completed."""

    policy: str
    error_type: str
    message: str
    retries: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.policy}: {self.error_type}: {self.message} "
            f"(after {self.retries} retr{'y' if self.retries == 1 else 'ies'})"
        )


@dataclass
class FanoutRun:
    """What :func:`run_tasks` hands back.

    ``records`` holds one row per task and ``payloads`` one entry per
    *successful* task, both in task order; ``failures`` holds the rest.
    ``metrics`` is the merged run-level snapshot (``None`` when
    collection was off).
    """

    records: Dict[str, TaskRecord]
    payloads: Dict[str, Any]
    failures: Dict[str, PolicyFailure]
    pool_broken: bool
    metrics: Optional[MetricsSnapshot]


def default_jobs() -> int:
    """Worker count when the caller asks for 'all cores'.

    Prefers the process's scheduling affinity mask
    (``os.sched_getaffinity``) over ``os.cpu_count()``: in
    cgroup/affinity-limited containers and CI runners the machine may
    expose many more cores than this process is allowed to run on, and
    oversubscribing them just adds contention.  Falls back to
    ``cpu_count`` on platforms without affinity support (macOS,
    Windows).
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            affinity = len(getaffinity(0))
        except OSError:
            affinity = 0
        if affinity:
            return affinity
    return max(1, os.cpu_count() or 1)


def _maybe_inject_fault(name: str, in_worker: bool) -> None:
    """Apply the ``SIEVESTORE_FAULT_INJECT`` spec to task ``name``.

    No-op unless the env var is set and names this task.  ``crash``
    only hard-exits inside a worker process — in-process (parent)
    execution raises instead, so fault injection can never take the
    caller's process down.
    """
    spec = os.environ.get(FAULT_ENV_VAR)
    if not spec:
        return
    parts = spec.split(":", 2)
    mode = parts[0].strip().lower()
    arg = parts[2] if len(parts) > 2 else None
    if len(parts) < 2 or parts[1] != name:
        return
    if mode == "crash":
        if in_worker:
            os._exit(70)
        raise InjectedWorkerFault(
            f"injected crash for {name!r} (serial execution)"
        )
    if mode == "raise":
        raise InjectedWorkerFault(f"injected failure for {name!r}")
    if mode == "flaky":
        if not arg:
            raise ValueError(
                "flaky fault injection needs a marker path: "
                "SIEVESTORE_FAULT_INJECT=flaky:policy:/path/to/marker"
            )
        try:
            with open(arg, "x"):
                pass
        except FileExistsError:
            return  # already fired once; succeed from now on
        raise InjectedWorkerFault(f"injected one-shot failure for {name!r}")
    if mode == "hang":
        time.sleep(float(arg) if arg else 3600.0)
        return
    raise ValueError(f"unknown fault-injection mode {mode!r} in {FAULT_ENV_VAR}")


def _execute(
    worker: Callable[..., WorkerResult],
    state: Any,
    name: str,
    args: Tuple[Any, ...],
    collect_metrics: bool,
    in_worker: bool,
) -> Tuple[int, float, Optional[str], Any, Optional[MetricsSnapshot]]:
    """Run one task here; both sides of the process boundary call this."""
    started = time.perf_counter()
    _maybe_inject_fault(name, in_worker)
    snapshot = None
    if collect_metrics:
        from repro.obs.runtime import scoped_registry

        with scoped_registry() as obs_context:
            engine, payload = worker(state, *args)
            snapshot = obs_context.registry.snapshot()
    else:
        engine, payload = worker(state, *args)
    return os.getpid(), time.perf_counter() - started, engine, payload, snapshot


def _init_pool_worker(
    initializer: Callable[..., Any], initargs: Tuple[Any, ...]
) -> None:
    global _WORKER_STATE
    # Set once per worker process by the pool initializer; tasks only
    # ever read it.  This is the sanctioned worker-global idiom.
    _WORKER_STATE = initializer(*initargs)  # sievelint: disable=SVL008 -- read-only afterwards


def _run_in_pool_worker(
    worker: Callable[..., WorkerResult],
    name: str,
    args: Tuple[Any, ...],
    collect_metrics: bool,
) -> Tuple[int, float, Optional[str], Any, Optional[MetricsSnapshot]]:
    return _execute(
        worker, _WORKER_STATE, name, args, collect_metrics, in_worker=True
    )


def run_tasks(
    tasks: Sequence[Task],
    *,
    worker: Callable[..., WorkerResult],
    local_state: Any,
    initializer: Callable[..., Any],
    initargs: Tuple[Any, ...],
    jobs: int,
    task_timeout: Optional[float],
    collect_metrics: Optional[bool],
    on_task_done: Optional[Callable[[TaskRecord], None]],
    noun: Tuple[str, str],
) -> FanoutRun:
    """Run every task once and report on each (see the module docs).

    Args:
        tasks: uniquely named tasks, in reporting order.
        worker: top-level function called as ``worker(state, *task.args)``
            returning ``(engine, payload)``; it must pickle by reference.
        local_state: the ``state`` handed to ``worker`` in-process.
        initializer: top-level function called once per pool worker as
            ``initializer(*initargs)``; its return value is that
            process's ``state``.
        jobs: worker processes; ``1`` means in-process, no pool.
        task_timeout: seconds to wait for one pooled task's result
            before retrying it (and, on a second timeout, recording a
            ``"timeout"`` failure).  ``None`` waits forever.
        collect_metrics: run each task under a scoped metrics registry;
            ``None`` follows the process-wide observability switch.
        on_task_done: receives each :class:`TaskRecord` as it is made.
        noun: (singular, plural) naming the tasks in the serial-fallback
            warning.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    from repro.obs import metrics as obs_metrics
    from repro.obs import runtime as obs_runtime

    collect = (
        obs_runtime.enabled() if collect_metrics is None else collect_metrics
    )
    registry = obs_metrics.MetricsRegistry() if collect else None

    records: Dict[str, TaskRecord] = {}
    payloads: Dict[str, Any] = {}
    failures: Dict[str, PolicyFailure] = {}
    attempts: Dict[str, int] = {task.name: 0 for task in tasks}
    pool_broken = False

    def finish(
        task: Task,
        executor: str,
        waited: float,
        pid: Optional[int],
        wall: float,
        engine: Optional[str] = None,
        payload: Any = None,
        snapshot: Optional[MetricsSnapshot] = None,
        error: Optional[Tuple[str, str, str]] = None,
    ) -> None:
        """File one task's final outcome: its record, its payload or
        failure (``error`` is outcome, error type, message), the run
        metrics and the progress hook."""
        retries = attempts[task.name] - 1
        outcome, text = "ok", None
        if error is None:
            payloads[task.name] = payload
        else:
            outcome, error_type, message = error
            text = message if outcome == "timeout" else f"{error_type}: {message}"
            failures[task.name] = PolicyFailure(
                task.name, error_type, message, retries
            )
        record = records[task.name] = TaskRecord(
            policy=task.name, outcome=outcome, engine=engine, wall_seconds=wall,
            retries=retries, worker_pid=pid, executor=executor, error=text,
            fault_plan=task.fault_plan, checkpoint=task.checkpoint,
            metrics=snapshot.to_jsonable() if snapshot is not None else None,
        )
        if registry is not None:
            if snapshot is not None:
                registry.merge_snapshot(snapshot)
            registry.counter(
                "suite_tasks_total",
                "Suite tasks by outcome and executor",
                ("outcome", "executor"),
            ).inc(outcome=outcome, executor=executor)
            if retries:
                registry.counter(
                    "suite_retries_total",
                    "Task retries (second submissions)",
                    ("policy",),
                ).inc(retries, policy=task.name)
            registry.histogram(
                "suite_task_wait_seconds",
                "Parent wall time waiting on one task's result",
                ("executor",),
                buckets=_WAIT_BUCKETS,
            ).observe(waited, executor=executor)
        if on_task_done is not None:
            on_task_done(record)

    def run_here(task: Task, executor: str) -> None:
        attempts[task.name] += 1
        started = time.perf_counter()
        try:
            pid, wall, engine, payload, snapshot = _execute(
                worker, local_state, task.name, task.args, collect,
                in_worker=False,
            )
        except Exception as exc:
            wall = time.perf_counter() - started
            error = ("failed", type(exc).__name__, str(exc))
            finish(task, executor, wall, os.getpid(), wall, error=error)
        else:
            finish(task, executor, wall, pid, wall, engine, payload, snapshot)

    if jobs == 1 or not tasks:
        for task in tasks:
            run_here(task, "serial")
    else:
        serial_queue: List[Task] = []
        timed_out = False
        pool = ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks)),
            initializer=_init_pool_worker,
            initargs=(initializer, initargs),
        )

        def submit(task: Task) -> Optional[Future[Any]]:
            """One more attempt through the pool; None if spent/broken."""
            nonlocal pool_broken
            if pool_broken or attempts[task.name] >= MAX_ATTEMPTS:
                return None
            try:
                future = pool.submit(
                    _run_in_pool_worker, worker, task.name, task.args, collect
                )
            except BrokenProcessPool:
                pool_broken = True
                return None
            attempts[task.name] += 1
            return future

        try:
            futures = {task.name: submit(task) for task in tasks}
            for task in tasks:
                future = None if pool_broken else futures[task.name]
                while future is not None:
                    wait_started = time.perf_counter()
                    try:
                        outcome = future.result(timeout=task_timeout)
                    except BrokenProcessPool:
                        # The worker died (or the pool collapsed around
                        # this future); the task's retry — and every
                        # later task — runs serially in-process.
                        pool_broken = True
                        future = None
                    except Exception as exc:
                        error = ("failed", type(exc).__name__, str(exc))
                        if isinstance(exc, _FuturesTimeout):
                            timed_out = True
                            future.cancel()
                            error = (
                                "timeout", "TimeoutError",
                                f"task exceeded {task_timeout}s timeout",
                            )
                        future = submit(task)
                        if future is None and attempts[task.name] >= MAX_ATTEMPTS:
                            waited = time.perf_counter() - wait_started
                            finish(task, "pool", waited, None, waited, error=error)
                            break
                    else:
                        waited = time.perf_counter() - wait_started
                        finish(task, "pool", waited, *outcome)
                        break
                else:
                    serial_queue.append(task)
        finally:
            # A timed-out task is still running in its worker; don't
            # block shutdown on it (the zombie exits when it finishes).
            pool.shutdown(wait=not timed_out, cancel_futures=True)

        if serial_queue:
            warnings.warn(
                f"worker pool broke; running {len(serial_queue)} remaining "
                f"{noun[len(serial_queue) != 1]} serially in-process: "
                f"{', '.join(task.name for task in serial_queue)}",
                RuntimeWarning,
                stacklevel=3,
            )
            for task in serial_queue:
                run_here(task, "serial-fallback")

    snapshot = None
    if registry is not None:
        snapshot = registry.snapshot()
        parent = obs_runtime.get_registry()
        if parent is not None:
            parent.merge_snapshot(snapshot)
    return FanoutRun(
        records={t.name: records[t.name] for t in tasks},
        payloads={t.name: payloads[t.name] for t in tasks if t.name in payloads},
        failures=failures,
        pool_broken=pool_broken,
        metrics=snapshot,
    )
