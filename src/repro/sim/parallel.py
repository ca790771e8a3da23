"""Parallel policy-suite execution over one shared columnar trace.

The Figure 5 suite replays the *same* trace through nine independent
policy configurations; nothing flows between the runs, so they
parallelize perfectly.  This module defines the two task shapes the
evaluation needs and hands both to the one fan-out driver,
:func:`repro.util.fanout.run_tasks`, which owns retries, timeouts, the
serial fallback, per-task metrics and ``SIEVESTORE_FAULT_INJECT``:

* :func:`~repro.sim.experiment.run_policy_suite` — many policies over
  one trace.  The parent serializes the columnar trace once to a
  temporary ``.npz`` file (cheaper than pickling the trace per task);
  each worker loads it once and rebuilds the
  :class:`~repro.sim.experiment.ExperimentContext` (per-day block
  counts recomputed vectorized, asserted identical to the reference by
  the test suite); each task pickles its full
  :class:`~repro.sim.engine.SimulationResult` back.
* :func:`run_sharded_replay` — one policy over server-disjoint shards
  of a segment store, workers opening the segments by path.

Results are deterministic and equal to a serial run: every worker sees
the same trace bytes, the same seeds, and the same oracle inputs.  Each
run carries a JSON-serializable **run manifest** recording every task's
engine, wall seconds, retries, worker pid, and outcome (schema in the
README).
"""

from __future__ import annotations

import os
import tempfile
import time
import warnings
from collections import OrderedDict
from collections.abc import Mapping
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.sim import engine as _engine
from repro.sim.engine import DEFAULT_CHECKPOINT_EVERY, SimulationResult
from repro.traces.columnar import ColumnarTrace
from repro.util.atomic import write_json_atomic
from repro.util.fanout import (  # noqa: F401 - public names re-exported
    FAULT_ENV_VAR,
    MAX_ATTEMPTS,
    FanoutRun,
    InjectedWorkerFault,
    PolicyFailure,
    Task,
    TaskRecord,
    default_jobs,
    run_tasks,
)

#: Bump on manifest layout changes; consumers refuse unknown versions.
#: v2 added per-task ``fault_plan`` (plan fingerprint) and
#: ``checkpoint`` (path + cadence) metadata.
MANIFEST_SCHEMA_VERSION = 2

#: Manifest schema emitted when metrics collection is on: v3 adds a
#: per-task ``"metrics"`` snapshot and a suite-level ``"metrics"``
#: block.  Runs without observability keep emitting v2 byte-identically.
MANIFEST_SCHEMA_VERSION_METRICS = 3

#: Bump on sharded-replay manifest layout changes; consumers refuse
#: unknown versions.
SHARD_MANIFEST_VERSION = 1

#: Key order of a run manifest; each kind of run emits the keys it has.
_MANIFEST_KEYS = (
    "schema", "kind", "policy", "shards", "requested", "names", "jobs",
    "track_minutes", "fast_path", "chunk_rows", "task_timeout",
    "pool_broken", "wall_seconds", "tasks", "metrics",
)


def _build_manifest(
    schema: int,
    extra: dict,
    run: FanoutRun,
    jobs: int,
    track_minutes: bool,
    fast_path: bool,
    task_timeout: Optional[float],
    wall_seconds: float,
) -> dict:
    """The run manifest: the shared keys plus the caller's ``extra``."""
    manifest = {
        "schema": schema,
        "names": list(run.records),
        "jobs": jobs,
        "track_minutes": track_minutes,
        "fast_path": fast_path,
        "task_timeout": task_timeout,
        "pool_broken": run.pool_broken,
        "wall_seconds": round(wall_seconds, 6),
        "tasks": [record.to_dict() for record in run.records.values()],
    }
    if run.metrics is not None:
        manifest["metrics"] = run.metrics.to_jsonable()
    manifest.update(extra)
    return {
        key: manifest[key]
        for key in sorted(manifest, key=_MANIFEST_KEYS.index)
    }


def _checkpoint_meta(checkpoint_dir, name: str, checkpoint_every) -> Optional[dict]:
    """Per-task checkpoint manifest metadata (None when not checkpointing)."""
    if checkpoint_dir is None:
        return None
    return {
        "path": str(Path(checkpoint_dir) / f"{name}.ckpt"),
        "every": (
            checkpoint_every
            if checkpoint_every is not None
            else DEFAULT_CHECKPOINT_EVERY
        ),
    }


# ---------------------------------------------------------------------------
# Policy suite: many policies, one shared trace.
# ---------------------------------------------------------------------------


def _init_worker(trace_path: str, days: int, scale: float, seed: int):
    """Pool initializer: this worker's context, from the handed-off trace."""
    from repro.sim.experiment import context_for_trace

    columns = ColumnarTrace.load_npz(trace_path)
    return context_for_trace(columns, days=days, scale=scale, seed=seed)


def _run_one(ctx, name: str, options: dict):
    """Suite task: run one policy against this process's context."""
    from repro.sim.experiment import run_policy

    result = run_policy(name, ctx, **options)
    return result.engine, result


@dataclass(eq=False, repr=False)
class SuiteRun(Mapping):
    """Results of one policy-suite run, with partial-failure visibility.

    Behaves as a read-only mapping ``{policy name -> SimulationResult}``
    over the *successful* runs (iteration order matches the requested
    order), so existing ``dict``-shaped callers keep working.  On top of
    that:

    * :attr:`failures` maps failed policy names to
      :class:`PolicyFailure` records — a failed task never discards the
      completed ones;
    * :attr:`manifest` is the JSON-serializable run manifest (one
      :class:`TaskRecord` row per task; see the README for the schema);
    * :attr:`metrics` is the suite's merged
      :class:`~repro.obs.metrics.MetricsSnapshot` when metrics
      collection was on (``None`` otherwise);
    * :attr:`ok` is True when every requested policy produced a result.
    """

    results: "OrderedDict[str, SimulationResult]"
    failures: Dict[str, PolicyFailure]
    manifest: dict
    metrics: Optional[object] = None

    def __getitem__(self, name: str) -> SimulationResult:
        return self.results[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def ok(self) -> bool:
        """True when no policy failed."""
        return not self.failures

    def save_manifest(self, path: Union[str, Path]) -> None:
        """Write the run manifest as indented JSON (atomically)."""
        write_json_atomic(path, self.manifest)


def _run_suite(
    ctx, names, jobs, task_timeout, checkpoint_dir, collect_metrics,
    on_task_done, **options,
) -> SuiteRun:
    """One task per distinct policy name, through the fan-out driver:
    the body of :func:`~repro.sim.experiment.run_policy_suite`.

    ``options`` are the :func:`~repro.sim.experiment.run_policy` keyword
    arguments every task shares.
    """
    started = time.perf_counter()
    requested = list(names)
    # Duplicate work costs the same result twice under dict keying —
    # run each config once, in first-occurrence order.
    unique = list(dict.fromkeys(requested))
    fault_plan = options["fault_plan"]
    plan_fp = fault_plan.fingerprint() if fault_plan is not None else None
    tasks = []
    for name in unique:
        meta = _checkpoint_meta(checkpoint_dir, name, options["checkpoint_every"])
        path = meta["path"] if meta else None
        tasks.append(Task(
            name, (name, {**options, "checkpoint_path": path}),
            fault_plan=plan_fp, checkpoint=meta,
        ))
    with ExitStack() as stack:
        initargs: tuple = ()
        if jobs > 1 and tasks:
            # Pool workers rebuild the context from one trace hand-off.
            tmpdir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="sievestore-suite-")
            )
            trace_path = os.path.join(tmpdir, "trace.npz")
            ctx.columnar_trace().save_npz(trace_path)
            initargs = (trace_path, ctx.days, ctx.scale, ctx.seed)
        run = run_tasks(
            tasks,
            worker=_run_one,
            local_state=ctx,
            initializer=_init_worker,
            initargs=initargs,
            jobs=jobs,
            task_timeout=task_timeout,
            collect_metrics=collect_metrics,
            on_task_done=on_task_done,
            noun=("policy", "policies"),
        )
    manifest_extra = {"requested": requested}
    manifest = _build_manifest(
        MANIFEST_SCHEMA_VERSION_METRICS
        if run.metrics is not None
        else MANIFEST_SCHEMA_VERSION,
        manifest_extra, run, jobs=jobs,
        track_minutes=options["track_minutes"],
        fast_path=options["fast_path"], task_timeout=task_timeout,
        wall_seconds=time.perf_counter() - started,
    )
    return SuiteRun(
        OrderedDict(run.payloads), run.failures, manifest, metrics=run.metrics
    )


# ---------------------------------------------------------------------------
# Shard-level replay: one policy, the trace partitioned across workers.
# ---------------------------------------------------------------------------


def shard_task_names(shards: int) -> List[str]:
    """Deterministic task names (``shard-0`` … ``shard-N-1``).

    These are the names :data:`FAULT_ENV_VAR` keys on for sharded
    replay (``SIEVESTORE_FAULT_INJECT=flaky:shard-2:/tmp/marker``) and
    the stems of per-shard checkpoint files.
    """
    return [f"shard-{index}" for index in range(shards)]


def _init_shard_worker(store_dir: str):
    """Pool initializer: workers open segments by path — the parent
    never pickles trace rows."""
    from repro.traces.segments import SegmentStore

    return SegmentStore.open(store_dir)


def _replay_shard(
    store,
    shard: int,
    shards: int,
    policy_name: str,
    days: int,
    scale: float,
    seed: int,
    track_minutes: bool,
    fast_path: bool,
    chunk_rows: Optional[int],
    epoch_seconds: Optional[float],
    checkpoint_path: Optional[str],
    checkpoint_every: Optional[int],
) -> tuple:
    """Shard task: replay one shard, resuming from its checkpoint.

    Each shard is a closed sub-ensemble (every block of a server lives
    on exactly one shard), provisioned at ``scale / shards`` — the same
    per-server cache share as the unsharded configuration, so
    ``shards=1`` reproduces the unsharded run bit for bit.  When the
    shard's checkpoint file already exists — a retried task, or a whole
    coordinator rerun after a crash — the run resumes from it instead
    of starting over; an unusable checkpoint falls back to a fresh run
    with a warning rather than failing the shard.

    Ships back only the engine name and the per-shard
    :class:`CacheStats` — the merged statistics are the product;
    per-shard cache/policy objects never cross the process boundary.
    """
    from repro.sim.experiment import ExperimentContext, run_policy
    from repro.sim.serialize import CheckpointError

    view = store.shard(shard, shards)
    if checkpoint_path is not None and Path(checkpoint_path).exists():
        try:
            result = _engine.resume_simulation(
                checkpoint_path,
                view,
                checkpoint_path=checkpoint_path,
                chunk_rows=chunk_rows,
            )
            return result.engine, result.stats
        except CheckpointError as exc:
            warnings.warn(
                f"shard-{shard} checkpoint {checkpoint_path} is unusable "
                f"({exc}); restarting the shard from the beginning",
                RuntimeWarning,
                stacklevel=2,
            )
    # The shard's daily counts are still read up front (only `ideal`
    # uses them): the repo benchmark's `traces.segments.daily_counts_s`
    # layer metric times this pass and must see it on some workload.
    ctx = ExperimentContext(
        trace=view,
        days=days,
        scale=scale / shards,
        daily_counts=view.daily_block_counts(days, chunk_rows=chunk_rows),
        seed=seed,
    )
    result = run_policy(
        policy_name,
        ctx,
        track_minutes=track_minutes,
        fast_path=fast_path,
        epoch_seconds=epoch_seconds,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        chunk_rows=chunk_rows,
    )
    return result.engine, result.stats


@dataclass(eq=False, repr=False)
class ShardedReplayRun:
    """Result of one sharded replay: merged statistics plus provenance.

    * :attr:`stats` — the ensemble-level :class:`CacheStats`, merged
      from every shard via :meth:`CacheStats.merged`; ``None`` when any
      shard failed (partial statistics would be silently wrong).
    * :attr:`shard_stats` — per-shard statistics in shard order
      (successful shards only), for per-partition inspection.
    * :attr:`failures` — task-name-keyed :class:`PolicyFailure` records.
    * :attr:`manifest` — JSON-serializable run manifest (schema
      :data:`SHARD_MANIFEST_VERSION`).
    * :attr:`metrics` — merged metrics snapshot when collection was on.
    """

    policy_name: str
    stats: Optional["CacheStats"]
    shard_stats: "OrderedDict[str, CacheStats]"
    failures: Dict[str, PolicyFailure]
    manifest: dict
    metrics: Optional[object] = None

    @property
    def ok(self) -> bool:
        """True when every shard completed and the merge happened."""
        return not self.failures and self.stats is not None

    def save_manifest(self, path: Union[str, Path]) -> None:
        """Write the run manifest as indented JSON (atomically)."""
        write_json_atomic(path, self.manifest)


def run_sharded_replay(
    store,
    policy_name: str,
    days: int,
    scale: float,
    shards: int,
    seed: int = 0,
    jobs: Optional[int] = None,
    track_minutes: bool = True,
    fast_path: bool = True,
    chunk_rows: Optional[int] = None,
    task_timeout: Optional[float] = None,
    epoch_seconds: Optional[float] = None,
    checkpoint_dir=None,
    checkpoint_every: Optional[int] = None,
    collect_metrics: Optional[bool] = None,
    on_task_done=None,
) -> ShardedReplayRun:
    """Replay **one** policy with the ensemble partitioned across workers.

    The dual of :func:`~repro.sim.experiment.run_policy_suite`:
    instead of many policies over one shared trace, one policy over
    many disjoint shards of the trace.  The coordinator slices the
    segment store by server id
    (:func:`repro.traces.segments.shard_of_servers` — every block of a
    server lands on exactly one shard, so shards are closed
    subsystems), fans the shards across worker processes that open the
    segment files by path (the parent never pickles a single trace
    row), and merges the per-shard :class:`CacheStats` with
    :meth:`CacheStats.merged`.

    Each shard simulates an independent appliance provisioned at
    ``scale / shards``, so ``shards=1`` is bit-identical to an
    unsharded :func:`~repro.sim.engine.simulate` run and a sharded run
    models a partitioned ensemble of ``shards`` smaller caches.
    ``jobs=1`` executes the same shards serially in-process —
    byte-identical merged statistics, no pool — which is what CI
    compares fault-injected pool runs against.

    Failure handling matches the policy suite: one bounded retry per
    shard (a retried shard **resumes from its checkpoint** when
    ``checkpoint_dir`` is set, re-replaying only rows past the last
    checkpoint), timeout records after ``task_timeout``, and
    ``BrokenProcessPool`` degrades to in-process serial fallback for
    the not-yet-collected shards.  ``SIEVESTORE_FAULT_INJECT`` keys on
    task names ``shard-0`` … ``shard-N-1``.
    """
    from repro.cache.stats import CacheStats
    from repro.traces.segments import SegmentStore

    started = time.perf_counter()
    if shards < 1:
        raise ValueError(f"shards must be positive, got {shards}")
    if not isinstance(store, SegmentStore):
        store = SegmentStore.open(store)
    if jobs is None:
        jobs = default_jobs()
    names = shard_task_names(shards)
    tasks = []
    for shard, name in enumerate(names):
        meta = _checkpoint_meta(checkpoint_dir, name, checkpoint_every)
        tasks.append(Task(
            name,
            (
                shard, shards, policy_name, days, scale, seed,
                track_minutes, fast_path, chunk_rows, epoch_seconds,
                meta["path"] if meta else None, checkpoint_every,
            ),
            checkpoint=meta,
        ))
    run = run_tasks(
        tasks,
        worker=_replay_shard,
        local_state=store,
        initializer=_init_shard_worker,
        initargs=(str(store.directory),),
        jobs=jobs,
        task_timeout=task_timeout,
        collect_metrics=collect_metrics,
        on_task_done=on_task_done,
        noun=("shard", "shards"),
    )
    manifest_extra = {
        "kind": "sharded-replay",
        "policy": policy_name,
        "shards": shards,
        "chunk_rows": chunk_rows,
    }
    manifest = _build_manifest(
        SHARD_MANIFEST_VERSION, manifest_extra, run, jobs=jobs,
        track_minutes=track_minutes, fast_path=fast_path,
        task_timeout=task_timeout,
        wall_seconds=time.perf_counter() - started,
    )
    shard_stats = OrderedDict(run.payloads)
    merged = (
        CacheStats.merged(list(shard_stats.values()))
        if len(shard_stats) == shards
        else None
    )
    return ShardedReplayRun(
        policy_name, merged, shard_stats, run.failures, manifest,
        metrics=run.metrics,
    )
