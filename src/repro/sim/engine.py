"""Trace-driven simulation engine.

Drives a :class:`~repro.core.appliance.SieveStoreAppliance` over a
chronological trace, firing epoch boundaries at calendar-day
transitions (which is when the discrete policies batch-allocate) and
accumulating the paper's statistics.

The engine "faithfully model[s] the cache operation including
allocation-writes" (Section 4): every 512-byte block of every request
is individually looked up, counted, and — if the sieve admits it —
allocated at its interpolated completion time.

Two execution paths produce identical results, and :func:`simulate`
picks between them from the configuration alone:

* the **fast path** replays the columns through
  :mod:`repro.sim.fast_engine`'s flat loop, several times faster.  It
  runs every configuration it covers — write-through accounting, no
  device faults (every figure's configuration);
* the **object path** hands the trace's rows, one request at a time, to
  the appliance, whose cache and policy objects make every decision —
  the readable reference implementation, and the engine for everything
  else (write-back, fault plans).  It reads the same columns as the
  fast path, stops at the same rows and records the decisions the same
  way; for a plain SieveStore-C it hashes each window's blocks at once
  with the fast path's own primitives.  ``fast_path=False`` forces it,
  which is how the equivalence tests get their reference.

Either way the trace reaches the loop in row chunks — a segment store's
as it streams them, an in-RAM trace's as views — so peak memory follows
the chunk budget.  The engine that ran is recorded in
:attr:`SimulationResult.engine`.
"""

from __future__ import annotations

import math
import time as _time
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, repeat
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.cache.allocation import AllocationPolicy
from repro.cache.block_cache import BlockCache
from repro.cache.stats import CacheStats
from repro.cache.write_policy import WriteMode
from repro.core import sieve_kernel
from repro.core.appliance import SieveStoreAppliance
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.sim.fast_engine import chunk_stops, simulate_fast_chunks
from repro.traces.columnar import ColumnarTrace, as_columnar
from repro.traces.model import Trace
from repro.traces.segments import DEFAULT_CHUNK_ROWS, ChunkSource, _slice_columns
from repro.util.intervals import SECONDS_PER_DAY


#: Default request interval between checkpoints when a checkpoint path
#: is given without an explicit cadence.
DEFAULT_CHECKPOINT_EVERY = 100_000

#: Rows the object loop reads, hashes for the sieve and records at once.
#: Bounded so per-block slots never exist for more than a window
#: (hashing a whole in-RAM trace at once raised the `faulted-replay`
#: benchmark's peak RSS from 121 to 178 MiB).
_ROW_WINDOW = 4096


@dataclass
class SimulationResult:
    """Everything a benchmark needs from one policy run."""

    policy_name: str
    stats: CacheStats
    cache: BlockCache
    policy: AllocationPolicy
    wall_seconds: float
    #: Execution path used: ``"fast"`` (columnar loop) or ``"object"``
    #: (reference engine), as :func:`simulate` chose it.
    engine: str = "object"

    @property
    def days(self) -> int:
        """Number of calendar days covered by the run."""
        return self.stats.days

    def daily_capture(self) -> List[float]:
        """Per-day fraction of block accesses captured (hit) by the cache."""
        return [day.hit_ratio for day in self.stats.per_day]

    def daily_allocation_writes(self) -> List[int]:
        """Per-day allocation-write counts (512-byte blocks)."""
        return [day.allocation_writes for day in self.stats.per_day]


def total_epoch_count(days: int, epoch_seconds: float) -> int:
    """Number of epoch boundaries covering ``days`` calendar days.

    Computed on exact rationals: ``int(days * 86400 / epoch_seconds)``
    both truncates partial trailing epochs and, worse, can lose a whole
    epoch to float rounding when ``epoch_seconds`` does not divide the
    day evenly (e.g. 7 h over 8 days is exactly 27.43 epochs, but a
    float quotient landing at 27.999... would truncate to 27 — one
    boundary short).  ``Fraction(float)`` is exact, so the ceiling here
    is exact for every representable epoch length.
    """
    return max(
        1, math.ceil(Fraction(days * SECONDS_PER_DAY) / Fraction(epoch_seconds))
    )


def _trace_fingerprint(trace: Union[Trace, ColumnarTrace, ChunkSource]) -> dict:
    """Cheap identity check tying a checkpoint to its trace.

    Every trace form yields the same triple for the same requests, so a
    checkpoint written against one form resumes against any other.
    """
    if isinstance(trace, ChunkSource):
        return trace.fingerprint()
    if not len(trace):
        return {"requests": 0, "first_issue": None, "last_issue": None}
    if isinstance(trace, ColumnarTrace):
        first, last = trace.issue_time[0], trace.issue_time[-1]
    else:
        first, last = trace.requests[0].issue_time, trace.requests[-1].issue_time
    return {
        "requests": len(trace),
        "first_issue": float(first),
        "last_issue": float(last),
    }


def _run_object_loop(
    appliance: SieveStoreAppliance,
    chunks,
    epoch_seconds: float,
    total_epochs: int,
    days: int,
    start_cursor: int,
    start_epoch: int,
    checkpoint_every: Optional[int],
    checkpointer,
    boundary_hook,
    progress_every: Optional[int],
    progress_hook,
    segment_hook,
) -> None:
    """The reference request loop over ``(base_row, columns)`` chunks.

    Chunks come one at a time (see :func:`_chunks`), so peak memory
    follows the chunk budget rather than the trace.  Each chunk is
    walked between the fast loop's stops
    (:func:`~repro.sim.fast_engine.chunk_stops`), each stretch in
    windows of at most :data:`_ROW_WINDOW` rows read as lists and handed
    to the appliance one row at a time (no request object is built);
    for a plain SieveStore-C a window's blocks are hashed at once
    (:func:`~repro.core.sieve_kernel.hash_requests`), so each miss takes
    the sieve's slot-taking ladder.  The appliance only decides: each
    row's hits and backing-write blocks go into window columns, recorded
    by :meth:`~repro.cache.stats.CacheStats.record_rows` as the fast
    loop records its own (a window at a time: that bounds the columns
    and the recording's scratch by the window, not the chunk).
    The appliance cannot observe where a chunk, a stretch or a window
    ends.  Rows before ``start_cursor`` within the first chunk are
    skipped (how a resume lands mid-chunk).  ``segment_hook(cursor,
    current_epoch)`` fires after each chunk, giving out-of-core runs a
    per-segment checkpoint site.
    """
    policy = appliance.policy
    stats = appliance.stats
    hashed = sieve_kernel.supports(policy)
    observe = appliance._observe_hook()
    process = appliance.process_row
    current_epoch = start_epoch
    cursor = start_cursor
    for base, columns in chunks:
        rows = len(columns)
        start = min(max(cursor - base, 0), rows)
        epochs, stops, _ = chunk_stops(
            columns.issue_time, epoch_seconds, base, start,
            checkpoint_every, progress_every,
        )
        for lo, hi in zip(stops, stops[1:]):
            epoch = int(epochs[lo])
            while current_epoch < epoch:
                current_epoch += 1
                appliance.begin_day(current_epoch)
                if boundary_hook is not None:
                    boundary_hook(current_epoch, base + lo)
            for window_lo in range(lo, hi, _ROW_WINDOW):
                window = slice(window_lo, min(window_lo + _ROW_WINDOW, hi))
                issues = columns.issue_time[window]
                addresses = columns.address[window]
                counts = columns.block_count[window]
                if hashed:
                    _, starts, slots, subs = sieve_kernel.hash_requests(
                        policy, addresses, counts, issues
                    )
                    starts, slots, subs = starts.tolist(), slots.tolist(), subs.tolist()
                else:
                    starts, slots, subs = repeat(0), None, repeat(0)
                completions = columns.completion_time[window]
                writes = columns.is_write[window]
                # Each row's hits and backing-write blocks, recorded once
                # the window is decided (every stop ends a window).
                zeros = bytes(8 * len(issues))
                hits, backing = array("q", zeros), array("q", zeros)
                for row, issue, completion, address, n, is_write, first, sub in zip(
                    count(), issues.tolist(), completions.tolist(),
                    addresses.tolist(), counts.tolist(), writes.tolist(),
                    starts, subs,
                ):
                    hits[row], backing[row], _ = process(
                        address, n, is_write, issue, completion, observe,
                        slots, first, sub,
                    )
                stats.record_rows(
                    issues, completions, counts, writes,
                    np.frombuffer(hits, dtype=np.int64),
                    np.frombuffer(backing, dtype=np.int64),
                )
            done = base + hi
            if checkpoint_every is not None and done % checkpoint_every == 0:
                checkpointer(done, current_epoch)
            if progress_every is not None and done % progress_every == 0:
                progress_hook(done, current_epoch)
        cursor = max(cursor, base + rows)
        if segment_hook is not None:
            segment_hook(cursor, current_epoch)
    # Fire any remaining boundaries so discrete policies finish their
    # final epoch bookkeeping (no accesses follow, so no hits change).
    while current_epoch < total_epochs - 1:
        current_epoch += 1
        appliance.begin_day(current_epoch)
        if boundary_hook is not None:
            boundary_hook(current_epoch, cursor)
    appliance.flush_dirty(time=float(days) * SECONDS_PER_DAY - 1.0)
    if appliance.faults is not None:
        # Assigned, not accumulated, so a resumed run counts it once.
        stats.degraded_seconds, stats.bypass_seconds = (
            appliance.faults.time_in_states(float(days) * SECONDS_PER_DAY)
        )


def _chunks(
    trace: Union[Trace, ColumnarTrace, ChunkSource],
    chunk_rows: Optional[int],
    start_row: int,
):
    """``(base_row, columns)`` chunks of ``trace`` from ``start_row`` on,
    of at most ``chunk_rows`` rows: a chunk source streams its own, an
    in-RAM trace is cut into row views (checked first, so both engines
    refuse the same rows; a segment store's were checked when written).
    """
    if chunk_rows is not None and chunk_rows <= 0:
        raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
    if isinstance(trace, ChunkSource):
        return trace.iter_chunks(chunk_rows, start_row=start_row)
    columns = as_columnar(trace)
    columns.validate()
    budget = chunk_rows or DEFAULT_CHUNK_ROWS
    rows = len(columns)
    return (
        (lo, _slice_columns(columns, lo, min(lo + budget, rows)))
        for lo in range(start_row, rows, budget)
    )


def _check_progress(progress_every: Optional[int], progress_hook) -> None:
    """Refuse a heartbeat cadence no run could honour, before any
    request is replayed (the loops step through trace rows by it)."""
    if progress_every is None:
        return
    if progress_every <= 0:
        raise ValueError(f"progress_every must be positive, got {progress_every}")
    if progress_hook is None:
        raise ValueError("progress_every needs a progress_hook to call")


def _check_resume_engine(state: dict, target: str) -> None:
    """Refuse an ``engine=`` override the checkpointed run cannot take.

    Both loops leave bit-identical policy / cache / statistics at any
    request cursor, so a state written by one seeds the other as is —
    except that the fast loop replays only write-through without device
    faults.
    """
    from repro.sim.serialize import CheckpointError

    if target == "object":
        return
    if target != "fast":
        raise CheckpointError(f"unknown resume engine {target!r}")
    write_mode = state["config"]["write_mode"]
    if write_mode != "WRITE_THROUGH":
        raise CheckpointError(
            "cannot resume on the fast engine: it supports only "
            f"write-through, checkpoint has write_mode={write_mode!r}"
        )
    appliance = state["appliance"]
    if appliance is not None and appliance.faults is not None:
        raise CheckpointError(
            "cannot resume a fault-injected run on the fast engine"
        )


@dataclass
class _EngineObs:
    """Engine-side hooks resolved from the active observability context.

    Exists only while observability is enabled; every engine call site
    tests a single ``obs is not None`` otherwise, which keeps the
    disabled path byte-identical to a build without :mod:`repro.obs`.
    """

    registry: object
    events: object
    label: str
    engine: str
    boundary_hook: object
    health_observer: object

    def emit(self, event: str, **fields) -> None:
        if self.events is not None:
            self.events.emit(event, **fields)

    def finish(self, policy, requests: int, stats, wall: float) -> None:
        """Adopt the run's tallies into the registry, emit ``run_end``."""
        from repro.obs import instrument

        instrument.sample_sieve_metrics(self.registry, policy, self.label)
        instrument.record_run_throughput(
            self.registry,
            self.label,
            self.engine,
            requests,
            stats.total.accesses,
            wall,
        )
        self.emit(
            "run_end",
            policy=self.label,
            engine=self.engine,
            requests=requests,
            blocks=stats.total.accesses,
            seconds=round(wall, 6),
        )


def _engine_obs(policy, label: str, engine_name: str) -> Optional[_EngineObs]:
    """Build engine hooks when observability is on, else ``None``."""
    from repro.obs import runtime as _obs_runtime

    context = _obs_runtime.get_context()
    if context is None:
        return None
    from repro.obs import instrument

    instrument.enable_policy_tracking(policy)
    return _EngineObs(
        registry=context.registry,
        events=context.events,
        label=label,
        engine=engine_name,
        boundary_hook=instrument.make_epoch_timer(
            context.registry, label, engine_name
        ),
        health_observer=instrument.make_health_observer(
            context.registry, label, context.events
        ),
    )


def _appliance(
    policy: AllocationPolicy,
    cache: BlockCache,
    stats: CacheStats,
    config: dict,
    faults: Optional[FaultInjector],
) -> SieveStoreAppliance:
    """The object loop's appliance around one run's three state pieces."""
    return SieveStoreAppliance(
        cache,
        policy,
        stats,
        write_mode=WriteMode[config["write_mode"]],
        epoch_seconds=config["epoch_seconds"],
        faults=faults,
    )


def _drive(
    state: dict,
    trace: Union[Trace, ColumnarTrace, ChunkSource],
    checkpoint_target: Optional[str],
    progress_every: Optional[int],
    progress_hook,
    chunk_rows: Optional[int],
) -> SimulationResult:
    """Replay ``trace`` from ``state`` to its end: the one run path.

    ``state`` is a run's complete state in the checkpoint payload's
    layout (built by :func:`simulate`, reloaded by
    :func:`resume_simulation`), so a fresh run is simply a resume from
    cursor 0 / epoch -1, and a checkpoint is ``state`` with the cursor,
    epoch, and elapsed time of the moment written over it.
    """
    from repro.sim import serialize  # deferred: serialize imports this module

    engine = state["engine"]
    label = state["label"]
    config = state["config"]
    policy, cache, stats = state["policy"], state["cache"], state["stats"]
    cursor = state["cursor"]
    base_elapsed = state["elapsed"]
    n_requests = state["trace_fingerprint"]["requests"]
    days = config["days"]
    epoch_seconds = config["epoch_seconds"]
    if policy.daily_epochs_only and epoch_seconds != SECONDS_PER_DAY:
        raise ValueError(
            f"policy {label!r} installs one calendar day's oracle per epoch; "
            f"it cannot replay with epoch_seconds={epoch_seconds}"
        )

    # Device state (dirty tracker, fault injector, health) rides on the
    # appliance, which only the object loop drives.  A state the fast
    # loop wrote carries none: that loop only replays write-through
    # without faults, which a new appliance around the same three
    # pieces represents exactly.
    if engine == "fast":
        state["appliance"] = None
    elif state["appliance"] is None:
        state["appliance"] = _appliance(policy, cache, stats, config, None)
    appliance = state["appliance"]

    chunks = _chunks(trace, chunk_rows, cursor)

    obs = _engine_obs(policy, label, engine)
    if obs is not None:
        if appliance is not None:
            appliance.health_observer = obs.health_observer
        if cursor:
            obs.emit(
                "run_resume",
                policy=label,
                engine=engine,
                cursor=cursor,
                requests=n_requests,
            )
        else:
            obs.emit(
                "run_start",
                policy=label,
                engine=engine,
                requests=n_requests,
                days=days,
                epoch_seconds=epoch_seconds,
            )

    started = _time.perf_counter()
    checkpointer = None
    if checkpoint_target is not None:

        def checkpointer(cursor: int, current_epoch: int) -> None:
            # Both loops call this with policy / cache / stats already
            # consistent (the fast loop resyncs the resident set and the
            # sieve kernel first), so pickling them as they stand
            # captures the exact reference-equivalent state.
            serialize.save_checkpoint(
                {
                    **state,
                    "cursor": cursor,
                    "current_epoch": current_epoch,
                    "elapsed": base_elapsed + (_time.perf_counter() - started),
                },
                checkpoint_target,
            )
            if obs is not None:
                obs.emit(
                    "checkpoint_saved",
                    policy=label,
                    cursor=cursor,
                    epoch=current_epoch,
                )

    position_and_hooks = dict(
        start_cursor=cursor,
        start_epoch=state["current_epoch"],
        checkpoint_every=config["checkpoint_every"],
        checkpointer=checkpointer,
        boundary_hook=obs.boundary_hook if obs is not None else None,
        progress_every=progress_every,
        progress_hook=progress_hook,
        # Out-of-core runs also checkpoint at every chunk boundary: the
        # state is already consistent there, and a resume then reopens
        # only the segments past the cursor.
        segment_hook=checkpointer if isinstance(trace, ChunkSource) else None,
    )
    if engine == "fast":
        simulate_fast_chunks(
            chunks,
            policy,
            stats,
            cache,
            capacity_blocks=config["capacity_blocks"],
            epoch_seconds=epoch_seconds,
            total_epochs=config["total_epochs"],
            **position_and_hooks,
        )
    else:
        _run_object_loop(
            appliance,
            chunks,
            epoch_seconds,
            config["total_epochs"],
            days,
            **position_and_hooks,
        )
    wall = base_elapsed + (_time.perf_counter() - started)

    if obs is not None:
        obs.finish(policy, n_requests, stats, wall)
    stats.check_consistency()
    return SimulationResult(
        policy_name=label,
        stats=stats,
        cache=cache,
        policy=policy,
        wall_seconds=wall,
        engine=engine,
    )


def simulate(
    trace: Union[Trace, ColumnarTrace, ChunkSource],
    policy: AllocationPolicy,
    capacity_blocks: int,
    days: int,
    track_minutes: bool = True,
    write_mode: WriteMode = WriteMode.WRITE_THROUGH,
    epoch_seconds: Optional[float] = float(SECONDS_PER_DAY),
    fast_path: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    checkpoint_path: Optional[Union[str, Path]] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_context: Optional[dict] = None,
    label: Optional[str] = None,
    progress_every: Optional[int] = None,
    progress_hook=None,
    chunk_rows: Optional[int] = None,
) -> SimulationResult:
    """Run one allocation policy over a trace.

    Args:
        trace: chronological ensemble trace — object :class:`Trace`,
            :class:`ColumnarTrace`, or an on-disk
            :class:`~repro.traces.segments.SegmentStore`.  Both engines
            read columns (an object trace is columnarized once); a
            segment store is streamed chunk by chunk through either engine
            (bounded peak memory, bit-identical statistics, and a
            checkpoint after every chunk when checkpointing is on).
        policy: the allocation policy / sieve under test.
        capacity_blocks: cache capacity in 512-byte frames.
        days: calendar days covered by the trace.
        track_minutes: collect per-minute SSD I/O (needed for the
            drive-occupancy figures; costs some memory).
        write_mode: write-through (paper-equivalent default) or
            write-back; see
            :class:`~repro.core.appliance.SieveStoreAppliance`.  Dirty
            blocks are flushed at end of trace.
        epoch_seconds: period of the discrete policies' batch
            boundaries.  The paper's epoch is one calendar day (the
            default, also what ``None`` means); shorter or longer
            epochs drive the Section 5.1 epoch-length sensitivity
            analysis.  Statistics stay calendar-day bucketed
            regardless.
        fast_path: replay on the fast loop whenever the configuration
            allows it (write-through, no fault plan), on the object
            engine otherwise; the statistics are bit-identical either
            way.  ``False`` forces the object engine, the reference the
            equivalence tests compare against.  The engine that ran is
            :attr:`SimulationResult.engine`.
        fault_plan: optional device-fault schedule
            (:class:`~repro.faults.plan.FaultPlan`).  An empty plan is
            treated exactly like ``None`` (byte-identical output); a
            non-empty plan routes to the object engine, which drives
            the appliance's device-health state machine.
        checkpoint_path: if given, crash-consistent checkpoints are
            written here every ``checkpoint_every`` requests; resume
            with :func:`resume_simulation` for bit-identical final
            statistics.
        checkpoint_every: requests between checkpoints (default
            :data:`DEFAULT_CHECKPOINT_EVERY` when a path is given).
        checkpoint_context: opaque dict stored verbatim inside each
            checkpoint (the CLI records its trace arguments here so
            ``--resume`` can regenerate the trace).
        label: the run's name — :attr:`SimulationResult.policy_name`,
            observability metric labels and events, and what a
            checkpoint carries so a resumed run keeps it (defaults to
            ``policy.name``; suite runners pass the registry key so
            e.g. ``aod-16`` and ``aod-32`` stay distinguishable).
            Never affects the statistics.
        progress_every: invoke ``progress_hook(requests_done,
            current_epoch)`` every this many requests (the CLI's
            ``--progress`` heartbeat); must be positive and come with a
            hook.  ``None`` disables it.
        progress_hook: callable receiving ``(requests_done,
            current_epoch)``; must not mutate simulation state.
        chunk_rows: row budget per chunk the loops replay (default
            :data:`~repro.traces.segments.DEFAULT_CHUNK_ROWS`): in-RAM
            traces are cut into row views of it, segment-store chunks
            never span segments.  Chunk edges never move a statistic.
    """
    if epoch_seconds is None:
        epoch_seconds = float(SECONDS_PER_DAY)
    if epoch_seconds <= 0:
        raise ValueError(f"epoch_seconds must be positive, got {epoch_seconds}")
    _check_progress(progress_every, progress_hook)
    if fault_plan is not None and fault_plan.is_empty:
        fault_plan = None
    if checkpoint_every is not None and checkpoint_every <= 0:
        raise ValueError(
            f"checkpoint_every must be positive, got {checkpoint_every}"
        )
    if checkpoint_path is not None and checkpoint_every is None:
        checkpoint_every = DEFAULT_CHECKPOINT_EVERY
    if checkpoint_path is None:
        checkpoint_every = None

    use_fast = (
        fast_path
        and write_mode is WriteMode.WRITE_THROUGH
        and fault_plan is None
    )

    stats = CacheStats(days=days, track_minutes=track_minutes)
    cache = BlockCache(capacity_blocks)
    config = {
        "capacity_blocks": capacity_blocks,
        "days": days,
        "track_minutes": track_minutes,
        "write_mode": write_mode.name,
        "epoch_seconds": epoch_seconds,
        "total_epochs": total_epoch_count(days, epoch_seconds),
        "checkpoint_every": checkpoint_every,
    }
    appliance = None
    if not use_fast:
        faults = FaultInjector(fault_plan) if fault_plan is not None else None
        appliance = _appliance(policy, cache, stats, config, faults)
    state = {
        "engine": "fast" if use_fast else "object",
        "cursor": 0,
        "current_epoch": -1,
        "label": label or policy.name,
        "elapsed": 0.0,
        "config": config,
        "trace_fingerprint": _trace_fingerprint(trace),
        "context": checkpoint_context,
        "policy": policy,
        "cache": cache,
        "stats": stats,
        "appliance": appliance,
    }
    return _drive(
        state,
        trace,
        str(checkpoint_path) if checkpoint_path is not None else None,
        progress_every,
        progress_hook,
        chunk_rows,
    )


def resume_simulation(
    path: Union[str, Path],
    trace: Union[Trace, ColumnarTrace, ChunkSource, None] = None,
    checkpoint_path: Optional[Union[str, Path]] = None,
    progress_every: Optional[int] = None,
    progress_hook=None,
    engine: Optional[str] = None,
    chunk_rows: Optional[int] = None,
) -> SimulationResult:
    """Continue a checkpointed run to completion.

    The final :class:`SimulationResult` carries statistics bit-identical
    to the uninterrupted run's (per-day *and* per-minute), in whichever
    engine wrote the checkpoint.  Checkpointing continues at the stored
    cadence, to ``checkpoint_path`` if given, else back to ``path``.

    Args:
        path: checkpoint file written by :func:`simulate`.
        trace: the *same* trace the original run consumed (checked
            against the checkpoint's trace fingerprint).  Checkpoints
            do not embed the trace; the CLI regenerates it from the
            trace arguments stored in the checkpoint context.  A
            :class:`~repro.traces.segments.SegmentStore` interoperates
            with in-RAM checkpoints (and vice versa): segment
            fingerprints round-trip exactly, and segments wholly behind
            the checkpoint cursor are never opened.
        chunk_rows: per-chunk row budget, as in :func:`simulate`.
        checkpoint_path: where to keep writing checkpoints (defaults to
            overwriting ``path``).
        engine: resume on this engine (``"fast"`` or ``"object"``)
            instead of the one that wrote the checkpoint.  Both engines
            snapshot the same logical state, so final statistics stay
            bit-identical either way; resuming a write-back or
            fault-injected checkpoint on the fast engine raises.

    Raises:
        CheckpointError: unreadable/corrupt/incompatible checkpoint, a
            missing trace, a trace that does not match, or an ``engine``
            the checkpointed configuration cannot run on.
    """
    from repro.sim.serialize import CheckpointError, load_checkpoint

    _check_progress(progress_every, progress_hook)
    state = load_checkpoint(path)
    if trace is None:
        raise CheckpointError(
            "checkpoints do not embed the trace; pass the original trace "
            "(the CLI's --resume regenerates it from the checkpoint context)"
        )
    expected = state["trace_fingerprint"]
    actual = _trace_fingerprint(trace)
    if actual != expected:
        raise CheckpointError(
            f"trace does not match checkpoint: expected {expected}, got {actual}"
        )
    if engine is not None:
        _check_resume_engine(state, engine)
        state["engine"] = engine
    return _drive(
        state,
        trace,
        str(checkpoint_path if checkpoint_path is not None else path),
        progress_every,
        progress_hook,
        chunk_rows,
    )
