"""Trace-driven simulation engine.

Drives a :class:`~repro.core.appliance.SieveStoreAppliance` over a
chronological trace, firing epoch boundaries at calendar-day
transitions (which is when the discrete policies batch-allocate) and
accumulating the paper's statistics.

The engine "faithfully model[s] the cache operation including
allocation-writes" (Section 4): every 512-byte block of every request
is individually looked up, decided by the sieve and — if admitted —
allocated at its interpolated completion time.  A SieveStore-C miss
that cannot reach t1 within its subwindow run is still decided at its
access, but counted with its run's others in one batch.

One walk replays every run (:func:`_walk`): it takes the trace in row
chunks — a segment store's as it streams them, an in-RAM trace's as
views — so peak memory follows the chunk budget; cuts each chunk at
the rows where anything but a request happens (:func:`chunk_stops`:
epoch changes, checkpoint and progress rows); applies the epoch
boundaries and fires every hook there; and hands each stretch of
requests between stops to one of two deciders with identical results,
which :func:`simulate` picks from the configuration alone:

* the **fast path**, :class:`~repro.sim.fast_engine.FastStretches`,
  decides a stretch in a flat loop the policy brings
  (:meth:`~repro.cache.allocation.AllocationPolicy.stretch_decider`),
  several times faster.
  It runs every configuration it covers — write-through accounting,
  no device faults (every figure's configuration);
* the **object path**, :class:`_ObjectStretches`, hands the rows, one
  request's fields at a time, to the appliance, whose cache and policy
  objects make every decision — the readable reference
  implementation, and the decider for everything else (write-back,
  fault plans).  For a SieveStore-C whose ladder the sieve kernel may
  drive it hashes each window's blocks at once and bounds each run's
  cold slots with the fast path's own primitives.
  ``fast_path=False`` forces it, which is how the equivalence tests
  get their reference.

Both record their decisions the same way
(:meth:`~repro.cache.stats.CacheStats.record_rows`).  The decider that
ran is recorded in :attr:`SimulationResult.engine`.
"""

from __future__ import annotations

import math
import time as _time
from array import array
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.cache.allocation import AllocationPolicy, observe_hook
from repro.cache.block_cache import BlockCache
from repro.cache.stats import CacheStats
from repro.cache.write_policy import WriteMode
from repro.core import sieve_kernel
from repro.core.appliance import SieveStoreAppliance
from repro.core.sievestore_c import SieveStoreC
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.sim.fast_engine import FastStretches
from repro.traces.columnar import ColumnarTrace
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

#: Blocks a run needs before the object loop classifies it at its head:
#: the head costs a run ~56 us and saves ~0.67 us a block, so it breaks
#: even at 85-95 blocks, not at the fast kernel's 40 (at ~135 with IMCT
#: collision tracking on, whose ``record_batch`` costs more).  Measured
#: on ``faulted-replay``'s seed-7 trace cut into 1-24-row runs, 576 runs
#: timed both ways from their head state, min of 7; 2-core x86.
_BATCH_MIN_BLOCKS = 90


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


def _trace_fingerprint(trace: Union[ColumnarTrace, ChunkSource]) -> dict:
    """Cheap identity check tying a checkpoint to its trace.

    Columns and a chunk source yield the same triple for the same
    requests, so a checkpoint written against one resumes against the
    other.
    """
    if isinstance(trace, ChunkSource):
        return trace.fingerprint()
    if not len(trace):
        return {"requests": 0, "first_issue": None, "last_issue": None}
    return {
        "requests": len(trace),
        "first_issue": float(trace.issue_time[0]),
        "last_issue": float(trace.issue_time[-1]),
    }


def chunk_stops(
    issue_times: np.ndarray, epoch_seconds: float, base: int, start: int,
    checkpoint_every: int, progress_every: int, extra=(),
) -> Tuple[np.ndarray, List[int], set]:
    """Where the walk stops in a chunk whose first row is trace row
    ``base``, from chunk row ``start`` on: ``(epochs, stops, ticks)``.

    ``epochs`` is each row's epoch (Python ``//`` semantics); ``stops``
    the sorted rows in ``[start, n]`` that end a stretch of requests —
    ``start``, ``n``, each epoch change, each row after which a multiple
    of ``checkpoint_every`` or ``progress_every`` requests is done, and
    ``extra``; ``ticks`` the stops that are progress ticks only (they
    read neither the cache nor the statistics).  All elementwise, so
    chunk edges cannot move a stop.
    """
    n = len(issue_times)

    def every(cadence):  # the rows after a multiple of cadence requests
        if cadence is None:
            return ()
        return range(start + cadence - (base + start) % cadence, n + 1, cadence)

    epochs = sieve_kernel.subwindow_indices(issue_times, epoch_seconds)
    stops = {start, n}
    stops.update((np.flatnonzero(epochs[1:] != epochs[:-1]) + 1).tolist())
    stops.update(every(checkpoint_every))
    stops.update(extra)
    ticks = set(every(progress_every)).difference(stops)
    stops = sorted(stops.union(ticks))
    return epochs, stops[stops.index(start):], ticks


class _ObjectStretches:
    """The object engine's side of the walk: the appliance decides each
    stretch, one row of fields at a time, in windows of at most
    :data:`_ROW_WINDOW` rows, whose hits and backing-write blocks
    :meth:`~repro.cache.stats.CacheStats.record_rows` records once the
    window is decided.  A SieveStore-C's window, when the kernel may
    drive its ladder, is hashed at once and decided run by run
    (requests sharing a subwindow).  At the head of a run of at least
    :data:`_BATCH_MIN_BLOCKS` blocks
    :func:`~repro.core.sieve_kernel.cold_mask` codes each cold slot
    ``~slot`` and :func:`~repro.core.sieve_kernel.head_classes` finds
    the cold rejections.  A request of cold rejections only is settled
    there — no hit, its blocks backing writes if it writes, the device's
    health walked (:meth:`~SieveStoreAppliance.react`) — as nothing in
    the run can admit or track a block on a cold slot.  The appliance
    decides the other requests' accesses in order, only listing their
    cold rejections, and one ``record_batch`` records the run's at its
    end.  Every stop ends a window, and a window its runs, so this side
    adds no stops and has nothing to settle.
    """

    def __init__(self, appliance: SieveStoreAppliance, days: int):
        self.appliance = appliance
        self.boundary = appliance.begin_day
        policy = appliance.policy
        self.hashed = isinstance(policy, SieveStoreC) and policy.kernel_drives_ladder()
        self._tally = np.zeros(policy.imct.slots, np.int32) if self.hashed else None
        self.observe = observe_hook(policy)
        self.end = float(days) * SECONDS_PER_DAY

    def chunk(self, columns: ColumnarTrace, start: int):
        self.columns = columns
        return ()

    def decide(self, lo: int, hi: int, tick: bool) -> None:
        columns, process = self.columns, self.appliance.process_row
        record = self.appliance.stats.record_rows
        for window_lo in range(lo, hi, _ROW_WINDOW):
            window = slice(window_lo, min(window_lo + _ROW_WINDOW, hi))
            issues = columns.issue_time[window]
            addresses = columns.address[window]
            counts = columns.block_count[window]
            completions = columns.completion_time[window]
            writes = columns.is_write[window]
            rows = list(zip(
                addresses.tolist(), counts.tolist(), writes.tolist(),
                issues.tolist(), completions.tolist(),
            ))
            # Each row's hits and backing-write blocks, recorded once
            # the window is decided.
            hits, backing = array("q", bytes(8 * len(rows))), array("q", bytes(8 * len(rows)))
            if self.hashed:
                self._sieve_window(rows, hits, backing, addresses, counts, issues)
            else:
                for row, fields in enumerate(rows):
                    hits[row], backing[row], _ = process(*fields, self.observe)
            record(
                issues, completions, counts, writes,
                np.frombuffer(hits, dtype=np.int64),
                np.frombuffer(backing, dtype=np.int64),
            )

    def _sieve_window(self, rows, hits, backing, addresses, counts, issues) -> None:
        """Decide a hashed window's rows run by run."""
        appliance = self.appliance
        policy, process, resident = appliance.policy, appliance.process_row, appliance.cache._order
        blocks, offsets, slots, subs = sieve_kernel.hash_requests(
            policy, addresses, counts, issues
        )
        runs = [0, *(np.flatnonzero(subs[1:] != subs[:-1]) + 1).tolist(), len(rows)]
        coded, starts, subs = slots.tolist(), offsets.tolist(), subs.tolist()
        settled = [False] * len(rows)
        for run_lo, run_hi in zip(runs, runs[1:]):
            first, last, sub = starts[run_lo], starts[run_hi], subs[run_lo]
            if last - first >= _BATCH_MIN_BLOCKS:
                run_slots = slots[first:last]
                cold = sieve_kernel.cold_mask(policy, run_slots, sub, self._tally)
                coded[first:last] = np.where(cold, ~run_slots, run_slots).tolist()
                _, rejected = sieve_kernel.head_classes(policy, blocks[first:last], cold, resident)
                heads = offsets[run_lo:run_hi] - first  # per request, its first block
                settled[run_lo:run_hi] = np.logical_and.reduceat(rejected, heads).tolist()
            deferred = []
            for row in range(run_lo, run_hi):
                if not settled[row]:
                    hits[row], backing[row], _ = process(
                        *rows[row], self.observe, coded, starts[row], sub, deferred
                    )
                    continue
                # Settled at the head: every block a cold rejection.
                _, n, write, issue, _ = rows[row]
                if appliance.faults is not None:
                    appliance.react(issue, n)
                if write:
                    backing[row] = n
                deferred.extend(range(starts[row], starts[row + 1]))
            if deferred:  # in access order, as collision tracking wants
                at = np.array(deferred)
                policy.imct_rejections += at.size
                policy.imct.record_batch(slots[at], sub, blocks[at])

    def settle(self, row: int, picklable: bool) -> None:
        pass

    def finish(self) -> None:
        appliance = self.appliance
        appliance.flush_dirty(time=self.end - 1.0)
        if appliance.faults is not None:
            # Assigned, not accumulated, so a resumed run counts it once.
            appliance.stats.degraded_seconds, appliance.stats.bypass_seconds = (
                appliance.faults.time_in_states(self.end)
            )


def _walk(
    stretches: Union[FastStretches, _ObjectStretches], chunks,
    epoch_seconds: float, total_epochs: int, cursor: int, current_epoch: int,
    checkpoint_every: Optional[int], checkpointer, boundary_hook,
    progress_every: Optional[int], progress_hook, segment_hook,
) -> None:
    """The one replay walk: ``stretches`` decides the requests of the
    ``(base_row, columns)`` chunks, the walk does everything else.

    Rows before ``cursor`` within the first chunk are skipped (how a
    resume lands mid-chunk).  At each of a chunk's :func:`chunk_stops`
    (plus the stops the decider adds) the walk applies the boundaries
    the next stretch crosses, ``boundary_hook(epoch, cursor)`` after
    each; after the stretch, at a multiple of ``checkpoint_every`` or
    ``progress_every`` requests, it calls ``checkpointer`` (on a settled
    state) or ``progress_hook`` with ``(requests_done, current_epoch)``.
    ``segment_hook(cursor, current_epoch)`` fires after each chunk, on
    a settled state (the per-segment checkpoint site of out-of-core
    runs); after the last, the remaining boundaries fire, so discrete
    policies close their books.  Hooks fire at the same rows whichever
    decider runs; boundary and progress hooks must not mutate state.
    """
    for base, columns in chunks:
        rows = len(columns)
        start = min(max(cursor - base, 0), rows)
        epochs, stops, ticks = chunk_stops(
            columns.issue_time, epoch_seconds, base, start,
            checkpoint_every, progress_every, stretches.chunk(columns, start),
        )
        for lo, hi in zip(stops, stops[1:]):
            epoch = int(epochs[lo])
            while current_epoch < epoch:
                current_epoch += 1
                stretches.boundary(current_epoch)
                if boundary_hook is not None:
                    boundary_hook(current_epoch, base + lo)
            stretches.decide(lo, hi, hi in ticks)
            done = base + hi
            if checkpoint_every is not None and done % checkpoint_every == 0:
                stretches.settle(hi, True)
                checkpointer(done, current_epoch)
            if progress_every is not None and done % progress_every == 0:
                progress_hook(done, current_epoch)
        # max() so a chunk wholly behind a resume cursor can never move
        # it backwards.
        cursor = max(cursor, base + rows)
        stretches.settle(rows, segment_hook is not None)
        if segment_hook is not None:
            segment_hook(cursor, current_epoch)
    while current_epoch < total_epochs - 1:
        current_epoch += 1
        stretches.boundary(current_epoch)
        if boundary_hook is not None:
            boundary_hook(current_epoch, cursor)
    stretches.finish()


def _chunks(
    trace: Union[ColumnarTrace, ChunkSource],
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
    trace.validate()
    budget = chunk_rows or DEFAULT_CHUNK_ROWS
    rows = len(trace)
    return (
        (lo, _slice_columns(trace, lo, min(lo + budget, rows)))
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
    trace: Union[ColumnarTrace, ChunkSource],
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
    epoch, and elapsed time of the moment written over it.  The driver
    sets up the chunks, the observability hooks and the one
    checkpointer, builds the decider ``state["engine"]`` names, and
    runs :func:`_walk` once.
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

    # Device state (dirty tracker, fault injector and its health
    # machine) rides on the appliance, which only the object decider
    # drives.  A state the fast one wrote carries none: it only replays
    # write-through without faults, which a new appliance around the
    # same three pieces represents exactly.
    if engine == "fast":
        state["appliance"] = None
    elif state["appliance"] is None:
        state["appliance"] = _appliance(policy, cache, stats, config, None)
    appliance = state["appliance"]

    chunks = _chunks(trace, chunk_rows, cursor)

    obs = _engine_obs(policy, label, engine)
    if obs is not None:
        if appliance is not None and appliance.faults is not None:
            appliance.faults.observer = obs.health_observer
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
            # The walk calls this on a settled state (the deciders'
            # settle), so pickling policy / cache / stats as they stand
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

    if appliance is None:
        stretches = policy.stretch_decider(cache, stats, epoch_seconds)
    else:
        stretches = _ObjectStretches(appliance, days)
    _walk(
        stretches, chunks, epoch_seconds, config["total_epochs"], cursor,
        state["current_epoch"], config["checkpoint_every"], checkpointer,
        obs.boundary_hook if obs is not None else None,
        progress_every, progress_hook,
        # Out-of-core runs also checkpoint at every chunk boundary: the
        # state is settled there, and a resume then reopens only the
        # segments past the cursor.
        checkpointer if isinstance(trace, ChunkSource) else None,
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
    trace: Union[ColumnarTrace, ChunkSource],
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
        trace: chronological ensemble trace — a :class:`ColumnarTrace`
            or an on-disk :class:`~repro.traces.segments.SegmentStore`.
            Both engines read columns; a segment store is streamed
            chunk by chunk through either engine
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
            the injector's device-health state machine.
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
    trace: Union[ColumnarTrace, ChunkSource, None] = None,
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
