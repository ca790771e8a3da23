"""Columnar fast path for the trace-driven simulation engine.

:func:`repro.sim.engine.simulate` is the reference implementation: one
:class:`~repro.core.appliance.SieveStoreAppliance` method call per
request, one cache/policy/stats call per 512-byte block.  That chain of
small Python calls dominates simulation wall-clock.  This module
replays the same semantics over the columnar trace, a chunk at a time:

* the rows where anything but a request happens — an epoch boundary, a
  checkpoint or progress tick, a request running past midnight — are
  found per chunk in a few vectorized passes, and the stretches between
  them are replayed by per-mode block loops that contain requests and
  nothing else: their one output is a hit count per request;
* allocate-on-demand walks no blocks: every miss is allocated, so a
  block hits iff fewer than ``capacity`` distinct blocks came between
  it and its previous access, and
  :func:`~repro.cache.replacement.lru_pass` settles every row since
  the last stop that reads the cache or the hit column (any stop but a
  progress tick) with one sort; the cache's ``OrderedDict`` is rebuilt
  from the resulting order, in place, only where the cache is read (a
  chunk's end reads only the hit column).  WMNA (whose write misses
  allocate nothing, so its block stream depends on the state) and the
  per-miss-call modes drive that ``OrderedDict`` — the cache's one
  structure, resident set and recency order at once — directly
  (membership test + ``move_to_end`` + ``popitem(last=False)``);
* statistics are recorded from columns
  (:meth:`~repro.cache.stats.CacheStats.record_rows`: every block of a
  request shares the request's issue time, so the per-block recording
  of the reference path lands in the same buckets), up to the cursor at
  every site where someone can look — a checkpoint, a chunk's end.
  Only the rare allocations stay scalar: a sieve admission, and the
  per-block interpolated completion times of a request that straddles
  a day boundary;
* SieveStore-C walks events, not blocks: at each run's head the sieve
  kernel (:mod:`repro.core.sieve_kernel`) settles every hit (counted
  per request, its recency moved in bulk) and every cold rejection
  (recorded in one batch), and only the misses it cannot decide go
  through the policy's own ladder
  (:meth:`~repro.core.sievestore_c.SieveStoreC.tier1` /
  :meth:`~repro.core.sievestore_c.SieveStoreC.tier2`), the one copy
  the object engine runs too;
* the policy's ``wants``/``observe`` hooks are specialized by *method
  identity*: a policy whose ``wants`` is literally
  ``AllocateOnDemand.wants`` allocates every miss without a Python
  call, while any override (including subclasses that re-define the
  method) falls back to per-miss calls in exactly the reference order.

The fast path covers the configuration every figure uses —
write-through accounting without device faults.  Write-back and fault
plans are routed to the reference path by
:func:`repro.sim.engine.simulate`; the equivalence suite asserts the
two paths produce bit-identical :class:`~repro.cache.stats.CacheStats`.
"""

from __future__ import annotations

from array import array
from itertools import groupby
from operator import itemgetter
from typing import List, Tuple

from repro.cache.allocation import (
    AllocateOnDemand,
    AllocationPolicy,
    NeverAllocate,
    StaticSet,
    WriteMissNoAllocate,
)
from repro.cache.block_cache import BlockCache
from repro.cache.replacement import lru_pass
from repro.cache.stats import CacheStats, _record_allocations
from repro.core.ideal import IdealDailySieve
from repro.core.random_sieve import RandSieveBlkD
import numpy as np

from repro.core.sieve_kernel import SieveStoreCKernel, subwindow_indices
from repro.core.sieve_kernel import supports as _sieve_supported
from repro.core.sievestore_d import SieveStoreD
from repro.traces.columnar import expand_blocks
from repro.util.intervals import SECONDS_PER_DAY

# wants() specializations, resolved once per run by method identity.
_W_TRUE = 0  # allocate every miss (AOD)
_W_FALSE = 1  # never allocate continuously (discrete sieves, oracles)
_W_NOT_WRITE = 2  # allocate read misses only (WMNA)
_W_CALL = 3  # stateful/unknown: call policy.wants per miss
_W_SIEVE = 4  # plain SieveStore-C: sieve kernel + the policy's tiers

#: Cap on the requests one sieve-kernel precompute pass hashes (and so
#: on run length); the batching unit itself is the paper's subwindow.
_SIEVE_CHUNK = 1 << 16

#: Floor and ceiling on the blocks one AOD LRU pass takes.  Between
#: them a pass takes 4 times the capacity, so the cache's order put in
#: front stays a fifth of it; the ceiling bounds the pass's scratch
#: (~60 bytes a block) however large the cache.  The floor only binds
#: small caches, where a longer pass is slower per block: on
#: `aod-stream` (a 335-block cache; 10 rounds on a 2-core box) floors of
#: 1 << 13 / 14 / 15 / 16 gave 10.52M / 10.94M / 9.92M / 10.38M
#: normalized blocks/s.
_LRU_CHUNK = 1 << 14
_LRU_CHUNK_MAX = 1 << 21

# observe() specializations.
_O_NONE = 0  # the base-class no-op
_O_COUNTER = 1  # SieveStoreD: Counter increment per access
_O_SET = 2  # RandSieveBlkD: set.add per access
_O_CALL = 3  # unknown override: call policy.observe per block

#: ``wants`` implementations known to return a constant.
_CONSTANT_FALSE_WANTS = (
    NeverAllocate.wants,
    StaticSet.wants,
    SieveStoreD.wants,
    IdealDailySieve.wants,
    RandSieveBlkD.wants,
)


def _wants_mode(policy: AllocationPolicy) -> int:
    wants = type(policy).wants
    if wants is AllocateOnDemand.wants:
        return _W_TRUE
    if wants is WriteMissNoAllocate.wants:
        return _W_NOT_WRITE
    if any(wants is known for known in _CONSTANT_FALSE_WANTS):
        return _W_FALSE
    if _sieve_supported(policy):
        # Exact type only: subclasses (e.g. AdaptiveSieveStoreC) may
        # change tier internals without redefining wants, so they take
        # the general per-miss-call path.
        return _W_SIEVE
    return _W_CALL


def _observe_mode(policy: AllocationPolicy) -> int:
    observe = type(policy).observe
    if observe is AllocationPolicy.observe:
        return _O_NONE
    if observe is SieveStoreD.observe:
        return _O_COUNTER
    if observe is RandSieveBlkD.observe:
        return _O_SET
    return _O_CALL


def chunk_stops(
    issue_times: np.ndarray, epoch_seconds: float, base: int, start: int,
    checkpoint_every: int, progress_every: int, extra=(),
) -> Tuple[np.ndarray, List[int], set]:
    """Where both replay loops stop in a chunk whose first row is trace
    row ``base``, from chunk row ``start`` on: ``(epochs, stops, ticks)``.

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

    epochs = subwindow_indices(issue_times, epoch_seconds)
    stops = {start, n}
    stops.update((np.flatnonzero(epochs[1:] != epochs[:-1]) + 1).tolist())
    stops.update(every(checkpoint_every))
    stops.update(extra)
    ticks = set(every(progress_every)).difference(stops)
    stops = sorted(stops.union(ticks))
    return epochs, stops[stops.index(start):], ticks


def _replay_lru(
    order: np.ndarray,
    capacity: int,
    addresses: np.ndarray,
    block_counts: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Replay a stretch of requests through an allocate-every-miss LRU
    cache whose recency order (least recent first) is ``order``: each
    request's hit count goes to ``out``, and the order the per-block
    walk would have left is returned.

    The stretch is cut between requests into passes of about 4 times
    the capacity, clamped to ``[_LRU_CHUNK, _LRU_CHUNK_MAX]`` blocks (a
    single longer request is one pass), carrying the order from one to
    the next."""
    span = min(max(_LRU_CHUNK, 4 * capacity), _LRU_CHUNK_MAX)
    ends = np.cumsum(block_counts, dtype=np.int64)
    rows, lo, done = len(ends), 0, 0
    while lo < rows:
        hi = max(int(np.searchsorted(ends, done + span, "right")), lo + 1)
        blocks, offsets = expand_blocks(addresses[lo:hi], block_counts[lo:hi])
        hit, order = lru_pass(order, blocks, capacity)
        # Hits per request: differences of the running hit count.
        running = np.zeros(len(blocks) + 1, dtype=np.int64)
        np.cumsum(hit, out=running[1:])
        out[lo:hi] = running[offsets[1:]] - running[offsets[:-1]]
        lo, done = hi, int(ends[hi - 1])
    return order


def simulate_fast_chunks(
    chunks,
    policy: AllocationPolicy,
    stats: CacheStats,
    cache: BlockCache,
    capacity_blocks: int,
    epoch_seconds: float,
    total_epochs: int,
    start_cursor: int = 0,
    start_epoch: int = -1,
    checkpoint_every: int = None,
    checkpointer=None,
    boundary_hook=None,
    progress_every: int = None,
    progress_hook=None,
    segment_hook=None,
) -> None:
    """Replay a stream of columnar chunks through ``policy`` into
    ``stats`` and ``cache`` (an LRU cache).

    ``chunks`` yields ``(base_row, columns)`` pieces of one trace in
    issue order — contiguous, ascending, never overlapping (a
    :meth:`~repro.traces.segments.SegmentStore.iter_chunks` iterator,
    or an in-RAM trace's row views).  Rows before
    ``start_cursor`` within the first chunk are skipped, so resuming
    mid-chunk and resuming with a pre-trimmed iterator both work.  Only
    one chunk's columns are materialized as Python lists at a time:
    peak memory follows the chunk budget, not the trace.

    Chunk boundaries are invisible in the results — bucketing,
    ordering, and counter semantics do not depend on them, which the
    segmented-pipeline equivalence suite asserts byte for byte.
    Leaves ``stats`` and ``cache`` exactly as the reference path would
    have (same counters, same resident set, same LRU order).

    Checkpoint/resume: passing ``stats``/``cache``/``start_cursor``/
    ``start_epoch`` (all restored from one checkpoint) continues a run
    mid-trace; ``checkpointer(cursor, current_epoch)`` is invoked every
    ``checkpoint_every`` requests, and ``segment_hook(cursor,
    current_epoch)`` after each chunk (the per-segment checkpoint site
    of out-of-core runs), both with the cache brought up to the cursor,
    the statistics recorded up to the cursor and (for the sieve kernel)
    the policy object fully synced, so the callback can pickle
    ``policy``/``cache``/``stats`` as-is.  The driver for both is
    :mod:`repro.sim.engine`.

    Observability: ``boundary_hook(epoch, cursor)`` fires after each
    epoch boundary is applied; ``progress_hook(requests_done,
    current_epoch)`` fires every ``progress_every`` requests.  Both are
    telemetry-only — they must not mutate simulation state, and the
    statistics (for allocate-on-demand, the cache too) trail the
    cursor between sync sites.  The rows they fire
    at are found per chunk: they cost the request loops nothing.
    """
    od = cache._order
    od_move = od.move_to_end
    od_pop = od.popitem
    capacity = capacity_blocks
    day_seconds = float(SECONDS_PER_DAY)

    wmode = _wants_mode(policy)
    omode = _observe_mode(policy)
    wants = policy.wants
    observe = policy.observe
    do_observe = omode != _O_NONE
    # Specialized observe targets; these containers are *replaced* by
    # their policies at epoch boundaries, so they are rebound after
    # every boundary below.
    counts = policy._epoch_counts if omode == _O_COUNTER else None
    seen = policy._seen_this_epoch if omode == _O_SET else None
    general = wmode == _W_CALL or omode == _O_CALL
    # Every (WMNA: read) miss allocated and nothing to call per block:
    # the allocation-writes, too, are recorded from columns.
    bulk = not general and wmode in (_W_TRUE, _W_NOT_WRITE)
    admitted: List[int] = []  # block offsets the request in hand installed

    # -- sieve-kernel state (only when wmode == _W_SIEVE) -----------------
    # The kernel settles each run's hits and cold-slot rejections; every
    # other decision is the policy's own tier1/tier2, so after a flush the
    # policy object is the whole sieve state, ready to pickle.
    kernel = None
    if wmode == _W_SIEVE:
        kernel = SieveStoreCKernel(policy, od)
        recency = kernel.recency
        tier1 = policy.tier1
        tier2 = policy.tier2
        mct_counters = policy.mct._counters
        installed: List[Tuple[int, int]] = []  # (row, block offset)

    # AOD's LRU order while ``od`` lags behind it (see _replay_lru).
    lru_order = None

    def resync() -> None:
        """Bring the cache up to the replay: ``od`` from AOD's order."""
        nonlocal lru_order
        if lru_order is not None:
            od.clear()
            od.update(dict.fromkeys(lru_order.tolist()))
            lru_order = None

    def apply_boundary(epoch: int) -> None:
        batch = policy.epoch_boundary(epoch)
        if batch is None:
            return
        resync()
        new_set = set(batch)
        inserted, _removed = cache.replace_contents(new_set)
        if inserted:
            # Batch allocation-writes belong to the calendar day
            # containing the epoch boundary (boundary k fires at
            # k * epoch_seconds): the reference path's begin_day calls.
            boundary_time = float(epoch) * epoch_seconds
            stats.record_allocation_write(boundary_time, inserted)

    current_epoch = start_epoch
    cursor = start_cursor
    for base, chunk_cols in chunks:
        issue_times = chunk_cols.issue_time
        completion_times = chunk_cols.completion_time
        issue_l = issue_times.tolist()
        addr_l = chunk_cols.address.tolist()
        count_l = chunk_cols.block_count.tolist()
        write_l = chunk_cols.is_write.tolist()
        chunk_n = len(issue_l)
        # Hits per request: all the loops below put out.  Statistics
        # are recorded from it and the columns, rows [recorded, upto) at
        # every sync site (CacheStats.record_rows).
        hits = array("q", bytes(8 * chunk_n))
        hit_column = np.frombuffer(hits, dtype=np.int64)
        # Write-through: every written block reaches the ensemble.
        recorded_columns = [
            issue_times, completion_times, chunk_cols.block_count,
            chunk_cols.is_write, hit_column,
            chunk_cols.block_count * chunk_cols.is_write,
        ]
        # Rows the cursor already covers are skipped (a resume can land
        # mid-chunk when the chunk iterator is coarser than the cursor).
        recorded = local_start = min(max(cursor - base, 0), chunk_n)
        scalar_rows = ()
        if bulk:
            # A request running past midnight spreads its allocations
            # over two days, block by block: the scalar road (days
            # uncapped — past the last day it leads to the same sums).
            straddles = subwindow_indices(
                issue_times, day_seconds
            ) != subwindow_indices(completion_times, day_seconds)
            allocates = ~chunk_cols.is_write if wmode == _W_NOT_WRITE else True
            recorded_columns.append(~straddles & allocates)
            scalar_rows = set(np.flatnonzero(straddles & allocates).tolist())
        # The rows where something other than a request happens; every
        # one but a progress tick reads the cache or the hit column, so
        # AOD's rows are settled there, in one go.
        epochs, stops, ticks = chunk_stops(
            issue_times, epoch_seconds, base, local_start,
            checkpoint_every, progress_every, scalar_rows,
        )
        lru_from = local_start
        # Sieve precompute windows and runs never span chunks: reset so
        # the first sieved request of this chunk starts new ones.
        sl_end = run_end = local_start
        for lo, hi in zip(stops, stops[1:]):
            epoch = int(epochs[lo])
            if epoch > current_epoch:
                while current_epoch < epoch:
                    current_epoch += 1
                    apply_boundary(current_epoch)
                    if boundary_hook is not None:
                        boundary_hook(current_epoch, base + lo)
                if omode == _O_COUNTER:
                    counts = policy._epoch_counts
                elif omode == _O_SET:
                    seen = policy._seen_this_epoch

            # Reference-order general body: observe every block, ask
            # wants() on every miss (stateful sieves consume the miss
            # stream in exactly this order).  The bulk modes send it
            # their day-straddling requests, for the blocks' offsets.
            head = hi if general else lo + (lo in scalar_rows)
            if head > lo and lru_order is not None:
                resync()
            for jl in range(lo, head):
                issue = issue_l[jl]
                addr = addr_l[jl]
                w = write_l[jl]
                hit = 0
                for a in range(addr, addr + count_l[jl]):
                    if a in od:
                        od_move(a)
                        if do_observe:
                            observe(a, w, issue, True)
                        hit += 1
                    else:
                        if do_observe:
                            observe(a, w, issue, False)
                        if (
                            wmode == _W_TRUE
                            or (wmode == _W_NOT_WRITE and not w)
                            or (wmode == _W_CALL and wants(a, w, issue))
                        ):
                            if len(od) >= capacity:
                                od_pop(False)
                            od[a] = None
                            admitted.append(a - addr)
                hits[jl] = hit
                if admitted:
                    _record_allocations(
                        stats, issue, completion_times[jl].item(),
                        count_l[jl], admitted,
                    )
                    admitted.clear()

            if wmode == _W_SIEVE:
                # SieveStore-C, one run of same-subwindow requests at a
                # time: the kernel settles its hits and cold rejections
                # at the run's head (repro.core.sieve_kernel), and only
                # the events meet the policy's ladder, in order.
                jl = lo
                while jl < hi:
                    if jl >= run_end:
                        if jl >= sl_end:
                            sl_end = min(jl + _SIEVE_CHUNK, chunk_n)
                            kernel.precompute_chunk(
                                chunk_cols.address[jl:sl_end],
                                chunk_cols.block_count[jl:sl_end],
                                issue_times[jl:sl_end],
                            )
                        run_start = jl
                        run_len, c_starts, head_hits = kernel.begin_run()
                        run_end = jl + run_len
                        hit_column[jl:run_end] = head_hits
                        events = kernel.events()
                        walked = 0
                    jl = min(run_end, hi)
                    stop = int(c_starts[jl - run_start])
                    while walked < len(events) and events[walked][0] < stop:
                        at, a, slot, sub, r = events[walked]
                        walked += 1
                        row = run_start + r
                        # Decision order matches the reference exactly:
                        # the hits before a block move recency before it
                        # does, and every miss is counted in one tier.
                        if a in od:  # admitted earlier in the run
                            for b in recency(at):
                                od_move(b)
                            od_move(a)
                            hits[row] += 1
                            continue
                        if a in mct_counters:
                            if not tier2(a, issue_l[row]):
                                continue
                        elif slot < 0:
                            kernel.reject(at)  # tracked at the head, pruned since
                            continue
                        elif not tier1(a, slot, sub):
                            continue
                        # Admission (either tier): install the block.
                        for b in recency(at):
                            od_move(b)
                        if len(od) >= capacity:
                            lost = kernel.evict(od_pop(False)[0], at)
                            if lost.size:
                                np.subtract.at(hit_column, run_start + lost, 1)
                                events = kernel.events(at)
                                walked = 0
                        od[a] = None
                        installed.append((row, a - addr_l[row]))
                    for b in recency(stop):
                        od_move(b)
                    for row, group in groupby(installed, itemgetter(0)):
                        _record_allocations(
                            stats, issue_l[row], completion_times[row].item(),
                            count_l[row], [offset for _, offset in group],
                        )
                    installed.clear()
            elif wmode == _W_FALSE:
                if omode == _O_COUNTER:
                    for jl in range(head, hi):
                        addr = addr_l[jl]
                        hit = 0
                        for a in range(addr, addr + count_l[jl]):
                            counts[a] += 1
                            if a in od:
                                od_move(a)
                                hit += 1
                        hits[jl] = hit
                elif omode == _O_SET:
                    for jl in range(head, hi):
                        addr = addr_l[jl]
                        hit = 0
                        for a in range(addr, addr + count_l[jl]):
                            seen.add(a)
                            if a in od:
                                od_move(a)
                                hit += 1
                        hits[jl] = hit
                else:
                    for jl in range(head, hi):
                        addr = addr_l[jl]
                        hit = 0
                        for a in range(addr, addr + count_l[jl]):
                            if a in od:
                                od_move(a)
                                hit += 1
                        hits[jl] = hit
            elif wmode == _W_TRUE:
                # AOD: every miss allocated, so the hits follow from
                # reuse distances alone (repro.cache.replacement); the
                # rows since the last settle site go in one call (a
                # scalar row, itself a settle site, went through above).
                if head > lo:
                    lru_from = head
                if hi not in ticks:
                    if lru_from < hi:
                        if lru_order is None:
                            lru_order = np.fromiter(od, np.int64, len(od))
                        lru_order = _replay_lru(
                            lru_order, capacity,
                            chunk_cols.address[lru_from:hi],
                            chunk_cols.block_count[lru_from:hi],
                            hit_column[lru_from:hi],
                        )
                    lru_from = hi
            else:
                # WMNA (observe is the no-op): a write miss allocates
                # nothing, so the block stream depends on the state;
                # allocated = read blocks - read hits.  Free frames are
                # counted once per stretch, not on every read miss.
                free = capacity - len(od)
                for jl in range(head, hi):
                    addr = addr_l[jl]
                    hit = 0
                    if write_l[jl]:
                        for a in range(addr, addr + count_l[jl]):
                            if a in od:
                                od_move(a)
                                hit += 1
                    else:
                        for a in range(addr, addr + count_l[jl]):
                            if a in od:
                                od_move(a)
                                hit += 1
                            else:
                                if free > 0:
                                    free -= 1
                                else:
                                    od_pop(False)
                                od[a] = None
                    hits[jl] = hit

            done = base + hi
            if checkpoint_every is not None and done % checkpoint_every == 0:
                resync()
                if kernel is not None:
                    # Mid-run: flush only the blocks replayed so far.
                    kernel.flush(stop)
                stats.record_rows(*(c[recorded:hi] for c in recorded_columns))
                recorded = hi
                checkpointer(done, current_epoch)
            if progress_every is not None and done % progress_every == 0:
                progress_hook(done, current_epoch)

        # End of chunk: record the rest of it, advance the cursor (max()
        # so a chunk wholly behind a resume cursor can never move it
        # backwards) and give the caller a consistent state to checkpoint.
        stats.record_rows(*(c[recorded:] for c in recorded_columns))
        chunk_end_row = base + chunk_n
        if chunk_end_row > cursor:
            cursor = chunk_end_row
        if segment_hook is not None:
            resync()
            if kernel is not None:
                kernel.sync()
            segment_hook(cursor, current_epoch)

    # Trailing epoch boundaries (discrete policies close their books).
    while current_epoch < total_epochs - 1:
        current_epoch += 1
        apply_boundary(current_epoch)
        if boundary_hook is not None:
            boundary_hook(current_epoch, cursor)
    resync()
    if kernel is not None:
        # The policy object must reflect the run before the caller
        # samples sieve telemetry or pickles a final state.
        kernel.sync()
