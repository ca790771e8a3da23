"""Columnar fast path for the trace-driven simulation engine.

:func:`repro.sim.engine.simulate` is the reference implementation: one
:class:`~repro.core.appliance.SieveStoreAppliance` method call per
request, one cache/policy/stats call per 512-byte block.  That chain of
small Python calls dominates simulation wall-clock.  This module
decides the same semantics over the columnar trace, as
:class:`FastStretches` and its subclasses, the fast side of the two
kinds of stretch decider the engine's one walk
(:func:`repro.sim.engine._walk`) drives.  Each policy brings its own
(:meth:`~repro.cache.allocation.AllocationPolicy.stretch_decider`):

* the walk finds per chunk, in a few vectorized passes, the rows where
  anything but a request happens — an epoch boundary, a checkpoint or
  progress tick, and the one kind of stop the allocating deciders add,
  a request running past midnight — and hands the stretches between
  them to the decider's block loop, which contains requests and
  nothing else: its one output is a hit count per request;
* :class:`FastStretches` itself is the general decider, any policy's
  unless it brings a faster one: every block observed, ``wants`` asked
  on every miss, in exactly the reference order;
* allocate-on-demand (:class:`AodStretches`) walks no blocks: every
  miss is allocated, so a block hits iff fewer than ``capacity``
  distinct blocks came between it and its previous access, and
  :func:`~repro.cache.replacement.lru_pass` settles every row since
  the last stop that reads the cache or the hit column (any stop but a
  progress tick) with one sort; the cache's ``OrderedDict`` is rebuilt
  from the resulting order, in place, only where the cache is read (a
  chunk's end reads only the hit column).  WMNA
  (:class:`WmnaStretches`, whose write misses allocate nothing, so its
  block stream depends on the state), the batch-only family
  (:class:`BatchStretches`: hits, and the policy's per-epoch access log
  updated a request at a time) and the general decider drive that
  ``OrderedDict`` — the cache's one structure, resident set and recency
  order at once — directly (membership test + ``move_to_end`` +
  ``popitem(last=False)``);
* statistics are recorded from columns
  (:meth:`~repro.cache.stats.CacheStats.record_rows`: every block of a
  request shares the request's issue time, so the per-block recording
  of the reference path lands in the same buckets), up to the cursor at
  every site where someone can look — a checkpoint, a chunk's end.
  Only the rare allocations stay scalar: a sieve admission, and the
  per-block interpolated completion times of a request that straddles
  a day boundary;
* SieveStore-C (:class:`SieveStretches`) walks events, not blocks: at
  each run's head the sieve kernel (:mod:`repro.core.sieve_kernel`)
  settles every hit (counted per request, its recency moved in bulk)
  and every cold rejection (recorded in one batch), and only the misses
  it cannot decide go through the policy's own ladder
  (:meth:`~repro.core.sievestore_c.SieveStoreC.tier1` /
  :meth:`~repro.core.sievestore_c.SieveStoreC.tier2`), the one copy
  the object engine runs too.

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

import numpy as np

from repro.cache.allocation import AllocationPolicy, observe_hook
from repro.cache.block_cache import BlockCache
from repro.cache.replacement import lru_pass
from repro.cache.stats import CacheStats, _record_allocations
from repro.core.sieve_kernel import SieveStoreCKernel, subwindow_indices
from repro.traces.columnar import expand_blocks
from repro.util.intervals import SECONDS_PER_DAY

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


class FastStretches:
    """The fast loop's side of the one walk
    (:func:`repro.sim.engine._walk`), over ``policy``, ``stats`` and
    ``cache`` (an LRU cache); as is, the general decider.

    The walk hands it each chunk (:meth:`chunk`, which names the rows
    the decider adds as stops), each epoch boundary (:meth:`boundary`)
    and each stretch of requests between stops (:meth:`decide`), and
    asks for a state it can pickle at a checkpoint or a chunk's end
    (:meth:`settle`): the cache brought up to the cursor
    (:meth:`resync`), the statistics recorded up to it and the policy
    object fully synced.  At every chunk's end the statistics are
    recorded; elsewhere they (for allocate-on-demand, the cache too)
    trail the cursor.  Only one chunk's columns are held as Python lists
    at a time, so peak memory follows the chunk budget, not the trace.
    Leaves ``stats`` and ``cache`` exactly as the reference path would
    have (same counters, same resident set, same LRU order), whatever
    the chunk edges.

    Subclasses replace :meth:`decide` with a loop specialized to their
    policy family.  Each block loop binds what it reads to locals once
    per stretch; what a stretch leaves for the next (a sieve run that a
    checkpoint cut, AOD rows a progress tick left unsettled) goes back
    to the object at the stretch's end.
    """

    def __init__(self, policy: AllocationPolicy, cache: BlockCache,
                 stats: CacheStats, epoch_seconds: float):
        self.policy, self.cache, self.stats = policy, cache, stats
        self.epoch_seconds = epoch_seconds
        self.od = cache._order

    def resync(self) -> None:
        """Bring the cache up to the replay (only AOD lets it trail)."""

    def chunk(self, columns, start: int):
        """Take a chunk replayed from row ``start``; returns its extra
        stops."""
        self.columns = columns
        self.issue_l = columns.issue_time.tolist()
        self.addr_l = columns.address.tolist()
        self.count_l = columns.block_count.tolist()
        self.write_l = columns.is_write.tolist()
        # Hits per request: all the loops put out.  Statistics are
        # recorded from it and the columns, rows [recorded, upto) at
        # every sync site (CacheStats.record_rows).
        self.hits = array("q", bytes(8 * len(columns)))
        self.hit_column = np.frombuffer(self.hits, dtype=np.int64)
        # Write-through: every written block reaches the ensemble.
        self.recorded_columns = [
            columns.issue_time, columns.completion_time, columns.block_count,
            columns.is_write, self.hit_column,
            columns.block_count * columns.is_write,
        ]
        self.recorded = start
        return ()

    def boundary(self, epoch: int) -> None:
        batch = self.policy.epoch_boundary(epoch)
        if batch is not None:
            self.resync()
            inserted, _removed = self.cache.replace_contents(set(batch))
            if inserted:
                # Batch allocation-writes belong to the calendar day
                # containing the epoch boundary (boundary k fires at
                # k * epoch_seconds): the reference path's begin_day calls.
                self.stats.record_allocation_write(
                    float(epoch) * self.epoch_seconds, inserted
                )

    def decide(self, lo: int, hi: int, tick: bool) -> None:
        """Replay rows ``[lo, hi)`` in reference order (``tick``: ``hi``
        is a progress tick only, where nothing reads the cache or the
        hit column): observe every block, ask ``wants`` on every miss
        (stateful sieves consume the miss stream in exactly this order).
        The bulk deciders send it their day-straddling requests, for the
        blocks' offsets."""
        self.resync()
        od, capacity, hits, stats = self.od, self.cache.capacity_blocks, self.hits, self.stats
        od_move, od_pop = od.move_to_end, od.popitem
        wants, observe = self.policy.wants, observe_hook(self.policy)
        issue_l, addr_l, count_l, write_l = self.issue_l, self.addr_l, self.count_l, self.write_l
        completion_times = self.columns.completion_time
        admitted: List[int] = []  # block offsets the request in hand installed
        for jl in range(lo, hi):
            issue = issue_l[jl]
            addr = addr_l[jl]
            w = write_l[jl]
            hit = 0
            for a in range(addr, addr + count_l[jl]):
                if a in od:
                    od_move(a)
                    if observe is not None:
                        observe(a, w, issue, True)
                    hit += 1
                else:
                    if observe is not None:
                        observe(a, w, issue, False)
                    if wants(a, w, issue):
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

    def settle(self, row: int, picklable: bool) -> None:
        """Record the statistics up to chunk row ``row``; ``picklable``:
        also bring the cache up to it (it is rebuilt only where it is
        read: a chunk's end under no segment hook reads only the hit
        column)."""
        if picklable:
            self.resync()
        self.stats.record_rows(
            *(c[self.recorded:row] for c in self.recorded_columns)
        )
        self.recorded = row

    def finish(self) -> None:
        self.resync()


class BatchStretches(FastStretches):
    """The batch-only family (:class:`~repro.cache.allocation.NeverAllocate`
    and its subclasses): no miss allocates, so a stretch is its hits and
    the policy's per-epoch access log
    (:meth:`~repro.cache.allocation.NeverAllocate.epoch_log`), updated a
    request at a time and fetched anew after every boundary, which
    replaces it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.log = self.policy.epoch_log()

    def boundary(self, epoch: int) -> None:
        super().boundary(epoch)
        self.log = self.policy.epoch_log()

    def decide(self, lo: int, hi: int, tick: bool) -> None:
        od, hits, log = self.od, self.hits, self.log
        od_move = od.move_to_end
        addr_l, count_l = self.addr_l, self.count_l
        for jl in range(lo, hi):
            addr = addr_l[jl]
            blocks = range(addr, addr + count_l[jl])
            if log is not None:
                log.update(blocks)
            hit = 0
            for a in blocks:
                if a in od:
                    od_move(a)
                    hit += 1
            hits[jl] = hit


class _BulkStretches(FastStretches):
    """Every miss of an allocating row allocated and nothing observed,
    so the allocation-writes, too, are recorded from columns — save a
    request running past midnight, which spreads its allocations over
    two days, block by block: a stop of its own, taken by the general
    body (days uncapped — past the last day it leads to the same sums).
    """

    def allocating(self, columns):
        """Which rows' misses allocate."""
        return True

    def chunk(self, columns, start: int):
        super().chunk(columns, start)
        day_seconds = float(SECONDS_PER_DAY)
        straddles = subwindow_indices(
            columns.issue_time, day_seconds
        ) != subwindow_indices(columns.completion_time, day_seconds)
        allocates = self.allocating(columns)
        self.recorded_columns.append(~straddles & allocates)
        self.scalar_rows = set(np.flatnonzero(straddles & allocates).tolist())
        self.lru_from = start
        return self.scalar_rows

    def decide(self, lo: int, hi: int, tick: bool) -> None:
        if lo in self.scalar_rows:
            # A settle site: the row goes through the general body for
            # its blocks' offsets.
            super().decide(lo, lo + 1, False)
            lo = self.lru_from = lo + 1
        self.stretch(lo, hi, tick)


class AodStretches(_BulkStretches):
    """Allocate on demand: every miss allocated, so the hits follow from
    reuse distances alone (repro.cache.replacement), and the cache's
    order is carried as an array while the ``OrderedDict`` lags behind
    it (see :func:`_replay_lru`)."""

    lru_order = None

    def resync(self) -> None:
        """Bring the cache up to the replay: ``od`` from the order."""
        if self.lru_order is not None:
            self.od.clear()
            self.od.update(dict.fromkeys(self.lru_order.tolist()))
            self.lru_order = None

    def stretch(self, lo: int, hi: int, tick: bool) -> None:
        """The rows since the last settle site go in one call (a scalar
        row, itself a settle site, went through the general body)."""
        if tick:
            return
        lru_from = self.lru_from
        if lru_from < hi:
            if self.lru_order is None:
                self.lru_order = np.fromiter(self.od, np.int64, len(self.od))
            columns = self.columns
            self.lru_order = _replay_lru(
                self.lru_order, self.cache.capacity_blocks,
                columns.address[lru_from:hi], columns.block_count[lru_from:hi],
                self.hit_column[lru_from:hi],
            )
        self.lru_from = hi


class WmnaStretches(_BulkStretches):
    """Write-miss no-allocate: a write miss allocates nothing, so the
    block stream depends on the state; allocated = read blocks - read
    hits.  Free frames are counted once per stretch, not on every read
    miss."""

    def allocating(self, columns):
        return ~columns.is_write

    def stretch(self, lo: int, hi: int, tick: bool) -> None:
        od, hits = self.od, self.hits
        od_move, od_pop = od.move_to_end, od.popitem
        addr_l, count_l, write_l = self.addr_l, self.count_l, self.write_l
        free = self.cache.capacity_blocks - len(od)
        for jl in range(lo, hi):
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


class SieveStretches(FastStretches):
    """SieveStore-C, one run of same-subwindow requests at a time: the
    kernel settles its hits and cold rejections at the run's head
    (repro.core.sieve_kernel), and only the events meet the policy's
    ladder, in order.  Every other decision is the policy's own
    tier1/tier2, so after a flush the policy object is the whole sieve
    state, ready to pickle."""

    def __init__(self, *args):
        super().__init__(*args)
        self.kernel = SieveStoreCKernel(self.policy, self.od)
        self.run_start = self.walked = self.stop = 0
        self.c_starts = self.events = None

    def chunk(self, columns, start: int):
        # Precompute windows and runs never span chunks: reset so the
        # first request of this chunk starts new ones.
        self.sl_end = self.run_end = start
        return super().chunk(columns, start)

    def decide(self, lo: int, hi: int, tick: bool) -> None:
        kernel, policy, stats = self.kernel, self.policy, self.stats
        recency, tier1, tier2 = kernel.recency, policy.tier1, policy.tier2
        mct_counters = policy.mct._counters
        od, capacity = self.od, self.cache.capacity_blocks
        od_move, od_pop = od.move_to_end, od.popitem
        hits, hit_column = self.hits, self.hit_column
        issue_l, addr_l, count_l = self.issue_l, self.addr_l, self.count_l
        columns = self.columns
        chunk_n = len(issue_l)
        sl_end, run_end, run_start = self.sl_end, self.run_end, self.run_start
        c_starts, events, walked = self.c_starts, self.events, self.walked
        installed: List[Tuple[int, int]] = []  # (row, block offset)
        jl = lo
        while jl < hi:
            if jl >= run_end:
                if jl >= sl_end:
                    sl_end = min(jl + _SIEVE_CHUNK, chunk_n)
                    kernel.precompute_chunk(
                        columns.address[jl:sl_end],
                        columns.block_count[jl:sl_end],
                        columns.issue_time[jl:sl_end],
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
                # Decision order matches the reference exactly: the hits
                # before a block move recency before it does, and every
                # miss is counted in one tier.
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
                    stats, issue_l[row], columns.completion_time[row].item(),
                    count_l[row], [offset for _, offset in group],
                )
            installed.clear()
        self.sl_end, self.run_end, self.run_start = sl_end, run_end, run_start
        self.c_starts, self.events, self.walked = c_starts, events, walked
        self.stop = stop

    def settle(self, row: int, picklable: bool) -> None:
        if picklable:
            # Mid-run: flush only the blocks replayed so far (at a
            # chunk's end the run ends there too).
            self.kernel.flush(self.stop)
        super().settle(row, picklable)

    def finish(self) -> None:
        # The policy object must reflect the run before the caller
        # samples sieve telemetry or pickles a final state.
        self.kernel.sync()
