"""The SieveStore appliance: sieve + cache + SSD accounting in one node.

Figure 4 of the paper: SieveStore deploys as a transparent caching
appliance interposed (logically) between the servers and the storage
ensemble.  Every block request is checked against the SSD-resident
cache; hits are served from the SSD, misses go to the underlying
ensemble, and the allocation policy (the sieve) decides which missed
blocks earn a frame.

This class is the production-facing composition used by the examples
and driven by :mod:`repro.sim.engine`; it faithfully implements the
paper's accounting:

* hit/miss/allocation-write counts at 512-byte block granularity;
* per-minute SSD traffic in 4-KB units (sub-4KB charged as full units);
* allocation-writes scheduled at the *completion time* of the request
  that missed, "because allocation requests can occur only after the
  data has been fetched from the underlying storage" (Section 4), with
  per-block completions linearly interpolated for multi-block requests;
* discrete batch moves optionally staggered off the critical path (the
  paper's assumption for SieveStore-D's epoch moves).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cache.allocation import AllocationPolicy
from repro.cache.block_cache import BlockCache
from repro.cache.stats import CacheStats, _record_allocations
from repro.cache.write_policy import DirtyTracker, WriteMode
from repro.faults.injector import DeviceHealth, FaultInjector


class SieveStoreAppliance:
    """One ensemble-level cache node: cache + allocation policy + stats.

    Args:
        cache: the SSD block cache (metastate only).
        policy: the allocation policy / sieve.
        stats: statistics sink (per-day and per-minute).  Epoch batch
            moves are counted as allocation-writes in the day totals but
            not charged to any minute's SSD occupancy: the paper's
            SieveStore-D schedules them into idle periods.  Continuous
            allocation-writes are always charged.
        epoch_seconds: period of the policy's batch boundaries.  The
            paper's epoch is one calendar day (the default); the
            Section 5.1 sensitivity analysis shortens it.  Epoch index
            ``k``'s boundary fires at ``k * epoch_seconds``, and its
            batch allocation-writes are attributed to the calendar day
            containing that instant — for sub-day epochs this is *not*
            day ``k``.
        write_mode: write-through (the paper-equivalent default — the
            ensemble sees every write immediately) or write-back (the
            non-volatile cache absorbs writes and flushes dirty blocks
            on eviction, coalescing repeated writes to hot blocks).
            Only backing-store accounting differs; the SSD-side figures
            are identical in both modes.
        faults: optional :class:`~repro.faults.injector.FaultInjector`,
            which owns the device-health machine
            (:class:`~repro.faults.injector.DeviceHealth`).  With
            ``None`` (the default) the device stays HEALTHY: health is
            never evaluated and no wear is recorded.

    This appliance's reactions to the device's health: in DEGRADED an
    SSD read that errors is counted as a miss plus ``read_errors`` (the
    block stays resident), an SSD write that errors invalidates the
    frame and routes the write to the ensemble (``write_errors``), and a
    failed allocation write suppresses the insert.  Entering BYPASS is
    whole-device data loss: dirty blocks are force-flushed (write-back
    correctness) and the cache contents dropped (the serving cache,
    :class:`~repro.serve.appliance.ServingCache`, keeps its bytes
    instead).

    Epoch batch moves are background, retriable transfers, so they are
    not subject to per-operation transient errors — but they do count
    toward endurance wear, and are suppressed entirely in BYPASS.
    """

    def __init__(
        self,
        cache: BlockCache,
        policy: AllocationPolicy,
        stats: CacheStats,
        write_mode: WriteMode = WriteMode.WRITE_THROUGH,
        epoch_seconds: float = 86400.0,
        faults: Optional[FaultInjector] = None,
    ):
        self.cache = cache
        self.policy = policy
        self.stats = stats
        self.write_mode = write_mode
        self.epoch_seconds = float(epoch_seconds)
        self.dirty = DirtyTracker()
        self.faults = faults

    def begin_day(self, day: int) -> int:
        """Apply the policy's epoch batch for epoch ``day``; returns blocks moved in.

        Allocation-writes for batch moves are attributed to the epoch
        boundary's instant, ``day * epoch_seconds`` — and hence to the
        calendar day containing it — and kept out of minute accounting
        (the paper's assumption that moves ride idle bandwidth).
        """
        boundary_time = float(day) * self.epoch_seconds
        if self.faults is not None and self.faults.advance(boundary_time) is DeviceHealth.BYPASS:
            # The device is gone: the policy's epoch state must still
            # advance, but nothing can be installed.
            if len(self.cache):
                self._lose_contents(boundary_time)
            self.policy.epoch_boundary(day)
            return 0
        batch = self.policy.epoch_boundary(day)
        if batch is None:
            return 0
        new_set = set(batch)  # materialize once; the batch may be lazy
        if self.write_mode is WriteMode.WRITE_BACK and len(self.dirty):
            evicted_dirty = [
                address
                for address in self.cache.residents()
                if address not in new_set and address in self.dirty
            ]
            if evicted_dirty:
                flushed = self.dirty.clean_many(evicted_dirty)
                self.stats.record_backing_write(
                    boundary_time, blocks=flushed, is_writeback=True
                )
        inserted, _removed = self.cache.replace_contents(new_set)
        if inserted:
            self.stats.record_allocation_write(boundary_time, blocks=inserted)
            if self.faults is not None:
                self.faults.record_ssd_write(boundary_time, inserted)
        return inserted

    def process_row(
        self, base: int, n: int, is_write: bool, issue: float,
        completion: float, observe, slots=None, first: int = 0,
        subwindow: int = 0, deferred=None,
    ) -> Tuple[int, int, int]:
        """Decide one request given as fields: the ``n`` blocks from
        packed address ``base``, issued at ``issue``.

        ``observe`` is :func:`~repro.cache.allocation.observe_hook`'s
        answer, resolved once by the caller.  A caller that hashed the
        request's blocks for a SieveStore-C whose ladder the sieve
        kernel may drive passes block ``i``'s IMCT slot at
        ``slots[first + i]`` and the request's ``subwindow``; each miss
        then takes the policy's ``wants_hashed`` instead of ``wants``,
        save a cold rejection — a miss on a slot coded ``~slot`` (cold
        for the caller's run) by a block outside the MCT — whose
        position ``first + i`` is only appended to ``deferred``, for the
        caller to record with its run's others; such a caller settles a
        request of cold rejections only through :meth:`react` instead.

        Returns ``(hit_blocks, backing_blocks, allocated_blocks)``: the
        caller records the first two with the request's columns
        (:meth:`~repro.cache.stats.CacheStats.record_rows`).  Only what
        columns cannot say is recorded here: allocation-writes at their
        blocks' completion times, evict-time writebacks, device errors
        and bypassed accesses.

        Without a fault plan the device is always healthy: nothing is
        degraded and no wear is recorded.
        """
        faults = self.faults
        policy = self.policy
        stats = self.stats
        resident = self.cache._order  # LRU order, least recent first
        health = self.react(issue, n) if faults is not None else None
        degraded = health is DeviceHealth.DEGRADED
        # Pass-through: the cache is empty in BYPASS, so every block
        # misses; the sieve still observes and miss-counts so blocks
        # re-earn allocation after recovery, but nothing is installed.
        bypass = health is DeviceHealth.BYPASS
        span = completion - issue

        touch = resident.move_to_end
        write_back = self.write_mode is WriteMode.WRITE_BACK
        if slots is not None:
            tracked, defer = policy._mct_counters, deferred.append
        hit_blocks = 0
        backing_writes = 0
        admitted = []  # block offsets this request installed
        for offset, address in enumerate(range(base, base + n)):
            hit = address in resident
            if hit:
                touch(address)
            if hit and degraded:
                # An errored resident block is not tallied as a hit, so
                # it is recorded with the request's misses.
                if is_write and faults.write_fails(issue):
                    # The frame no longer holds valid data: invalidate
                    # it and let the ensemble take the write (the new
                    # data supersedes any dirty content block-wholly).
                    stats.record_write_error(issue)
                    del resident[address]
                    if write_back:
                        self.dirty.clean(address)
                    if observe is not None:
                        observe(address, is_write, issue, False)
                    backing_writes += 1
                    continue
                if not is_write and faults.read_fails(issue):
                    # Fall back to the backing ensemble; the block stays
                    # resident and may serve the next access.
                    stats.record_read_error(issue)
                    if observe is not None:
                        observe(address, is_write, issue, False)
                    continue
            if observe is not None:
                observe(address, is_write, issue, hit)
            if hit:
                hit_blocks += 1
                if is_write:
                    if faults is not None:
                        faults.record_ssd_write(issue, 1)
                    if write_back:
                        self.dirty.mark(address)
                    else:
                        backing_writes += 1
                continue
            if slots is None:
                allocate = policy.wants(address, is_write, issue)
            elif slots[first + offset] < 0 and address not in tracked:
                defer(first + offset)
                allocate = False
            else:
                allocate = policy.wants_hashed(
                    address, slots[first + offset], subwindow, issue
                )
            if allocate and not bypass and address not in resident:
                done = issue + span * ((offset + 1) / n)
                if degraded and faults.write_fails(done):
                    # The allocation write errored: suppress the insert;
                    # the sieve keeps observing, so the block can earn a
                    # frame again once the device behaves.
                    stats.record_write_error(done)
                else:
                    victim = self.cache.insert(address)
                    admitted.append(offset)
                    if faults is not None:
                        faults.record_ssd_write(done, 1)
                    if victim is not None and self.dirty.clean(victim):
                        stats.record_backing_write(done, is_writeback=True)
                    if is_write and write_back:
                        # The allocated frame holds the new data; the
                        # ensemble has not seen this write yet.
                        self.dirty.mark(address)
                        continue
            if is_write:
                # Write misses (and write-allocations under
                # write-through) reach the backing ensemble directly.
                backing_writes += 1

        if admitted:
            # Charged when the fetched data is available: each block at
            # its interpolated completion, the request's contiguous
            # insertion in ceil(allocated/8) 4-KB units at completion.
            _record_allocations(stats, issue, completion, n, admitted)
        return hit_blocks, backing_writes, len(admitted)

    def react(self, issue: float, n: int) -> DeviceHealth:
        """Walk the device's health (a fault plan is attached) to a request
        of ``n`` blocks issued at ``issue`` and return it; in BYPASS count
        its accesses, the first such request losing the cache's contents."""
        health = self.faults.advance(issue)
        if health is DeviceHealth.BYPASS:
            if self.cache._order:
                self._lose_contents(issue)
            self.stats.record_bypass_access(issue, n)
        return health

    def _lose_contents(self, time: float) -> None:
        """React to entering BYPASS (nothing is installed there, so only
        the first request or boundary in it finds contents to lose):
        dirty blocks are force-flushed, then the cache contents dropped,
        so a recovered device starts cold and the sieve re-earns
        allocations."""
        self.flush_dirty(time)
        self.cache.clear()

    def flush_dirty(self, time: float) -> int:
        """Write every dirty block back to the ensemble (shutdown path).

        Returns the number of blocks flushed.  A no-op under
        write-through, where nothing is ever dirty.
        """
        flushed = self.dirty.drain()
        if flushed:
            self.stats.record_backing_write(
                time, blocks=len(flushed), is_writeback=True
            )
        return len(flushed)
