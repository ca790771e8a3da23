"""Columnar fast path for the trace-driven simulation engine.

:func:`repro.sim.engine.simulate` is the reference implementation: one
:class:`~repro.core.appliance.SieveStoreAppliance` method call per
request, one cache/policy/stats call per 512-byte block.  That chain of
small Python calls dominates simulation wall-clock.  This module
replays the same semantics as one flat loop over the columnar trace:

* the LRU metastate is driven directly through the cache's
  ``OrderedDict`` (membership test + ``move_to_end`` +
  ``popitem(last=False)``), with the cache's resident *set* resynced
  only at epoch boundaries and at the end of the run;
* per-day hit/miss/backing counters are bumped once per request
  (every block of a request shares the request's issue time, so the
  per-block recording of the reference path lands in the same bucket);
* allocation-writes are counted in one step when the whole request
  completes within one calendar day — the per-block interpolated
  completion times are only materialized for the rare requests that
  straddle a day boundary;
* the policy's ``wants``/``observe`` hooks are specialized by *method
  identity*: a policy whose ``wants`` is literally
  ``AllocateOnDemand.wants`` allocates every miss without a Python
  call, while any override (including subclasses that re-define the
  method) falls back to per-miss calls in exactly the reference order.

The fast path covers the configuration every figure uses — LRU
replacement and write-through accounting.  Anything else (write-back,
ablation replacement policies) is routed to the reference path by
:func:`repro.sim.engine.simulate`; the equivalence suite asserts the
two paths produce bit-identical :class:`~repro.cache.stats.CacheStats`.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.cache.allocation import (
    AllocateOnDemand,
    AllocationPolicy,
    NeverAllocate,
    StaticSet,
    WriteMissNoAllocate,
)
from repro.cache.block_cache import BlockCache
from repro.cache.replacement import LRUReplacement
from repro.cache.stats import CacheStats
from repro.core.ideal import IdealDailySieve
from repro.core.random_sieve import RandSieveBlkD
import numpy as np

from repro.core.sieve_kernel import SieveStoreCKernel
from repro.core.sieve_kernel import subwindow_indices
from repro.core.sieve_kernel import supports as _sieve_supported
from repro.core.sievestore_d import SieveStoreD
from repro.core.windows import COUNTER_SATURATION
from repro.util.intervals import SECONDS_PER_DAY

# wants() specializations, resolved once per run by method identity.
_W_TRUE = 0  # allocate every miss (AOD)
_W_FALSE = 1  # never allocate continuously (discrete sieves, oracles)
_W_NOT_WRITE = 2  # allocate read misses only (WMNA)
_W_CALL = 3  # stateful/unknown: call policy.wants per miss
_W_SIEVE = 4  # plain SieveStore-C: inline array-backed sieve kernel

#: Requests per vectorized sieve-kernel precompute pass.
_SIEVE_CHUNK = 1 << 16

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


def _sync_sieve_counters(
    kernel,
    policy,
    imct,
    per_day,
    single_tier: bool,
    s_misses0: int,
    s_recorded0: int,
    s_imct_rej0: int,
    s_promos0: int,
    s_mct_rej0: int,
    s_adms0: int,
    s_collisions: int,
    s_promos: int,
    s_mct_rej: int,
    s_adms: int,
) -> None:
    """Flush kernel lists and counter locals into the policy object.

    Counter assignments come after ``sync()``: write_back restores a
    stale ``recorded_misses`` from the kernel's init-time snapshot; the
    locals are authoritative.  The derived counters (see the kernel
    setup comment in the loop): this segment's stats misses split
    exactly across the four sieve outcomes, of which only IMCT
    rejections went uncounted in the loop, so the two hot-path totals
    fall out of the deltas against the run-start baselines.  Idempotent
    at any cursor, so checkpoint, segment-boundary, and end-of-run
    sites all share it.
    """
    kernel.sync()
    misses = sum(d.accesses - d.read_hits - d.write_hits for d in per_day) - s_misses0
    adms_d = s_adms - s_adms0
    if single_tier:
        recorded = misses
        rejections = misses - adms_d
    else:
        recorded = misses - (s_mct_rej - s_mct_rej0) - adms_d
        rejections = recorded - (s_promos - s_promos0)
    imct.recorded_misses = s_recorded0 + recorded
    imct.alias_collisions = s_collisions
    policy.imct_rejections = s_imct_rej0 + rejections
    policy.promotions = s_promos
    policy.mct_rejections = s_mct_rej
    policy.admissions = s_adms


def simulate_fast_chunks(
    chunks,
    policy: AllocationPolicy,
    capacity_blocks: int,
    days: int,
    track_minutes: bool,
    batch_moves_staggered: bool,
    epoch_seconds: float,
    total_epochs: int,
    stats: "CacheStats" = None,
    cache: "BlockCache" = None,
    start_cursor: int = 0,
    start_epoch: int = -1,
    checkpoint_every: int = None,
    checkpointer=None,
    boundary_hook=None,
    progress_every: int = None,
    progress_hook=None,
    segment_hook=None,
) -> Tuple[CacheStats, BlockCache]:
    """Replay a stream of columnar chunks through ``policy``.

    ``chunks`` yields ``(base_row, columns)`` pieces of one trace in
    issue order — contiguous, ascending, never overlapping (a
    :meth:`~repro.traces.segments.SegmentStore.iter_chunks` iterator,
    or one in-RAM trace as a single chunk).  Rows before
    ``start_cursor`` within the first chunk are skipped, so resuming
    mid-chunk and resuming with a pre-trimmed iterator both work.  Only
    one chunk's columns are materialized as Python lists at a time:
    peak memory follows the chunk budget, not the trace.

    Chunk boundaries are invisible in the results — bucketing,
    ordering, and counter semantics do not depend on them, which the
    segmented-pipeline equivalence suite asserts byte for byte.
    Returns ``(stats, cache)`` exactly as the reference path would have
    left them (same counters, same resident set, same LRU order).

    Checkpoint/resume: passing ``stats``/``cache``/``start_cursor``/
    ``start_epoch`` (all restored from one checkpoint) continues a run
    mid-trace; ``checkpointer(cursor, current_epoch)`` is invoked every
    ``checkpoint_every`` requests, and ``segment_hook(cursor,
    current_epoch)`` after each chunk (the per-segment checkpoint site
    of out-of-core runs), both with the cache's resident set resynced
    and (for the sieve kernel) the policy object fully synced, so the
    callback can pickle ``policy``/``cache``/``stats`` as-is.  The
    driver for both is :mod:`repro.sim.engine`.

    Observability: ``boundary_hook(epoch, cursor)`` fires after each
    epoch boundary is applied; ``progress_hook(requests_done,
    current_epoch)`` fires every ``progress_every`` requests.  Both are
    telemetry-only — they must not mutate simulation state — and when
    left ``None`` cost one predicate test per boundary/request.
    """
    if stats is None:
        stats = CacheStats(days=days, track_minutes=track_minutes)
    if cache is None:
        cache = BlockCache(capacity_blocks, replacement=LRUReplacement())
    replacement = cache.replacement

    od = replacement._order
    od_move = od.move_to_end
    od_pop = od.popitem
    per_day = stats.per_day
    record_ssd_io = stats.record_ssd_io
    capacity = capacity_blocks
    last_day = days - 1
    day_seconds = float(SECONDS_PER_DAY)

    wmode = _wants_mode(policy)
    omode = _observe_mode(policy)
    wants = policy.wants
    observe = policy.observe
    # Specialized observe targets; these containers are *replaced* by
    # their policies at epoch boundaries, so they are rebound after
    # every boundary below.
    counts = policy._epoch_counts if omode == _O_COUNTER else None
    seen = policy._seen_this_epoch if omode == _O_SET else None
    # Discrete/constant-False policies never allocate inside an epoch,
    # and hits do not change the resident *set* — only its recency — so
    # their cache._resident stays valid between boundaries.  Allocating
    # modes mutate the OrderedDict only; resync before batches/at end.
    may_allocate = wmode != _W_FALSE

    # -- sieve-kernel state (only when wmode == _W_SIEVE) -----------------
    # The kernel owns the IMCT as flat lists for the run; every counter
    # the object path maintains is tracked in plain locals (deliberately
    # not a closure — cell variables would slow the per-miss increments)
    # and written back into the policy object before any checkpoint
    # pickle and at end of run, so the policy stays the engine-agnostic
    # source of truth.
    kernel = None
    if wmode == _W_SIEVE:
        kernel = SieveStoreCKernel(policy)
        s_counts = kernel.counts
        s_last = kernel.last
        s_totals = kernel.totals
        k_w = kernel.k
        n_slots = kernel.n_slots
        saturation = COUNTER_SATURATION
        imct = policy.imct
        s_lastaddr = imct._last_address  # None unless collision tracking
        tracking = s_lastaddr is not None
        mct = policy.mct
        mct_counters = mct._counters
        mct_record = mct.record_miss
        mct_track = mct.track
        mct_forget = mct.forget
        single_tier = policy.config.single_tier_admission
        t1 = policy.config.t1
        t2 = policy.config.t2
        s_collisions = imct.alias_collisions
        s_promos = policy.promotions
        s_mct_rej = policy.mct_rejections
        s_adms = policy.admissions
        # imct_rejections (the dominant outcome by design) and
        # recorded_misses are derived, not incremented per miss: every
        # miss block ends in exactly one of {IMCT rejection, promotion,
        # MCT rejection, admission}, the rare outcomes all keep
        # counters, and the per-day stats already count misses — so the
        # two hot-path totals fall out of the deltas at sync time and
        # the hot loop saves an increment per sieved miss.
        s_recorded0 = imct.recorded_misses
        s_imct_rej0 = policy.imct_rejections
        s_promos0 = s_promos
        s_mct_rej0 = s_mct_rej
        s_adms0 = s_adms
        s_misses0 = sum(
            d.accesses - d.read_hits - d.write_hits for d in per_day
        )
        # Precompute windows are chunk-local (sl_start/sl_end reset at
        # every chunk head); these bindings just establish the types.
        c_subs: List[int] = []
        cis_iter: Iterator[int] = iter(())

    def apply_boundary(epoch: int) -> None:
        batch = policy.epoch_boundary(epoch)
        if batch is None:
            return
        if may_allocate:
            cache._resident = set(od)
        new_set = set(batch)
        inserted, _removed = cache.replace_contents(new_set)
        if inserted:
            # Batch allocation-writes belong to the calendar day
            # containing the epoch boundary (boundary k fires at
            # k * epoch_seconds); identical expression to the reference
            # path's begin_day for bit-identity.
            boundary_time = float(epoch) * epoch_seconds
            day = int(boundary_time // day_seconds)
            if day > last_day:
                day = last_day
            per_day[day].allocation_writes += inserted
            if not batch_moves_staggered:
                record_ssd_io(boundary_time, (inserted + 7) >> 3, True)

    current_epoch = start_epoch
    cursor = start_cursor
    general = wmode == _W_CALL or omode == _O_CALL
    for base, chunk_cols in chunks:
        issue_l = chunk_cols.issue_time.tolist()
        rct_l = chunk_cols.completion_time.tolist()
        addr_l = chunk_cols.address.tolist()
        count_l = chunk_cols.block_count.tolist()
        write_l = chunk_cols.is_write.tolist()
        chunk_n = len(issue_l)
        # Per-request epoch and calendar-day indices, floor-divided in
        # one vectorized pass with Python `//` boundary semantics
        # (subwindow_indices is that generic primitive — the
        # ColumnarTrace.issue_days contract) instead of two float
        # divisions per request in the loop.  Day indices are
        # pre-capped.  Both are elementwise, so chunk boundaries cannot
        # change a value.
        epoch_l = subwindow_indices(chunk_cols.issue_time, epoch_seconds).tolist()
        d_issue_l = np.minimum(
            subwindow_indices(chunk_cols.issue_time, day_seconds), last_day
        ).tolist()
        # Rows the cursor already covers are skipped (a resume can land
        # mid-chunk when the chunk iterator is coarser than the cursor).
        local_start = cursor - base
        if local_start < 0:
            local_start = 0
        # Sieve precompute windows never span chunks: reset so the
        # first sieved request of this chunk repopulates them.
        sl_start = sl_end = local_start
        for jl in range(local_start, chunk_n):
            j = base + jl
            issue = issue_l[jl]
            epoch = epoch_l[jl]
            if epoch > current_epoch:
                while current_epoch < epoch:
                    current_epoch += 1
                    apply_boundary(current_epoch)
                    if boundary_hook is not None:
                        boundary_hook(current_epoch, j)
                if omode == _O_COUNTER:
                    counts = policy._epoch_counts
                elif omode == _O_SET:
                    seen = policy._seen_this_epoch

            addr = addr_l[jl]
            k = count_l[jl]
            w = write_l[jl]
            end = addr + k
            hit = 0
            allocated = 0
            alloc_offsets: Optional[List[int]] = None

            d_issue = d_issue_l[jl]

            if general:
                # Reference-order general body: observe every block, ask
                # wants() on every miss (stateful sieves consume the miss
                # stream in exactly this order).
                rct = rct_l[jl]
                d_rct = int(rct // day_seconds)
                if d_rct > last_day:
                    d_rct = last_day
                same_day = d_rct == d_issue
                do_observe = omode != _O_NONE
                alloc_offsets = []
                for off in range(k):
                    a = addr + off
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
                            if same_day:
                                allocated += 1
                            else:
                                alloc_offsets.append(off)
            elif wmode == _W_SIEVE:
                # Inline SieveStore-C: the two-tier sieve of
                # SieveStoreC.wants unrolled over the kernel's flat lists.
                # Decision order matches the reference exactly — hits move
                # recency first, every miss is counted in exactly one tier,
                # and the (rare) MCT tier calls the live object so prune
                # timing and insert counting stay bit-identical.
                if jl >= sl_end:
                    sl_start = jl
                    sl_end = jl + _SIEVE_CHUNK
                    if sl_end > chunk_n:
                        sl_end = chunk_n
                    c_subs, c_cis = kernel.precompute_chunk(
                        chunk_cols.address[sl_start:sl_end],
                        chunk_cols.block_count[sl_start:sl_end],
                        chunk_cols.issue_time[sl_start:sl_end],
                    )
                    # Blocks are consumed strictly in chunk order (every
                    # request walks all k of its blocks), so one iterator
                    # replaces per-block index arithmetic into c_cis.
                    cis_iter = iter(c_cis)
                # Completion-day bucketing is only consulted when a block is
                # admitted (rare: that is the whole point of the sieve), so
                # rct/same_day are computed lazily at the first admission of
                # the request (d_rct == -1 marks "not yet computed";
                # same_day is assigned there before its first read).
                d_rct = -1
                sub = c_subs[jl - sl_start]
                # The request's column base in the column-major counts list;
                # a block's slot is its precomputed cell index minus this.
                colbase = sub % k_w * n_slots
                if not tracking:
                    # Dominant configuration: no collision diagnostics.
                    # (The tracking copy below must mirror any change here.)
                    for a, ci in zip(range(addr, end), cis_iter):
                        if a in od:
                            od_move(a)
                            hit += 1
                            continue
                        if a in mct_counters:
                            # Tier 2: exact counting (IMCT-promoted only).
                            exact = mct_record(a, issue)
                            if exact < t2:
                                s_mct_rej += 1
                                continue
                            mct_forget(a)
                            s_adms += 1
                        else:
                            # Tier 1: the IMCT recording, inlined.  Running
                            # totals hold each slot's row sum, which equals
                            # its windowed total after lazy advancement
                            # (expired positions are zeroed on record,
                            # untouched positions are zero).
                            slot = ci - colbase
                            if sub != s_last[slot]:
                                ls = s_last[slot]
                                if ls < 0 or sub - ls >= k_w:
                                    c = slot
                                    for _ in range(k_w):
                                        s_counts[c] = 0
                                        c += n_slots
                                    s_totals[slot] = 0
                                else:
                                    t = s_totals[slot]
                                    for g in range(ls + 1, sub + 1):
                                        c = g % k_w * n_slots + slot
                                        t -= s_counts[c]
                                        s_counts[c] = 0
                                    s_totals[slot] = t
                                s_last[slot] = sub
                            cv = s_counts[ci]
                            if cv < saturation:
                                s_counts[ci] = cv + 1
                                tot = s_totals[slot] + 1
                                s_totals[slot] = tot
                            else:
                                tot = s_totals[slot]
                            if tot < t1:
                                continue
                            if not single_tier:
                                mct_track(a)
                                s_promos += 1
                                continue
                            # Ablation: admit on tier 1 alone; the slot is
                            # reset exactly like imct.reset_slot.
                            c = slot
                            for _ in range(k_w):
                                s_counts[c] = 0
                                c += n_slots
                            s_totals[slot] = 0
                            s_last[slot] = -1
                            s_adms += 1
                        # Admission (either tier): install the block.
                        if d_rct < 0:
                            rct = rct_l[jl]
                            d_rct = int(rct // day_seconds)
                            if d_rct > last_day:
                                d_rct = last_day
                            same_day = d_rct == d_issue
                        if len(od) >= capacity:
                            od_pop(False)
                        od[a] = None
                        if same_day:
                            allocated += 1
                        elif alloc_offsets is None:
                            alloc_offsets = [a - addr]
                        else:
                            alloc_offsets.append(a - addr)
                else:
                    # Collision-tracking copy: identical to the loop above
                    # plus the per-recording last-address bookkeeping of
                    # ImpreciseMissCountTable.enable_collision_tracking.
                    for a, ci in zip(range(addr, end), cis_iter):
                        if a in od:
                            od_move(a)
                            hit += 1
                            continue
                        if a in mct_counters:
                            exact = mct_record(a, issue)
                            if exact < t2:
                                s_mct_rej += 1
                                continue
                            mct_forget(a)
                            s_adms += 1
                        else:
                            slot = ci - colbase
                            prev = s_lastaddr[slot]
                            if prev is not None and prev != a:
                                s_collisions += 1
                            s_lastaddr[slot] = a
                            if sub != s_last[slot]:
                                ls = s_last[slot]
                                if ls < 0 or sub - ls >= k_w:
                                    c = slot
                                    for _ in range(k_w):
                                        s_counts[c] = 0
                                        c += n_slots
                                    s_totals[slot] = 0
                                else:
                                    t = s_totals[slot]
                                    for g in range(ls + 1, sub + 1):
                                        c = g % k_w * n_slots + slot
                                        t -= s_counts[c]
                                        s_counts[c] = 0
                                    s_totals[slot] = t
                                s_last[slot] = sub
                            cv = s_counts[ci]
                            if cv < saturation:
                                s_counts[ci] = cv + 1
                                tot = s_totals[slot] + 1
                                s_totals[slot] = tot
                            else:
                                tot = s_totals[slot]
                            if tot < t1:
                                continue
                            if not single_tier:
                                mct_track(a)
                                s_promos += 1
                                continue
                            c = slot
                            for _ in range(k_w):
                                s_counts[c] = 0
                                c += n_slots
                            s_totals[slot] = 0
                            s_last[slot] = -1
                            s_adms += 1
                        if d_rct < 0:
                            rct = rct_l[jl]
                            d_rct = int(rct // day_seconds)
                            if d_rct > last_day:
                                d_rct = last_day
                            same_day = d_rct == d_issue
                        if len(od) >= capacity:
                            od_pop(False)
                        od[a] = None
                        if same_day:
                            allocated += 1
                        elif alloc_offsets is None:
                            alloc_offsets = [a - addr]
                        else:
                            alloc_offsets.append(a - addr)
            elif wmode == _W_FALSE:
                if omode == _O_COUNTER:
                    for a in range(addr, end):
                        counts[a] += 1
                        if a in od:
                            od_move(a)
                            hit += 1
                elif omode == _O_SET:
                    for a in range(addr, end):
                        seen.add(a)
                        if a in od:
                            od_move(a)
                            hit += 1
                else:
                    for a in range(addr, end):
                        if a in od:
                            od_move(a)
                            hit += 1
            else:
                # Allocating specializations (wants is a known constant and
                # observe is the no-op).
                rct = rct_l[jl]
                d_rct = int(rct // day_seconds)
                if d_rct > last_day:
                    d_rct = last_day
                if wmode == _W_NOT_WRITE and w:
                    for a in range(addr, end):
                        if a in od:
                            od_move(a)
                            hit += 1
                elif d_rct == d_issue:
                    for a in range(addr, end):
                        if a in od:
                            od_move(a)
                            hit += 1
                        else:
                            if len(od) >= capacity:
                                od_pop(False)
                            od[a] = None
                    allocated = k - hit
                else:
                    alloc_offsets = []
                    for off in range(k):
                        a = addr + off
                        if a in od:
                            od_move(a)
                            hit += 1
                        else:
                            if len(od) >= capacity:
                                od_pop(False)
                            od[a] = None
                            alloc_offsets.append(off)

            # -- per-request statistics (identical bucketing to the
            # reference path: all blocks of a request share its issue time).
            ds = per_day[d_issue]
            ds.accesses += k
            if w:
                ds.write_hits += hit
                ds.write_misses += k - hit
                ds.backing_writes += k  # write-through: every write block
            else:
                ds.read_hits += hit
                ds.read_misses += k - hit

            if allocated:
                ds.allocation_writes += allocated
            elif alloc_offsets:
                # Day-straddling request: interpolate each allocated
                # block's completion, as the reference per-block loop does.
                span = rct - issue
                for off in alloc_offsets:
                    completion = issue + span * ((off + 1) / k)
                    day = int(completion // day_seconds)
                    if day > last_day:
                        day = last_day
                    per_day[day].allocation_writes += 1
                allocated = len(alloc_offsets)

            if track_minutes:
                if allocated:
                    record_ssd_io(rct_l[jl], (allocated + 7) >> 3, True)
                if hit:
                    record_ssd_io(issue, (hit + 7) >> 3, w)

            if checkpoint_every is not None and (j + 1) % checkpoint_every == 0:
                if may_allocate:
                    cache._resident = set(od)
                if kernel is not None:
                    _sync_sieve_counters(
                        kernel, policy, imct, per_day, single_tier,
                        s_misses0, s_recorded0, s_imct_rej0, s_promos0,
                        s_mct_rej0, s_adms0,
                        s_collisions, s_promos, s_mct_rej, s_adms,
                    )
                checkpointer(j + 1, current_epoch)
            if progress_every is not None and (j + 1) % progress_every == 0:
                progress_hook(j + 1, current_epoch)


        # End of chunk: advance the cursor (max() so a chunk wholly
        # behind a resume cursor can never move it backwards) and give
        # the caller a consistent state to checkpoint against.
        chunk_end_row = base + chunk_n
        if chunk_end_row > cursor:
            cursor = chunk_end_row
        if segment_hook is not None:
            if may_allocate:
                cache._resident = set(od)
            if kernel is not None:
                _sync_sieve_counters(
                    kernel, policy, imct, per_day, single_tier,
                    s_misses0, s_recorded0, s_imct_rej0, s_promos0,
                    s_mct_rej0, s_adms0,
                    s_collisions, s_promos, s_mct_rej, s_adms,
                )
            segment_hook(cursor, current_epoch)

    # Trailing epoch boundaries (discrete policies close their books).
    while current_epoch < total_epochs - 1:
        current_epoch += 1
        apply_boundary(current_epoch)
        if boundary_hook is not None:
            boundary_hook(current_epoch, cursor)
    if may_allocate:
        cache._resident = set(od)
    if kernel is not None:
        # The policy object must reflect the run before the caller
        # samples sieve telemetry or pickles a final state.
        _sync_sieve_counters(
            kernel, policy, imct, per_day, single_tier,
            s_misses0, s_recorded0, s_imct_rej0, s_promos0,
            s_mct_rej0, s_adms0,
            s_collisions, s_promos, s_mct_rej, s_adms,
        )
    return stats, cache
