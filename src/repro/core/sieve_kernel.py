"""Array-backed SieveStore-C sieve kernel (the fast engine's substrate).

The sieve throws almost every miss away, so what a replay pays per
*rejected* block decides its speed.  The object-model sieve
(:class:`~repro.core.sievestore_c.SieveStoreC`) pays a hash, a division
and a counter ladder in Python for each; this module lets the fast
engine (:mod:`repro.sim.fast_engine`) pay a few vectorized cycles
instead, on the very memory the policy's
:class:`~repro.core.imct.ImpreciseMissCountTable` owns — nothing is
copied in at run start or written back at a checkpoint.

* :func:`mix64_array` / :func:`bucket_array` / :func:`subwindow_indices`
  — SplitMix64 and the subwindow floor-division over whole columns,
  bit-identical to their scalar twins; :func:`hash_requests` applies
  them to a window of requests, for this kernel and for the object
  engine's row windows (whose misses then take
  :meth:`~repro.core.sievestore_c.SieveStoreC.wants_hashed`).

* :func:`cold_mask` — the cold bound, the one both engines batch by.
  Within a *run* of requests sharing one subwindow index, a touched
  slot is

  - **cold** when ``live windowed total at the run's head + the run's
    blocks hashing to the slot < t1``.  A recording adds at most one to
    a slot's total, so no order of hits, misses, promotions or
    admissions inside the run can make a recording on a cold slot
    return ``>= t1``;
  - **hot** otherwise.  A slot is hot or cold for a whole run.

  The kernel below classifies by it and by :func:`head_classes`, and
  the object engine (:class:`repro.sim.engine._ObjectStretches`)
  records and settles by both.

* :class:`SieveStoreCKernel` — splits each chunk of requests into runs
  and settles each run in one vectorized pass at its head: against
  sorted snapshots of the cache's resident addresses and the MCT's
  keys, every block of the run is exactly one of

  - a **hit**: resident at the run's head.  The kernel counts each
    request's hits and hands the engine their addresses, in access
    order, for the recency moves;
  - a **cold rejection**: on a cold slot, neither resident nor
    MCT-tracked.  Nothing in the run can make it either (entering the
    cache or the MCT takes a recording that reaches ``t1`` on the
    block's own slot), so it is an IMCT rejection whatever happens
    around it.  Rejections change nothing but their slot's own cell
    (and the table's clock, which any recording of the run moves to
    the run's subwindow), so they commute, and
    :meth:`~SieveStoreCKernel.flush` scatter-adds them, unsorted: no
    cell can saturate, as it holds at most its slot's total, < t1 <= 256;
  - an **event**: not resident, and on a hot slot or MCT-tracked.  The
    engine walks the events, in order, through the policy's own ladder
    (:meth:`~repro.core.sievestore_c.SieveStoreC.tier1` /
    :meth:`~repro.core.sievestore_c.SieveStoreC.tier2`).

  Only an eviction can unsettle the head's verdict: a block evicted
  mid-run stops being a hit for the rest of it, so
  :meth:`~SieveStoreCKernel.evict` rewrites its later accesses — into
  rejections on a cold slot (the cold bound already counts every block
  of the run), into events on a hot one.  A block admitted mid-run was
  an event at every access of the run, so the ladder sees its hits.
  Runs too short to repay the pass (:data:`_BATCH_MIN_BLOCKS`) are
  classified all-hot: every block not resident is an event.

Equivalence contract: driven over the same miss stream, the table's
state and every telemetry counter are bit-identical to the object
sieve's — ``tests/sim/test_sieve_equivalence.py`` and
``tests/sim/test_sieve_differential.py`` enforce this against
:class:`~repro.cache.stats.CacheStats`, the LRU order and the sieve
metastate, and ``tests/core/test_sieve_kernel.py`` property-tests
classify + flush against sequential ``record_miss`` calls, and the
classes against a model cache and MCT; ``tests/sim/test_object_oracle.py``
holds the object engine to ``wants`` per miss.
"""

from __future__ import annotations

from typing import Collection, List, Optional, Tuple

import numpy as np

from repro.core.sievestore_c import SieveStoreC
from repro.core.windows import COUNTER_SATURATION
from repro.traces.columnar import expand_blocks
from repro.util.intervals import bucket_indices

#: SplitMix64 constants as uint64 scalars; array ops against them wrap
#: modulo 2**64 exactly like the masked Python arithmetic in
#: :func:`repro.util.hashing.mix64`.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MULT1 = np.uint64(0xBF58476D1CE4E5B9)
_MULT2 = np.uint64(0x94D049BB133111EB)
_SHIFT30 = np.uint64(30)
_SHIFT27 = np.uint64(27)
_SHIFT31 = np.uint64(31)

#: Blocks a run needs before batching beats walking it: a classified run
#: of 32-44 blocks costs ~90 us, an all-hot walk ~2.6 us a block (2-core
#: x86 box, 11 pairs each; batching lost at 32 blocks, tied at 36 and won
#: at 40).  Either side leaves the same table state.
_BATCH_MIN_BLOCKS = 40


def mix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer over a uint64 array.

    Bit-identical to mapping :func:`repro.util.hashing.mix64` over the
    elements: uint64 addition/multiplication wrap silently for arrays,
    which is exactly the ``& _MASK64`` reduction of the scalar code.
    """
    z = values.astype(np.uint64, copy=True)
    z += _GOLDEN
    z ^= z >> _SHIFT30
    z *= _MULT1
    z ^= z >> _SHIFT27
    z *= _MULT2
    z ^= z >> _SHIFT31
    return z


def bucket_array(values: np.ndarray, buckets: int, salted: int) -> np.ndarray:
    """Vectorized :func:`repro.util.hashing.stable_bucket` with the salt
    pre-mixed (``salted = mix64(salt)``); returns int64 slot indices."""
    if buckets <= 0:
        raise ValueError(f"buckets must be positive, got {buckets}")
    mixed = mix64_array(values.astype(np.uint64) ^ np.uint64(salted))
    return (mixed % np.uint64(buckets)).astype(np.int64)


def subwindow_indices(times: np.ndarray, subwindow_seconds: float) -> np.ndarray:
    """Subwindow index of each timestamp, bit-identical to
    :meth:`~repro.core.windows.WindowSpec.subwindow_index`: Python ``//``
    semantics by :func:`repro.util.intervals.bucket_indices`, which
    :meth:`~repro.traces.columnar.ColumnarTrace.issue_days` shares."""
    return bucket_indices(times, subwindow_seconds)


def hash_requests(
    policy: SieveStoreC,
    addresses: np.ndarray,
    block_counts: np.ndarray,
    issue_times: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Everything a window of requests asks of the sieve's hash, at once.

    Returns ``(blocks, offsets, slots, subs)``: the requests expanded to
    their consecutive block addresses; per request the position of its
    first block (one extra entry closes the last); each block's IMCT
    slot; each request's subwindow — ``slot_of`` and
    ``subwindow_index`` of the scalar sieve, bit-identical, and like the
    latter refusing a negative time (:func:`subwindow_indices` itself
    does not check).
    """
    negative = issue_times < 0
    if negative.any():
        time = float(issue_times[negative.argmax()])
        raise ValueError(f"time must be non-negative, got {time}")
    blocks, offsets = expand_blocks(addresses, block_counts)
    imct = policy.imct
    return (
        blocks,
        offsets,
        bucket_array(blocks, imct.slots, imct._salted),
        subwindow_indices(issue_times, imct.window.subwindow_seconds),
    )


def cold_mask(policy: SieveStoreC, slots: np.ndarray, subwindow: int,
              tally: np.ndarray) -> np.ndarray:
    """The cold bound at the head of a run of blocks on IMCT ``slots``, all
    in ``subwindow``: per block, whether its slot's live total plus the
    run's blocks on it stays below t1 (``tally``: zeroed int32 scratch)."""
    totals = policy.imct.live_totals(slots, subwindow)
    return totals + _run_sizes(tally, slots) < policy.config.t1


def _run_sizes(tally: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Per block, the run's blocks on its slot (tallied, gathered, zeroed)."""
    np.add.at(tally, slots, np.int32(1))
    sizes = tally[slots]
    tally[slots] = 0
    return sizes


def head_classes(policy: SieveStoreC, addresses: np.ndarray, cold: np.ndarray,
                 resident: Collection[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Per block of a run at its head (``cold``: :func:`cold_mask`), whether
    it is ``resident`` (a hit) and whether it is a cold rejection: on a
    cold slot, neither resident nor MCT-tracked (and never later in the run)."""
    hit = _members(addresses, resident)
    return hit, cold & ~hit & ~_members(addresses, policy.mct._counters)


def _members(values: np.ndarray, keys: Collection[int]) -> np.ndarray:
    """Per entry of ``values``, whether it is one of ``keys``: one sort
    of a snapshot of the keys, then one binary search per value."""
    if not len(keys):
        return np.zeros(len(values), dtype=bool)
    snapshot = np.sort(np.fromiter(keys, np.int64, len(keys)))
    at = np.minimum(np.searchsorted(snapshot, values), len(snapshot) - 1)
    return snapshot[at] == values


class SieveStoreCKernel:
    """Per-run classification and bulk recording for the fast engine.

    Protocol, per window of requests: :meth:`precompute_chunk` hashes
    the window's blocks once and finds its subwindow runs; then for each
    run in turn :meth:`begin_run` flushes the previous run and sorts
    this one's blocks into hits, cold rejections and events, and the
    engine walks :meth:`events` through the ladder.  Before anything it
    does reorders the cache it moves the hits that came first
    (:meth:`recency`); it reports each eviction to :meth:`evict` and
    each cold event the ladder turned away to :meth:`reject`; and
    :meth:`flush` records the rejections — wholly at the run's end, or
    up to a block position at a mid-run stop; partial flushes compose.
    Every decision the kernel cannot batch is the policy's own, and the
    flush keeps ``imct_rejections`` current, so the policy object is
    the whole sieve state after any flush.
    """

    def __init__(self, policy: SieveStoreC, resident: Collection[int] = ()):
        if not policy.kernel_drives_ladder():
            raise TypeError(
                "kernel drives only a SieveStoreC ladder that allows it, "
                f"with t1 <= {COUNTER_SATURATION + 1}, "
                f"got {type(policy).__name__} with t1={policy.config.t1}"
            )
        self.policy = policy
        self.imct = policy.imct
        #: :func:`cold_mask`'s scratch (the kernel's own: the table
        #: never holds it, so checkpoints do not change).
        self._tally = np.zeros(self.imct.slots, dtype=np.int32)
        #: The cache's resident addresses (live), snapshotted per run.
        self.resident = resident
        #: The current run, per block: whether the flush records it;
        #: and how many blocks (by position) have been flushed.
        self._rejected = np.zeros(0, dtype=bool)
        self._flushed = 0

    def precompute_chunk(
        self,
        addresses: np.ndarray,
        block_counts: np.ndarray,
        issue_times: np.ndarray,
    ) -> int:
        """Hash a window's blocks and split its requests into runs.

        Everything here is independent of decision order and done once
        per window: requests expanded to their consecutive block
        addresses, each block's IMCT slot, each request's subwindow.
        Returns the number of runs (maximal stretches of requests
        sharing a subwindow index) for :meth:`begin_run` to walk.
        """
        self._blocks, offsets, self._slots, self._subs = hash_requests(
            self.policy, addresses, block_counts, issue_times
        )
        self._offsets = offsets
        edges = np.flatnonzero(self._subs[1:] != self._subs[:-1]) + 1
        rows = np.concatenate(([0], edges, [len(block_counts)]))
        # A short run cannot repay classify + flush: it goes all-hot, and
        # neighbours like it fuse into one stretch, so a trace of
        # one-request subwindows costs what SieveStoreC.tier1 costs.
        short = np.diff(offsets[rows]) < _BATCH_MIN_BLOCKS
        fused = np.flatnonzero(short[:-1] & short[1:]) + 1
        self._run_rows = np.delete(rows, fused).tolist()
        self._all_hot = np.delete(short, fused).tolist()
        self._next_run = 0
        return len(self._run_rows) - 1

    def begin_run(self) -> Tuple[int, np.ndarray, np.ndarray]:
        """Classify the window's next run; flushes the previous one.

        Returns ``(requests, starts, hits)``: the run's request count;
        per request the position of its first block (one extra entry
        closes the last); per request its hits — blocks resident at the
        run's head, which :meth:`evict` may yet take back.
        """
        self.flush()
        run = self._next_run
        row, end_row = self._run_rows[run:run + 2]
        self._next_run += 1
        starts = self._offsets[row:end_row + 1]
        first_block, end_block = int(starts[0]), int(starts[-1])
        starts = starts - first_block
        # One subwindow throughout, except over a stretch of fused
        # short runs, which is all-hot and defers nothing.
        subs = self._subs[row:end_row]
        slots = self._slots[first_block:end_block]
        addresses = self._blocks[first_block:end_block]
        if self._all_hot[run]:
            cold = np.zeros(len(slots), dtype=bool)
        else:
            cold = cold_mask(self.policy, slots, int(subs[0]), self._tally)
        hit, self._rejected = head_classes(self.policy, addresses, cold, self.resident)
        self._event = ~(hit | self._rejected)
        self._hit, self._cold, self._starts = hit, cold, starts
        self._run_subs, self._run_slots, self._addresses = subs, slots, addresses
        self._flushed = self._moved = 0
        self._index_hits()
        return end_row - row, starts, np.diff(self._hit_at.searchsorted(starts))

    def _index_hits(self) -> None:
        """Positions and addresses of the run's hits."""
        self._hit_at = np.flatnonzero(self._hit)
        self._hit_addresses = self._addresses[self._hit_at]

    def events(self, after: int = -1) -> List[Tuple[int, int, int, int, int]]:
        """The run's events past block position ``after``, in access
        order: per event its position, address, IMCT slot (-1 on a cold
        slot, where it is an MCT member), subwindow, and request (index
        within the run)."""
        at = np.flatnonzero(self._event[after + 1:]) + (after + 1)
        requests = np.searchsorted(self._starts, at, side="right") - 1
        slots = np.where(self._cold[at], -1, self._run_slots[at])
        return list(zip(
            at.tolist(), self._addresses[at].tolist(), slots.tolist(),
            self._run_subs[requests].tolist(), requests.tolist(),
        ))

    def recency(self, upto: int) -> List[int]:
        """The hits before block position ``upto`` not handed out yet,
        by address in access order: the engine moves each to the most
        recent end of the LRU before it reorders the cache otherwise."""
        start, self._moved = self._moved, int(self._hit_at.searchsorted(upto))
        return self._hit_addresses[start:self._moved].tolist()

    def evict(self, address: int, position: int) -> np.ndarray:
        """``address`` left the cache at block ``position``, the hits
        before it handed out: its later accesses in the run stop being
        hits — on a cold slot each becomes a rejection the flush
        records, on a hot slot (or of an MCT member) an event.  Returns
        per rewritten access its request (index within the run), whose
        hit count loses one; if any, :meth:`events` past ``position``
        changed."""
        pending = slice(self._moved, None)
        later = self._hit_at[pending][self._hit_addresses[pending] == address]
        if later.size:
            self._hit[later] = False
            cold = self._cold[later] & (address not in self.policy.mct)
            self._rejected[later[cold]] = True
            self._event[later[~cold]] = True
            self._index_hits()
        return np.searchsorted(self._starts, later, side="right") - 1

    def reject(self, position: int) -> None:
        """The ladder turned the cold-slot event at ``position`` away
        (an MCT member at the run's head, pruned since): the flush
        records its tier-1 rejection."""
        self._rejected[position] = True

    def flush(self, upto: Optional[int] = None) -> None:
        """Record the current run's rejections.

        Covers block positions from the previous flush up to ``upto``
        (default: the run's end).  Cold slots take no scalar recording
        during their run, and each deferred recording touches only its
        own slot's cell of the run's subwindow, so the table ends
        exactly as if every one had been recorded at its turn.  By the
        cold bound each is a tier-1 rejection, counted in the policy's
        ``imct_rejections``, whose cell stays below t1: no clamp binds.
        """
        start = self._flushed
        end = len(self._rejected) if upto is None else upto
        if end <= start:
            return
        self._flushed = end
        recorded = self._rejected[start:end]
        slots = self._run_slots[start:end][recorded]
        self.policy.imct_rejections += int(slots.size)
        tracking = self.imct._last_address is not None
        addresses = self._addresses[start:end][recorded] if tracking else None
        self.imct.record_batch(slots, int(self._run_subs[0]), addresses)

    def sync(self) -> None:
        """Flush whatever the current run still defers: afterwards the
        policy's table reflects every request handed to the kernel."""
        self.flush()
