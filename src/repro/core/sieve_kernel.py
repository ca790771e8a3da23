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

* :class:`SieveStoreCKernel` — splits each chunk of requests into *runs*
  sharing one subwindow index and, per run, classifies every touched
  slot:

  - **cold** when ``live windowed total at the run's head + the run's
    blocks hashing to the slot < t1``.  A recording adds at most one to
    a slot's total, so no order of hits, misses, promotions or
    admissions inside the run can make a recording on a cold slot
    return ``>= t1``: every non-resident, non-MCT block on it is an IMCT
    rejection.  Rejections change nothing but the slot's own cells, so
    they commute, and the engine defers them to one vectorized
    :meth:`~SieveStoreCKernel.flush` (it only notes, by block position,
    the cold blocks that hit or went to tier 2 instead);
  - **hot** otherwise: the engine walks those blocks, in order, through
    the policy's own ladder
    (:meth:`~repro.core.sievestore_c.SieveStoreC.tier1`).  A slot is hot
    or cold for a whole run, so the two never write the same cells.

  Admission decisions stay order-dependent (a hit depends on the LRU
  resident set, which every admission mutates), which is why only the
  provably inert recordings are batched — and only on runs long enough
  to repay it (:data:`_BATCH_MIN_BLOCKS`).

  The engine *visits* a request only if one of its slots is hot or
  **occupied** — the kernel counts, per slot, the resident and
  MCT-tracked blocks hashing to it.  Within a run a block enters the
  cache or the MCT only through a recording that reaches ``t1`` on its
  own slot (never a cold one) or out of the MCT (counted already), and
  removals only leave the count too high: a request whose slots are all
  cold and unoccupied at the run's head meets nothing resident or
  tracked anywhere in the run, and is left wholly to the flush.  The
  count can only err towards "occupied" — the exact walk — saturation
  included.

Equivalence contract: driven over the same miss stream, the table's
state and every telemetry counter are bit-identical to the object
sieve's — ``tests/sim/test_sieve_equivalence.py`` enforces this against
:class:`~repro.cache.stats.CacheStats` and the sieve metastate, and
``tests/core/test_sieve_kernel.py`` property-tests classify + flush
against sequential ``record_miss`` calls, and the visit list against a
model cache and MCT.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.cache.allocation import AllocationPolicy
from repro.core.sievestore_c import SieveStoreC
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

#: Blocks a run needs before batching beats walking it (measured: ~85 us
#: of per-run numpy overhead); either side leaves the same table state.
_BATCH_MIN_BLOCKS = 128

#: Ceiling of a slot's one-byte occupancy count.  A slot that reaches it
#: is never decremented again, so a count that overflowed cannot read
#: zero with blocks still on the slot.
_OCCUPANCY_SATURATED = 255


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
    """Subwindow index of each timestamp, with Python ``//`` semantics.

    ``numpy.floor_divide`` may differ by one ulp from Python's float
    floor-division near subwindow boundaries, and the engines' equality
    guarantee depends on bucketing identically with
    :meth:`~repro.core.windows.WindowSpec.subwindow_index`.  The shared
    primitive :func:`repro.util.intervals.bucket_indices` floors the
    quotients in one vectorized pass and recomputes only
    boundary-adjacent entries with scalar Python arithmetic; both this
    kernel and :meth:`~repro.traces.columnar.ColumnarTrace.issue_days`
    delegate to it so all pipelines bucket identically.
    """
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
    counts = block_counts.astype(np.int64)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    # blocks[i] = address-of-request + offset-within-request, via a
    # single repeat: repeat(addresses - starts) + arange.
    blocks = np.repeat(addresses - offsets[:-1], counts) + np.arange(
        int(offsets[-1]), dtype=np.int64
    )
    imct = policy.imct
    return (
        blocks,
        offsets,
        bucket_array(blocks, imct.slots, imct._salted),
        subwindow_indices(issue_times, imct.window.subwindow_seconds),
    )


def supports(policy: AllocationPolicy) -> bool:
    """True if ``policy`` can be driven by :class:`SieveStoreCKernel`.

    Exact-type check on purpose: a subclass may add work around the
    ladder (:class:`~repro.core.autotune.AdaptiveSieveStoreC` runs its
    controller on every ``wants``) that the kernel's direct
    :meth:`~repro.core.sievestore_c.SieveStoreC.tier1` /
    :meth:`~repro.core.sievestore_c.SieveStoreC.tier2` calls would
    skip, so anything but a plain :class:`SieveStoreC` takes the
    general per-miss-call path.
    """
    return type(policy) is SieveStoreC


class SieveStoreCKernel:
    """Per-run cold/hot classification and bulk recording for the fast engine.

    Protocol, per window of requests: :meth:`precompute_chunk` hashes
    the window's blocks once and finds its subwindow runs; then for each
    run in turn :meth:`begin_run` classifies it and hands the engine its
    per-request / per-block tables, the engine replays the run's
    visited requests (appending to :attr:`skipped`, and reporting what
    enters and leaves ``resident`` and the MCT through :meth:`occupy` /
    :meth:`vacate`), and :meth:`flush` records the deferred cold-slot
    misses — wholly at the run's end, or up to a block position at a
    mid-run checkpoint; partial flushes compose.
    Every decision the kernel cannot batch is the policy's own: hot-slot
    misses take :meth:`~repro.core.sievestore_c.SieveStoreC.tier1`, MCT
    members :meth:`~repro.core.sievestore_c.SieveStoreC.tier2`, and the
    flush keeps ``imct_rejections`` current, so the policy object is
    the whole sieve state after any flush.
    """

    def __init__(self, policy: SieveStoreC, resident: Iterable[int] = ()):
        if not supports(policy):
            raise TypeError(
                f"kernel requires a plain SieveStoreC, got {type(policy).__name__}"
            )
        self.policy = policy
        self.imct = policy.imct
        self.k = self.imct.window.subwindows
        self.n_slots = self.imct.slots
        #: Positions, within the current run's blocks, of cold-slot
        #: blocks that were *not* IMCT misses (resident, or counted by
        #: the MCT); the engine appends, :meth:`flush` leaves them out.
        #: By position, not address: which of two equal addresses is
        #: left out decides the collision count.
        self.skipped: List[int] = []
        #: The current run: per block, whether its slot is cold; and how
        #: many blocks (by position) have been flushed.
        self._cold = np.zeros(0, dtype=bool)
        self._flushed = 0
        #: Per slot, how many ``resident`` or MCT-tracked blocks hash to
        #: it.  Derived state: counted here, never checkpointed.
        self.occupancy = bytearray(self.n_slots)
        held = np.fromiter(chain(resident, policy.mct._counters), np.int64)
        slots, counts = np.unique(
            bucket_array(held, self.n_slots, self.imct._salted),
            return_counts=True,
        )
        np.frombuffer(self.occupancy, dtype=np.uint8)[slots] = np.minimum(
            counts, _OCCUPANCY_SATURATED
        )

    def occupy(self, slot: int) -> None:
        """A block on ``slot`` entered the cache or the MCT from outside
        both (a promotion, a single-tier admission; a tier-2 admission
        only moves its block from one to the other)."""
        count = self.occupancy[slot]
        if count < _OCCUPANCY_SATURATED:
            self.occupancy[slot] = count + 1

    def vacate(self, address: int) -> None:
        """``address`` left the cache (evicted) or the MCT (pruned)."""
        slot = self.imct.slot_of(address)
        count = self.occupancy[slot]
        if count < _OCCUPANCY_SATURATED:
            self.occupancy[slot] = count - 1

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

    def begin_run(
        self,
    ) -> Tuple[int, List[int], List[int], List[int], List[int]]:
        """Classify the window's next run; flushes the previous one.

        Returns ``(requests, subs, visit, starts, cis)``: the run's
        request count; per request its subwindow index (one value
        throughout, except over a stretch of fused short runs); the
        requests the engine must walk, ascending — those with a block on
        a hot or an occupied slot, every other being nothing but
        rejections the flush records; per request the position of its
        first block (one extra entry closes the last request); per block
        the flat index of its count cell, ``(sub % k) * n_slots + slot``,
        or -1 on a cold slot.
        """
        self.flush()
        run = self._next_run
        row, end_row = self._run_rows[run:run + 2]
        self._next_run += 1
        starts = self._offsets[row:end_row + 1]
        first_block, end_block = int(starts[0]), int(starts[-1])
        starts = starts - first_block
        subs = self._subs[row:end_row]
        sub = int(subs[0])
        slots = self._slots[first_block:end_block]
        if self._all_hot[run]:
            cold = np.zeros(len(slots), dtype=bool)
            block_subs = np.repeat(subs, np.diff(starts))
        else:
            # Classify per distinct slot; each block gets its slot's flag.
            unique, inverse, sizes = np.unique(
                slots, return_inverse=True, return_counts=True
            )
            totals = self.imct.live_totals(unique, sub)
            cold = (totals + sizes < self.policy.config.t1)[inverse]
            block_subs = sub
        self.skipped.clear()
        self._sub = sub
        self._run_slots = slots
        self._cold = cold
        self._addresses = self._blocks[first_block:end_block]
        self._flushed = 0
        occupied = np.frombuffer(self.occupancy, dtype=np.uint8)[slots] != 0
        visit = np.flatnonzero(
            np.logical_or.reduceat(~cold | occupied, starts[:-1])
        )
        cis = np.where(cold, -1, block_subs % self.k * self.n_slots + slots)
        columns = (subs, visit, starts, cis)
        return (end_row - row, *(column.tolist() for column in columns))

    def flush(self, upto: Optional[int] = None) -> None:
        """Record the current run's deferred cold-slot misses.

        Covers block positions from the previous flush up to ``upto``
        (default: the run's end), leaving out :attr:`skipped`.  Cold
        slots take no scalar recording during their run, and each
        deferred recording touches only its own slot, so the table ends
        exactly as if every one had been recorded at its turn.  By the
        cold bound each recording is a tier-1 rejection, and the
        policy's ``imct_rejections`` counts it as one.
        """
        end = len(self._cold) if upto is None else upto
        if end <= self._flushed:
            return
        recorded = self._cold.copy()
        recorded[:self._flushed] = False
        recorded[end:] = False
        recorded[self.skipped] = False
        self._flushed = end
        slots = self._run_slots[recorded]
        self.policy.imct_rejections += int(slots.size)
        if self.imct._last_address is None:
            self.imct.record_batch(np.sort(slots), self._sub)
        else:
            # Collision counting reads each slot's recordings in order:
            # (slot, position) sorted as one key, which any sort keeps
            # stable (and numpy's plain one is ~4x its stable argsort).
            n = slots.size
            slots, order = np.divmod(np.sort(slots * n + np.arange(n)), n)
            self.imct.record_batch(
                slots, self._sub, self._addresses[recorded][order]
            )

    def sync(self) -> None:
        """Flush whatever the current run still defers: afterwards the
        policy's table reflects every request handed to the kernel."""
        self.flush()
