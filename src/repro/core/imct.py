"""IMCT — the Imprecise Miss Count Table (Section 3.3, first sieve tier).

The block-address space is vastly larger than any affordable in-memory
table, so SieveStore-C's first tier maps addresses onto a fixed number
of slots with a many-to-one hash.  Slots accumulate (potentially
aliased) windowed miss counts; only blocks whose *slot* count reaches
the tier-1 threshold (t1, tuned to 9 in the paper) are promoted to the
precise MCT.

Aliasing is not just tolerated, it is the documented failure mode that
motivates the second tier: low-reuse blocks can piggy-back on a popular
block's slot count and would receive undeserved allocations if the IMCT
alone decided admission (the paper found exactly this).  The
``single_tier_admission`` flag in :class:`~repro.core.sievestore_c.SieveStoreC`
exists to reproduce that pathology in the ablation bench.

The table is array-native: its whole state is two flat buffers (``k``
one-byte count cells plus one 8-byte last-subwindow stamp per slot), the
discretized-window scheme of :class:`~repro.core.windows.SubwindowCounter`
applied to them in place.  The scalar methods serve the object engine
and the live serving gate; the vectorized ones
(:meth:`~ImpreciseMissCountTable.live_totals`,
:meth:`~ImpreciseMissCountTable.record_batch`) serve the fast engine's
:class:`~repro.core.sieve_kernel.SieveStoreCKernel`, on the same memory.
"""

from __future__ import annotations

from array import array
from typing import Optional

import numpy as np

from repro.core.windows import COUNTER_SATURATION, WindowSpec
from repro.util.hashing import mix64


def _unset(slots: int) -> array:
    """``slots`` int64 stamps of -1.  Built by repeating a block:
    ``array`` repetition copies one operand at a time, so a one-item
    operand makes a paper-scale table take seconds to construct."""
    block = array("q", [-1]) * min(slots, 4096)
    stamps = block * (slots // len(block))
    stamps.extend(block[:slots - len(stamps)])
    return stamps


class ImpreciseMissCountTable:
    """Fixed-size, hash-indexed table of windowed miss counters.

    Args:
        slots: number of table entries.  The paper sizes IMCT + MCT at
            about 8 GB of memory for the full-scale trace; scaled
            configurations shrink this proportionally.
        window: the sliding-window shape (W, k).
        salt: decorrelates this table's hash from other address hashes.
    """

    def __init__(self, slots: int, window: WindowSpec, salt: int = 0x13C7):
        if slots <= 0:
            raise ValueError(f"slots must be positive, got {slots}")
        self.slots = slots
        self.window = window
        self.salt = salt
        #: ``mix64(salt)`` hoisted out of the per-address hash — with it,
        #: :meth:`slot_of` is a single mix, bit-identical to
        #: :func:`repro.util.hashing.stable_bucket`.
        self._salted = mix64(salt)
        #: Count cells, column-major: slot ``s``'s count for subwindow
        #: ``g`` lives at ``(g % k) * slots + s``, saturating at
        #: :data:`~repro.core.windows.COUNTER_SATURATION`.
        self.counts = bytearray(window.subwindows * slots)
        #: Per slot, the last subwindow recorded (-1: never, all cells 0).
        #: Cells are expired lazily, on the slot's next recording.
        self.last = _unset(slots)
        self.recorded_misses = 0
        #: aliased recordings observed (only counted while collision
        #: tracking is enabled; see :meth:`enable_collision_tracking`).
        self.alias_collisions = 0
        #: per-slot last-recorded address (-1: none), or None when
        #: tracking is off.
        self._last_address: Optional[array] = None

    def enable_collision_tracking(self) -> None:
        """Start counting aliased recordings (observability support).

        Allocates a per-slot shadow array holding the last address that
        recorded into each slot; a subsequent recording by a *different*
        address increments :attr:`alias_collisions`.  Off by default —
        the only cost then is one predicate test per recorded miss —
        because the paper's mechanism tolerates aliasing by design and
        only the telemetry layer wants it quantified.
        """
        if self._last_address is None:
            self._last_address = _unset(self.slots)

    def slot_of(self, address: int) -> int:
        """Table slot an address maps to (many-to-one)."""
        return mix64(address ^ self._salted) % self.slots

    def record_miss(self, address: int, time: float) -> int:
        """Count a miss for the address's slot; returns the slot's
        windowed total (including any aliased contributions)."""
        return self.record(
            self.slot_of(address), self.window.subwindow_index(time), address
        )

    def record(self, slot: int, subwindow: int, address: int) -> int:
        """:meth:`record_miss` with the address's slot and the miss's
        subwindow already worked out — by :meth:`slot_of` and
        :meth:`~repro.core.windows.WindowSpec.subwindow_index`, or by
        their vector twins in :mod:`repro.core.sieve_kernel`."""
        self.recorded_misses += 1
        slots = self.slots
        tracked = self._last_address
        if tracked is not None:
            previous = tracked[slot]
            if previous >= 0 and previous != address:
                self.alias_collisions += 1
            tracked[slot] = address
        counts = self.counts
        k = self.window.subwindows
        last = self.last[slot]
        if subwindow != last:
            if subwindow < last:
                raise ValueError(
                    f"time moved backwards: subwindow {subwindow} < {last}"
                )
            if last < 0 or subwindow - last >= k:
                # "If ... the current time window is larger than the
                # last-updated counter by k or more, then all counters
                # are inferred to be stale and zeroed out."
                counts[slot::slots] = bytes(k)
            else:
                for stale in range(last + 1, subwindow + 1):
                    counts[stale % k * slots + slot] = 0
            self.last[slot] = subwindow
        cell = subwindow % k * slots + slot
        if counts[cell] < COUNTER_SATURATION:
            counts[cell] += 1
        # Expired cells were just zeroed, so the slot's cells sum to its
        # windowed total.
        return sum(counts[slot::slots])

    def count(self, address: int, time: float) -> int:
        """Current windowed count of the address's slot (read-only)."""
        subwindow = self.window.subwindow_index(time)
        slot = self.slot_of(address)
        k = self.window.subwindows
        last = self.last[slot]
        if last < 0 or subwindow - last >= k:
            return 0
        if subwindow < last:
            raise ValueError(
                f"time moved backwards: subwindow {subwindow} < {last}"
            )
        # Cells of subwindows (subwindow - k, last] are still in the
        # window; older ones are ignored without being zeroed.
        return sum(
            self.counts[live % k * self.slots + slot]
            for live in range(subwindow - k + 1, last + 1)
        )

    def reset_slot(self, address: int) -> None:
        """Zero the slot an address maps to (after promotion/allocation)."""
        slot = self.slot_of(address)
        self.counts[slot::self.slots] = bytes(self.window.subwindows)
        self.last[slot] = -1

    # -- vectorized access (same memory, no copies) ------------------------
    def cells(self) -> np.ndarray:
        """The count cells as a writable ``(k, slots)`` uint8 view."""
        return np.frombuffer(self.counts, dtype=np.uint8).reshape(
            self.window.subwindows, self.slots
        )

    def last_subwindows(self) -> np.ndarray:
        """The per-slot last-recorded subwindows as a writable int64 view."""
        return np.frombuffer(self.last, dtype=np.int64)

    def _gaps(self, slots: np.ndarray, subwindow: int) -> np.ndarray:
        """Subwindows since each slot's last recording (never: > 0)."""
        gaps = subwindow - self.last_subwindows()[slots]
        if (gaps < 0).any():
            raise ValueError(f"time moved backwards: subwindow {subwindow}")
        return gaps

    def live_totals(self, slots: np.ndarray, subwindow: int) -> np.ndarray:
        """Windowed totals of ``slots`` as of ``subwindow`` (read-only).

        The vector twin of :meth:`count`, by slot index.  The column of
        subwindow ``subwindow - age`` still holds that subwindow's count
        iff the slot was last recorded no earlier — ``gap <= age`` —
        and otherwise a count the window has left behind.
        """
        k = self.window.subwindows
        gaps = self._gaps(slots, subwindow)
        cells = self.cells()
        totals = np.zeros(len(slots), dtype=np.int64)
        for age in range(k):
            totals += cells[(subwindow - age) % k][slots] * (gaps <= age)
        return totals

    def record_batch(
        self,
        slots: np.ndarray,
        subwindow: int,
        addresses: Optional[np.ndarray] = None,
    ) -> None:
        """Record one miss per entry of ``slots``, all in ``subwindow``.

        ``slots`` must arrive grouped (equal slots adjacent, e.g. sorted)
        with each group in recording order.  Leaves the table exactly as
        the same sequence of :meth:`record_miss` calls would: stale cells
        expired, counts saturated where the sequential clamp would stop
        them, and — given the recordings' ``addresses`` while collision
        tracking is on — the same collision count and last addresses.
        A ``subwindow`` behind a slot's last one raises, as there, before
        anything is written.
        """
        n = int(slots.size)
        if n == 0:
            return
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(slots[1:], slots[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], n)
        unique = slots[starts]
        k = self.window.subwindows
        cells = self.cells()
        last = self.last_subwindows()
        # Expire what the scalar advance would: the columns of the
        # subwindows after the slot's last one (all k of them once the
        # gap reaches k; a never-recorded slot holds zeros already).
        gaps = self._gaps(unique, subwindow)
        self.recorded_misses += n
        for age in range(1, k):
            lapsed = unique[gaps > age]
            if lapsed.size:
                cells[(subwindow - age) % k][lapsed] = 0
        column = cells[subwindow % k]
        column[unique] = np.minimum(
            column[unique] * (gaps == 0) + (ends - starts), COUNTER_SATURATION
        )
        last[unique] = subwindow
        if self._last_address is not None and addresses is not None:
            tracked = np.frombuffer(self._last_address, dtype=np.int64)
            stored = tracked[unique]
            changed = addresses[1:] != addresses[:-1]
            self.alias_collisions += int(
                np.count_nonzero(changed & ~first[1:])
                + np.count_nonzero((stored >= 0) & (stored != addresses[starts]))
            )
            tracked[unique] = addresses[ends - 1]

    def memory_bytes_estimate(self) -> int:
        """Bytes of table state: what :attr:`counts` and :attr:`last` hold.

        One byte per subwindow cell plus an 8-byte last-subwindow stamp
        per slot — ``slots * (k + 8)``, with no per-slot object behind
        it.  (A hardware table would narrow the stamp to a couple of
        bytes; :mod:`repro.core.metastate` budgets that realization.)
        Collision tracking, when enabled, shadows another 8 bytes/slot.
        """
        return len(self.counts) + self.last.itemsize * len(self.last)
