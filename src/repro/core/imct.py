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

The table is array-native: its whole state is two flat buffers and one
clock — ``k`` one-byte count cells per slot, a per-slot windowed total,
and the latest subwindow recorded.  The paper keeps a last-update stamp
per counter group and zeroes a group's stale counters lazily, at its
next miss (the scheme of :class:`~repro.core.windows.SubwindowCounter`).
A stamp only ever decides which of a group's counters are still in the
window, and subwindow ``g``'s counter is live at subwindow ``t`` exactly
when ``t - k < g <= t`` — for every slot alike.  So one table clock does
the stamps' work: when a recording moves the clock forward, the columns
of the subwindows leaving the window are zeroed for all slots at once,
and the totals lowered by them.  Every live (slot, subwindow) count,
hence every windowed total and every saturation point, equals the lazy
table's; only cells no read can see differ.  The price is a narrower
ordering contract: time must not go backwards across the whole table,
not merely per slot.

The scalar methods serve the object engine and the live serving gate;
the vectorized ones (:meth:`~ImpreciseMissCountTable.live_totals`,
:meth:`~ImpreciseMissCountTable.record_batch`) serve the fast engine's
:class:`~repro.core.sieve_kernel.SieveStoreCKernel`, on the same memory.
"""

from __future__ import annotations

from array import array
from typing import Optional

import numpy as np

from repro.core.windows import COUNTER_SATURATION, WindowSpec
from repro.util.hashing import mix64


class ImpreciseMissCountTable:
    """Fixed-size, hash-indexed table of windowed miss counters; a scalar
    :meth:`record` adds its slot to the clock's column offset (derived
    state: never pickled, rebuilt on load, so checkpoints do not change).

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
        k = window.subwindows
        #: Count cells, column-major: slot ``s``'s count for subwindow
        #: ``g`` lives at ``(g % k) * slots + s``, saturating at
        #: :data:`~repro.core.windows.COUNTER_SATURATION`.  The cells
        #: hold subwindows ``(clock - k, clock]``; older ones are zeroed.
        self.counts = bytearray(k * slots)
        #: Per slot, the sum of its cells: its windowed total as of the
        #: clock.  Two bytes a slot while ``k * COUNTER_SATURATION`` fits.
        typecode = "H" if k * COUNTER_SATURATION <= 0xFFFF else "I"
        self.totals = array(typecode, bytes(array(typecode).itemsize * slots))
        #: The latest subwindow recorded (-1: none yet).
        self.clock = -1
        self._column = self.clock % k * slots  # the clock's column in counts
        self.recorded_misses = 0
        #: aliased recordings observed (only counted while collision
        #: tracking is enabled; see :meth:`enable_collision_tracking`).
        self.alias_collisions = 0
        #: per-slot last-recorded address (-1: none), or None when
        #: tracking is off.
        self._last_address: Optional[array] = None

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_column"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._column = self.clock % self.window.subwindows * self.slots

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
            # All-ones bytes: -1 in every int64.
            self._last_address = array("q", b"\xff" * (8 * self.slots))

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
        if subwindow != self.clock:
            self._advance(subwindow)
        self.recorded_misses += 1
        tracked = self._last_address
        if tracked is not None:
            previous = tracked[slot]
            if previous >= 0 and previous != address:
                self.alias_collisions += 1
            tracked[slot] = address
        counts = self.counts
        cell = self._column + slot
        if counts[cell] < COUNTER_SATURATION:
            counts[cell] += 1
            self.totals[slot] += 1
        return self.totals[slot]

    def count(self, address: int, time: float) -> int:
        """Current windowed count of the address's slot (read-only)."""
        slot = self.slot_of(address)
        k = self.window.subwindows
        return self.totals[slot] - sum(
            self.counts[step % k * self.slots + slot]
            for step in self._expiring(self.window.subwindow_index(time))
        )

    def reset_slot(self, address: int) -> None:
        """Zero the slot an address maps to (after promotion/allocation)."""
        slot = self.slot_of(address)
        self.counts[slot::self.slots] = bytes(self.window.subwindows)
        self.totals[slot] = 0

    def _expiring(self, subwindow: int) -> range:
        """The steps from the clock to ``subwindow`` whose columns then
        leave the window — at most ``k``, the columns' residues; refuses
        a ``subwindow`` behind the clock."""
        clock = self.clock
        if subwindow < clock:
            raise ValueError(
                f"time moved backwards: subwindow {subwindow} < "
                f"table clock {clock}"
            )
        last = min(subwindow, clock + self.window.subwindows)
        return range(clock + 1, last + 1)

    def _advance(self, subwindow: int) -> None:
        """Move the clock to ``subwindow``, expiring for every slot the
        columns that leave the window: "If ... the current time window
        is larger than the last-updated counter by k or more, then all
        counters are inferred to be stale and zeroed out." """
        k = self.window.subwindows
        cells, totals = self.cells(), self.total_counts()
        for step in self._expiring(subwindow):
            column = cells[step % k]
            totals -= column
            column[:] = 0
        self.clock = subwindow
        self._column = subwindow % k * self.slots

    # -- vectorized access (same memory, no copies) ------------------------
    def cells(self) -> np.ndarray:
        """The count cells as a writable ``(k, slots)`` uint8 view."""
        return np.frombuffer(self.counts, dtype=np.uint8).reshape(
            self.window.subwindows, self.slots
        )

    def total_counts(self) -> np.ndarray:
        """The per-slot totals as a writable unsigned view."""
        return np.frombuffer(self.totals, dtype=f"u{self.totals.itemsize}")

    def live_totals(self, slots: np.ndarray, subwindow: int) -> np.ndarray:
        """Windowed totals of ``slots`` as of ``subwindow`` (read-only).

        The vector twin of :meth:`count`, by slot index: the stored
        totals less the columns a clock moved to ``subwindow`` would
        expire.  The clock itself stays.
        """
        k = self.window.subwindows
        cells = self.cells()
        totals = self.total_counts()[slots].astype(np.int64)
        for step in self._expiring(subwindow):
            totals -= cells[step % k][slots]
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
        the same sequence of :meth:`record_miss` calls would: columns
        expired, counts saturated where the sequential clamp would stop
        them, and — given the recordings' ``addresses`` while collision
        tracking is on — the same collision count and last addresses.
        A ``subwindow`` behind the clock raises, as there, before
        anything is written.
        """
        n = int(slots.size)
        if n == 0:
            return
        if subwindow != self.clock:
            self._advance(subwindow)
        self.recorded_misses += n
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(slots[1:], slots[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], n)
        unique = slots[starts]
        column = self.cells()[subwindow % self.window.subwindows]
        before = column[unique]
        column[unique] = np.minimum(before + (ends - starts), COUNTER_SATURATION)
        self.total_counts()[unique] += column[unique] - before
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
        """Bytes of table state: what :attr:`counts` and :attr:`totals` hold.

        One byte per subwindow cell plus a two-byte total per slot —
        ``slots * (k + 2)`` (``k + 4`` past ``k = 257``), with no
        per-slot object and no per-slot stamp behind it: the one clock
        stands in for the paper's per-group last-update stamps.
        (:mod:`repro.core.metastate` budgets the paper's hardware
        realization, stamps included.)  Collision tracking, when
        enabled, shadows another 8 bytes/slot.
        """
        return len(self.counts) + self.totals.itemsize * len(self.totals)
