"""MCT — the precise Miss Count Table (Section 3.3, second sieve tier).

Blocks that clear the IMCT's tier-1 threshold get an exact, per-block
windowed miss counter here ("an additional perfect Miss Count Table
(MCT) which is implemented as a hash-table").  A block must then see a
further ``t2`` misses (tuned to 4 in the paper) before it is allocated.

Because only IMCT-qualified blocks ever enter, the MCT stays small; the
paper additionally prunes stale entries periodically ("Periodically we
prune the MCT to eliminate stale blocks"), which :meth:`prune`
implements — entries whose whole window has expired are dropped.
"""

from __future__ import annotations

from typing import Dict

from repro.core.windows import SubwindowCounter, WindowSpec


class MissCountTable:
    """Exact per-block windowed miss counts for IMCT-promoted blocks.

    Args:
        window: the sliding-window shape (shared with the IMCT).
        prune_interval: seconds between automatic stale-entry sweeps;
            sweeps happen opportunistically during :meth:`record_miss`.
    """

    def __init__(self, window: WindowSpec, prune_interval: float = 3600.0):
        if prune_interval <= 0:
            raise ValueError(f"prune_interval must be positive, got {prune_interval}")
        self.window = window
        self.prune_interval = prune_interval
        self._counters: Dict[int, SubwindowCounter] = {}
        self._last_prune: float = 0.0
        self.peak_entries = 0
        #: blocks that ever entered the table (track + auto-track).
        self.inserts = 0
        #: stale entries removed by :meth:`prune` (allocation-time
        #: :meth:`forget` removals are admissions, counted by the sieve).
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._counters)

    def __contains__(self, address: int) -> bool:
        return address in self._counters

    def track(self, address: int) -> None:
        """Start tracking a block with a zero count (tier-1 promotion).

        The promoting miss itself was consumed by the IMCT threshold;
        the paper requires t2 *additional* misses after promotion, so
        the block enters with an empty counter.
        """
        if address not in self._counters:
            self._counters[address] = SubwindowCounter(self.window.subwindows)
            self.inserts += 1
            if len(self._counters) > self.peak_entries:
                self.peak_entries = len(self._counters)

    def record_miss(self, address: int, time: float) -> int:
        """Count a miss for a tracked (or newly-tracked) block.

        Returns the block's exact windowed miss count.  Opportunistically
        prunes stale entries on the configured interval.
        """
        self.sweep(time)
        counter = self._counters.get(address)
        if counter is None:
            counter = SubwindowCounter(self.window.subwindows)
            self._counters[address] = counter
            self.inserts += 1
            if len(self._counters) > self.peak_entries:
                self.peak_entries = len(self._counters)
        return counter.record(self.window.subwindow_index(time))

    def count(self, address: int, time: float) -> int:
        """Exact windowed miss count for a block (0 if untracked)."""
        counter = self._counters.get(address)
        if counter is None:
            return 0
        return counter.total(self.window.subwindow_index(time))

    def forget(self, address: int) -> None:
        """Drop a block's counter (called when the block is allocated)."""
        self._counters.pop(address, None)

    def sweep(self, time: float) -> None:
        """:meth:`prune` if the prune interval has elapsed since the last
        sweep."""
        if time - self._last_prune >= self.prune_interval:
            self.prune(time)

    def prune(self, time: float) -> None:
        """Remove entries whose whole window has expired.

        This is the paper's periodic staleness sweep — it bounds the
        MCT's size to blocks that have missed within the last W.
        """
        subwindow = self.window.subwindow_index(time)
        stale = [
            address
            for address, counter in self._counters.items()
            if counter.is_stale(subwindow)
        ]
        for address in stale:
            del self._counters[address]
        self.evictions += len(stale)
        self._last_prune = time
