"""Cache statistics: hits, misses, allocation-writes, per-day/per-minute.

The paper's figures aggregate three disjoint classes of SSD operations
(Figure 7): **read hits**, **write hits**, and **allocation-writes**
(the insertion write performed when a missed block is allocated a cache
frame).  Misses that are not allocated bypass the SSD entirely.  All
counts here are in 512-byte block units.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from types import MappingProxyType
from typing import List, Mapping, Tuple, Union

import numpy as np

from repro.util.intervals import (
    SECONDS_PER_DAY,
    SECONDS_PER_MINUTE,
    bucket_indices,
    day_of,
    minute_of,
)


@dataclass
class DayStats:
    """Per-day block-level counters.

    ``backing_writes`` counts blocks written to the underlying ensemble
    (write-through forwards, write-back evict-time flushes, and all
    write misses); ``writebacks`` is the evict-time subset.  Both are
    zero-cost extensions to the paper's accounting — they never affect
    the SSD-side numbers the figures report.

    The fault counters (``read_errors``/``write_errors``: SSD block
    operations that failed inside a fault plan's error windows;
    ``bypass_accesses``: block accesses served while the device was in
    BYPASS) stay zero on fault-free runs, so existing figures are
    unchanged unless a :class:`~repro.faults.plan.FaultPlan` is active.
    An errored operation is counted as a *miss* (the SSD did not serve
    it), keeping ``hits + misses == accesses`` intact.
    """

    accesses: int = 0
    read_hits: int = 0
    write_hits: int = 0
    read_misses: int = 0
    write_misses: int = 0
    allocation_writes: int = 0
    backing_writes: int = 0
    writebacks: int = 0
    read_errors: int = 0
    write_errors: int = 0
    bypass_accesses: int = 0

    @property
    def hits(self) -> int:
        """All hits (reads + writes)."""
        return self.read_hits + self.write_hits

    @property
    def misses(self) -> int:
        """All misses (reads + writes)."""
        return self.read_misses + self.write_misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of block accesses served by the cache (0 if idle)."""
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def ssd_operations(self) -> int:
        """All SSD ops: hits plus allocation-writes (Figure 7's bars)."""
        return self.hits + self.allocation_writes

    @property
    def ssd_writes(self) -> int:
        """Slow SSD write ops: write hits plus allocation-writes."""
        return self.write_hits + self.allocation_writes


#: Minute-array width per trace day.
_MINUTES_PER_DAY = SECONDS_PER_DAY // SECONDS_PER_MINUTE

#: One day's counters as a tuple, in field order (what ``astuple``
#: gives, without its deep copy of every field).
_DAY_FIELDS = tuple(field.name for field in fields(DayStats))
_day_row = attrgetter(*_DAY_FIELDS)


@dataclass
class MinuteIO:
    """Per-minute SSD read/write op counts, in 4-KB I/O units.

    These drive the drive-occupancy costing of Section 4: each 4-KB read
    occupies the drive for 1/35000 s and each 4-KB write for 1/3300 s.
    """

    reads: int = 0
    writes: int = 0


def _buckets(times: np.ndarray, bucket_seconds: int) -> np.ndarray:
    """:func:`day_of` / :func:`minute_of` over a column: the same
    indices, the same refusal of a negative timestamp."""
    if len(times) and times.min() < 0:
        raise ValueError(f"timestamp must be non-negative, got {times.min()}")
    return bucket_indices(times, bucket_seconds)


class CacheStats:
    """Accumulates block-level cache statistics for a simulation run.

    Per-day counters feed Figures 5-7; per-minute 4-KB I/O-unit counters
    feed the drive-occupancy analysis of Figures 8-9, from one dense
    int64 ``(2, minutes)`` array (row 0 reads, row 1 writes), ``days ×
    1440`` wide and grown by days for completion times past the last;
    :attr:`per_minute` and :meth:`minute_series` read it.  Minute-level
    accounting can be disabled (the array is then zero-width).
    """

    def __init__(self, days: int, track_minutes: bool = True):
        if days <= 0:
            raise ValueError(f"days must be positive, got {days}")
        self.days = days
        self.track_minutes = track_minutes
        self.per_day: List[DayStats] = [DayStats() for _ in range(days)]
        width = days * _MINUTES_PER_DAY if track_minutes else 0
        self._minute_units = np.zeros((2, width), dtype=np.int64)
        #: wall of simulated seconds spent in DEGRADED / BYPASS device
        #: health (assigned once at end of run from the fault plan's
        #: windows; always 0.0 on fault-free runs).
        self.degraded_seconds: float = 0.0
        self.bypass_seconds: float = 0.0

    def _grown(self, width: int) -> np.ndarray:
        """The minute array, grown by whole days to at least ``width``."""
        units = self._minute_units
        if units.shape[1] < width:
            days = -(-width // _MINUTES_PER_DAY)
            self._minute_units = np.zeros((2, days * _MINUTES_PER_DAY), dtype=np.int64)
            self._minute_units[:, : units.shape[1]] = units
        return self._minute_units

    def minute_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The minutes with traffic, ascending, and their read and write
        units: int64 columns sliced from the minute array."""
        units = self._minute_units
        minutes = np.flatnonzero(units.any(axis=0))
        return minutes, units[0, minutes], units[1, minutes]

    def load_minutes(
        self, minutes: np.ndarray, reads: np.ndarray, writes: np.ndarray
    ) -> None:
        """Set these minutes' units (each minute once, in any order)."""
        units = self._grown(int(minutes.max(initial=-1)) + 1)
        units[0, minutes] = reads
        units[1, minutes] = writes

    # -- pickling -----------------------------------------------------------
    # Stats travel in every checkpoint and every shard result, so they
    # pickle as a few int64 columns rather than one object per day and
    # per minute: the busy minutes, ascending, with their units.
    def __getstate__(self) -> dict:
        minutes, reads, writes = self.minute_columns()
        return {
            "days": self.days,
            "track_minutes": self.track_minutes,
            "per_day": np.array(
                [_day_row(day) for day in self.per_day], dtype=np.int64
            ),
            "minutes": minutes,
            "minute_reads": reads,
            "minute_writes": writes,
            "degraded_seconds": self.degraded_seconds,
            "bypass_seconds": self.bypass_seconds,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["days"], state["track_minutes"])
        self.per_day = [DayStats(*row) for row in state["per_day"].tolist()]
        self.load_minutes(state["minutes"], state["minute_reads"], state["minute_writes"])
        self.degraded_seconds = state["degraded_seconds"]
        self.bypass_seconds = state["bypass_seconds"]

    # -- block-level recording -------------------------------------------
    def _day(self, time: float) -> DayStats:
        day = day_of(time)
        if day >= self.days:
            day = self.days - 1
        return self.per_day[day]

    def record_accesses(
        self, time: float, is_write: bool, hits: int, misses: int
    ) -> None:
        """Count one request's blocks, all issued at ``time``: ``hits``
        served by the cache and ``misses`` not (512-byte blocks)."""
        stats = self._day(time)
        stats.accesses += hits + misses
        if is_write:
            stats.write_hits += hits
            stats.write_misses += misses
        else:
            stats.read_hits += hits
            stats.read_misses += misses

    def record_hit(self, time: float, is_write: bool, blocks: int = 1) -> None:
        """Count cache hits for ``blocks`` 512-byte blocks."""
        self.record_accesses(time, is_write, blocks, 0)

    def record_miss(self, time: float, is_write: bool, blocks: int = 1) -> None:
        """Count cache misses for ``blocks`` 512-byte blocks."""
        self.record_accesses(time, is_write, 0, blocks)

    def record_allocation_write(self, time: float, blocks: int = 1) -> None:
        """Record insertion writes; does not count as an access."""
        self._day(time).allocation_writes += blocks

    def record_backing_write(
        self, time: float, blocks: int = 1, is_writeback: bool = False
    ) -> None:
        """Record writes reaching the backing ensemble (extension)."""
        day = self._day(time)
        day.backing_writes += blocks
        if is_writeback:
            day.writebacks += blocks

    # -- fault recording (no-ops on fault-free runs) ------------------------
    def record_read_error(self, time: float, blocks: int = 1) -> None:
        """Count SSD block reads that failed (served from backing instead)."""
        self._day(time).read_errors += blocks

    def record_write_error(self, time: float, blocks: int = 1) -> None:
        """Count SSD block writes that failed (allocation/update suppressed)."""
        self._day(time).write_errors += blocks

    def record_bypass_access(self, time: float, blocks: int = 1) -> None:
        """Count block accesses served while the device was in BYPASS."""
        self._day(time).bypass_accesses += blocks

    # -- minute-level 4-KB unit recording ----------------------------------
    def record_ssd_io(self, time: float, io_units: int, is_write: bool) -> None:
        """Record SSD traffic in 4-KB units for occupancy costing."""
        if not self.track_minutes or io_units <= 0:
            return
        minute = minute_of(time)
        units = self._minute_units
        if minute >= units.shape[1]:
            units = self._grown(minute + 1)
        units[1 if is_write else 0, minute] += io_units

    # -- whole requests, from columns ---------------------------------------
    def record_rows(
        self,
        issue_time: np.ndarray,
        completion_time: np.ndarray,
        block_count: np.ndarray,
        is_write: np.ndarray,
        hits: np.ndarray,
        backing: np.ndarray,
        allocating: Union[bool, np.ndarray] = False,
    ) -> None:
        """Record requests, one per row, in a few passes.

        Row ``i`` accessed ``block_count[i]`` blocks at ``issue_time[i]``,
        ``hits[i]`` of them hit, and ``backing[i]`` of them were written
        to the backing ensemble at issue: :meth:`record_accesses`,
        :meth:`record_backing_write` (not an evict-time writeback), and
        :meth:`record_ssd_io` for the hits' 4-KB units.
        Where ``allocating[i]`` is set, every miss of the row was also
        allocated a frame, by a request completing within its issue day:
        :meth:`record_allocation_write`, plus the insertion's units at
        ``completion_time[i]``.  Any other allocation is the caller's to
        record block by block (:func:`_record_allocations`).  The counters
        end exactly as those scalar calls leave them, in however many
        pieces a chunk is recorded: the per-day ones from a few
        ``bincount`` passes, the 4-KB units with one ``bincount`` into
        the minute array.
        """
        if not len(issue_time):
            return
        days = self.days
        blocks = block_count.astype(np.int64)
        allocated = (blocks - hits) * allocating
        day = np.minimum(_buckets(issue_time, SECONDS_PER_DAY), days - 1)
        kind = day * 2 + is_write
        counted = np.column_stack([
            np.bincount(kind, blocks, 2 * days).reshape(days, 2),
            np.bincount(kind, hits, 2 * days).reshape(days, 2),
            np.bincount(day, backing, days),
            np.bincount(day, allocated, days),
        ]).astype(np.int64)
        for stats, (reads, writes, read_hits, write_hits, backed, installed) in zip(
            self.per_day, counted.tolist()
        ):
            stats.accesses += reads + writes
            stats.read_hits += read_hits
            stats.write_hits += write_hits
            stats.read_misses += reads - read_hits
            stats.write_misses += writes - write_hits
            stats.backing_writes += backed
            stats.allocation_writes += installed
        if not self.track_minutes:
            return
        # record_ssd_io over both kinds of SSD operation at once; as
        # there, a row without units touches no minute.
        units = np.concatenate([(hits + 7) >> 3, (allocated + 7) >> 3])
        busy = units > 0
        times = np.concatenate([issue_time, completion_time])[busy]
        kinds = np.concatenate([is_write, np.ones(len(blocks), dtype=bool)])
        minutes = _buckets(times, SECONDS_PER_MINUTE)
        minute_units = self._grown(int(minutes.max(initial=-1)) + 1)
        width = minute_units.shape[1]
        minute_units += np.bincount(
            kinds[busy] * width + minutes, units[busy], 2 * width
        ).astype(np.int64).reshape(2, width)

    # -- merging ------------------------------------------------------------
    def merge(self, other: "CacheStats") -> "CacheStats":
        """Accumulate another run's counters into this one, in place.

        Both operands must cover the same number of days.  Per-day
        counters add field-wise; per-minute I/O entries add read/write
        unit counts.  This is what lets sharded or worker-partitioned
        simulations (one trace shard per process) combine their
        statistics into one run-level :class:`CacheStats`.

        Returns ``self`` for chaining.
        """
        if other.days != self.days:
            raise ValueError(
                f"cannot merge stats over {other.days} days into stats "
                f"over {self.days} days"
            )
        for mine, theirs in zip(self.per_day, other.per_day):
            for name in _DAY_FIELDS:
                setattr(mine, name, getattr(mine, name) + getattr(theirs, name))
        theirs = other._minute_units
        self._grown(theirs.shape[1])[:, : theirs.shape[1]] += theirs
        self.degraded_seconds += other.degraded_seconds
        self.bypass_seconds += other.bypass_seconds
        return self

    @classmethod
    def merged(cls, parts: "List[CacheStats]") -> "CacheStats":
        """Merge a non-empty sequence of stats into a fresh instance."""
        if not parts:
            raise ValueError("cannot merge an empty sequence of stats")
        result = cls(parts[0].days, any(p.track_minutes for p in parts))
        for part in parts:
            result.merge(part)
        return result

    # -- aggregation --------------------------------------------------------
    @property
    def total(self) -> DayStats:
        """Whole-run totals as a single DayStats."""
        return DayStats(*map(sum, zip(*map(_day_row, self.per_day))))

    def minute_series(self) -> List[Tuple[int, MinuteIO]]:
        """(minute, MinuteIO) pairs in chronological order, for every
        minute with traffic."""
        minutes, reads, writes = self.minute_columns()
        ios = map(MinuteIO, reads.tolist(), writes.tolist())
        return list(zip(minutes.tolist(), ios))

    @property
    def per_minute(self) -> Mapping[int, MinuteIO]:
        """Read-only ``{minute: MinuteIO}`` view of :meth:`minute_series`."""
        return MappingProxyType(dict(self.minute_series()))

    def check_consistency(self) -> None:
        """Internal invariant: hits + misses == accesses, every day."""
        for index, day in enumerate(self.per_day):
            if day.hits + day.misses != day.accesses:
                raise AssertionError(
                    f"day {index}: hits({day.hits}) + misses({day.misses}) "
                    f"!= accesses({day.accesses})"
                )


def _record_allocations(
    stats: CacheStats, issue: float, completion: float, blocks: int, offsets: List[int]
) -> None:
    """Allocation-writes of one request that installed its blocks at
    ``offsets`` (a sieve admission, a request running past midnight, any
    object-engine allocation): each block at its own interpolated
    completion time, so a day-straddling request's split across the
    boundary, and their 4-KB units at the request's completion."""
    span = completion - issue
    for off in offsets:
        stats.record_allocation_write(issue + span * ((off + 1) / blocks))
    stats.record_ssd_io(completion, (len(offsets) + 7) >> 3, True)
