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
from typing import Dict, List, Tuple, Union

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


#: One day's counters as a tuple, in field order (what ``astuple``
#: gives, without its deep copy of every field).
_day_row = attrgetter(*(field.name for field in fields(DayStats)))


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
    feed the drive-occupancy analysis of Figures 8-9.  Minute-level
    accounting can be disabled for analyses that do not need it.
    """

    def __init__(self, days: int, track_minutes: bool = True):
        if days <= 0:
            raise ValueError(f"days must be positive, got {days}")
        self.days = days
        self.track_minutes = track_minutes
        self.per_day: List[DayStats] = [DayStats() for _ in range(days)]
        self.per_minute: Dict[int, MinuteIO] = {}
        #: wall of simulated seconds spent in DEGRADED / BYPASS device
        #: health (assigned once at end of run from the fault plan's
        #: windows; always 0.0 on fault-free runs).
        self.degraded_seconds: float = 0.0
        self.bypass_seconds: float = 0.0

    # -- pickling -----------------------------------------------------------
    # Stats travel in every checkpoint and every shard result, so they
    # pickle as a few int64 columns rather than one object per day and
    # per minute.
    def __getstate__(self) -> dict:
        minutes = self.per_minute
        return {
            "days": self.days,
            "track_minutes": self.track_minutes,
            "per_day": np.array(
                [_day_row(day) for day in self.per_day], dtype=np.int64
            ),
            "minutes": np.fromiter(minutes, dtype=np.int64, count=len(minutes)),
            "minute_reads": np.fromiter(
                (entry.reads for entry in minutes.values()),
                dtype=np.int64, count=len(minutes),
            ),
            "minute_writes": np.fromiter(
                (entry.writes for entry in minutes.values()),
                dtype=np.int64, count=len(minutes),
            ),
            "degraded_seconds": self.degraded_seconds,
            "bypass_seconds": self.bypass_seconds,
        }

    def __setstate__(self, state: dict) -> None:
        self.days = state["days"]
        self.track_minutes = state["track_minutes"]
        self.per_day = [DayStats(*row) for row in state["per_day"].tolist()]
        self.per_minute = {
            minute: MinuteIO(reads, writes)
            for minute, reads, writes in zip(
                state["minutes"].tolist(),
                state["minute_reads"].tolist(),
                state["minute_writes"].tolist(),
            )
        }
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
        entry = self.per_minute.setdefault(minute_of(time), MinuteIO())
        if is_write:
            entry.writes += io_units
        else:
            entry.reads += io_units

    # -- whole requests, from columns ---------------------------------------
    def record_rows(
        self,
        issue_time: np.ndarray,
        completion_time: np.ndarray,
        block_count: np.ndarray,
        is_write: np.ndarray,
        hits: np.ndarray,
        allocating: Union[bool, np.ndarray] = False,
    ) -> None:
        """Record write-through requests, one per row, in a few passes.

        Row ``i`` accessed ``block_count[i]`` blocks at ``issue_time[i]``
        and ``hits[i]`` of them hit: :meth:`record_accesses`,
        :meth:`record_backing_write` for a write's every block, and
        :meth:`record_ssd_io` for the hits' 4-KB units.
        Where ``allocating[i]`` is set, every miss of the row was also
        allocated a frame, by a request completing within its issue day:
        :meth:`record_allocation_write`, plus the insertion's units at
        ``completion_time[i]``.  Any other allocation is the caller's to
        record block by block.  The counters end exactly as those scalar
        calls leave them, in however many pieces a chunk is recorded.
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
            np.bincount(day, allocated, days),
        ]).astype(np.int64)
        for stats, (reads, writes, read_hits, write_hits, installed) in zip(
            self.per_day, counted.tolist()
        ):
            stats.accesses += reads + writes
            stats.read_hits += read_hits
            stats.write_hits += write_hits
            stats.read_misses += reads - read_hits
            stats.write_misses += writes - write_hits
            stats.backing_writes += writes
            stats.allocation_writes += installed
        if not self.track_minutes:
            return
        # record_ssd_io over both kinds of SSD operation at once; as
        # there, a row without units touches no minute.
        units = np.concatenate([(hits + 7) >> 3, (allocated + 7) >> 3])
        busy = units > 0
        times = np.concatenate([issue_time, completion_time])[busy]
        kinds = np.concatenate([is_write, np.ones(len(blocks), dtype=bool)])
        minutes, inverse = np.unique(
            _buckets(times, SECONDS_PER_MINUTE), return_inverse=True
        )
        moved = np.bincount(
            inverse * 2 + kinds[busy], units[busy], 2 * len(minutes)
        ).astype(np.int64)
        per_minute = self.per_minute
        for minute, reads, writes in zip(
            minutes.tolist(), moved[0::2].tolist(), moved[1::2].tolist()
        ):
            entry = per_minute.get(minute)
            if entry is None:
                per_minute[minute] = MinuteIO(reads, writes)
            else:
                entry.reads += reads
                entry.writes += writes

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
            mine.accesses += theirs.accesses
            mine.read_hits += theirs.read_hits
            mine.write_hits += theirs.write_hits
            mine.read_misses += theirs.read_misses
            mine.write_misses += theirs.write_misses
            mine.allocation_writes += theirs.allocation_writes
            mine.backing_writes += theirs.backing_writes
            mine.writebacks += theirs.writebacks
            mine.read_errors += theirs.read_errors
            mine.write_errors += theirs.write_errors
            mine.bypass_accesses += theirs.bypass_accesses
        for minute, entry in other.per_minute.items():
            mine_entry = self.per_minute.setdefault(minute, MinuteIO())
            mine_entry.reads += entry.reads
            mine_entry.writes += entry.writes
        self.degraded_seconds += other.degraded_seconds
        self.bypass_seconds += other.bypass_seconds
        return self

    @classmethod
    def merged(cls, parts: "List[CacheStats]") -> "CacheStats":
        """Merge a non-empty sequence of stats into a fresh instance."""
        if not parts:
            raise ValueError("cannot merge an empty sequence of stats")
        result = cls(
            days=parts[0].days,
            track_minutes=any(p.track_minutes for p in parts),
        )
        for part in parts:
            result.merge(part)
        return result

    # -- aggregation --------------------------------------------------------
    @property
    def total(self) -> DayStats:
        """Whole-run totals as a single DayStats."""
        total = DayStats()
        for day in self.per_day:
            total.accesses += day.accesses
            total.read_hits += day.read_hits
            total.write_hits += day.write_hits
            total.read_misses += day.read_misses
            total.write_misses += day.write_misses
            total.allocation_writes += day.allocation_writes
            total.backing_writes += day.backing_writes
            total.writebacks += day.writebacks
            total.read_errors += day.read_errors
            total.write_errors += day.write_errors
            total.bypass_accesses += day.bypass_accesses
        return total

    def minute_series(self) -> List[Tuple[int, MinuteIO]]:
        """(minute, MinuteIO) pairs in chronological order."""
        return sorted(self.per_minute.items())

    def check_consistency(self) -> None:
        """Internal invariant: hits + misses == accesses, every day."""
        for index, day in enumerate(self.per_day):
            if day.hits + day.misses != day.accesses:
                raise AssertionError(
                    f"day {index}: hits({day.hits}) + misses({day.misses}) "
                    f"!= accesses({day.accesses})"
                )
