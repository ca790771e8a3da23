"""Trace stream helpers: day partitioning and per-day statistics.

The paper analyses everything "on a calendar day basis" (Section 2);
these helpers split traces by day and compute the per-day per-block
access counts that drive both the skew analysis (Figure 2) and the
sieving mechanisms.

The block counts here are the readable reference: a per-block walk over
request objects, converted once at the end to the
:class:`~repro.traces.columnar.BlockCounts` every vectorized producer
returns, against which the tests check them.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Iterator, List, Tuple

from repro.traces.columnar import BlockCounts
from repro.traces.model import IORequest, Trace
from repro.util.intervals import SECONDS_PER_DAY, day_of


def split_by_day(trace: Trace, days: int) -> List[Trace]:
    """Partition a trace into ``days`` calendar-day traces.

    Requests are assigned to the day of their *issue* time.  Requests
    issued past the last requested day are dropped (with the synthetic
    generator this never happens; with real traces it trims the ragged
    tail).
    """
    if days <= 0:
        raise ValueError(f"days must be positive, got {days}")
    buckets: List[List[IORequest]] = [[] for _ in range(days)]
    for request in trace:
        day = day_of(request.issue_time)
        if day < days:
            buckets[day].append(request)
    return [
        Trace(bucket, description=f"{trace.description} [day {day}]")
        for day, bucket in enumerate(buckets)
    ]


def daily_block_counts(trace: Trace, days: int) -> List[BlockCounts]:
    """Per-day block-address -> access count tables.

    Every 512-byte block touched by a request contributes one access, so
    a 16-block request adds one access to each of its 16 blocks.
    """
    counters: List[Counter] = [Counter() for _ in range(days)]
    for request in trace:
        day = day_of(request.issue_time)
        if day >= days:
            continue
        counter = counters[day]
        base = request.first_address
        for i in range(request.block_count):
            counter[base + i] += 1
    return [BlockCounts.from_mapping(counter) for counter in counters]


def daily_access_totals(trace: Trace, days: int) -> List[int]:
    """Total 512-byte block accesses per day."""
    totals = [0] * days
    for request in trace:
        day = day_of(request.issue_time)
        if day < days:
            totals[day] += request.block_count
    return totals


def daily_read_write_split(trace: Trace, days: int) -> List[Tuple[int, int]]:
    """Per-day (read_blocks, write_blocks) tuples."""
    splits = [[0, 0] for _ in range(days)]
    for request in trace:
        day = day_of(request.issue_time)
        if day < days:
            splits[day][0 if request.is_read else 1] += request.block_count
    return [tuple(s) for s in splits]


def iter_day_requests(trace: Trace, day: int) -> Iterator[IORequest]:
    """Requests issued during one calendar day, in order."""
    lo, hi = day * SECONDS_PER_DAY, (day + 1) * SECONDS_PER_DAY
    for request in trace:
        if lo <= request.issue_time < hi:
            yield request
        elif request.issue_time >= hi:
            break


def per_server_daily_counts(
    trace: Trace, days: int
) -> Dict[int, List[BlockCounts]]:
    """Per-server, per-day block access counts (for Figure 3 analyses)."""
    result: Dict[int, List[Counter]] = defaultdict(
        lambda: [Counter() for _ in range(days)]
    )
    for request in trace:
        day = day_of(request.issue_time)
        if day >= days:
            continue
        counter = result[request.server_id][day]
        base = request.first_address
        for i in range(request.block_count):
            counter[base + i] += 1
    return {
        server: [BlockCounts.from_mapping(counter) for counter in counters]
        for server, counters in result.items()
    }
