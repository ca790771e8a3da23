"""The object-model oracle: request-by-request walks the columns must match.

Every data path in ``repro`` reads a
:class:`~repro.traces.columnar.ColumnarTrace`.  The readable reference
for what those vectorized paths compute lives here instead: a lossless
columnarization of an object :class:`~repro.traces.model.Trace` (so a
test can state a small trace as ``IORequest`` records), and the
per-block walks over request objects that the per-day popularity
tables are checked against.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Iterable, List

import numpy as np

from repro.traces.columnar import BlockCounts, ColumnarTrace
from repro.traces.model import IORequest, Trace, pack_address
from repro.util.intervals import day_of


def from_trace(trace: Trace) -> ColumnarTrace:
    """Columnarize an object trace (lossless inverse of
    :meth:`ColumnarTrace.to_trace`)."""
    n = len(trace)
    issue = np.empty(n, dtype=np.float64)
    completion = np.empty(n, dtype=np.float64)
    address = np.empty(n, dtype=np.int64)
    block_count = np.empty(n, dtype=np.int32)
    is_write = np.empty(n, dtype=np.bool_)
    aligned = np.empty(n, dtype=np.bool_)
    for i, request in enumerate(trace.requests):
        issue[i] = request.issue_time
        completion[i] = request.completion_time
        address[i] = pack_address(
            request.server_id, request.volume_id, request.block_offset
        )
        block_count[i] = request.block_count
        is_write[i] = request.is_write
        aligned[i] = request.aligned_4k
    return ColumnarTrace(
        issue_time=issue,
        completion_time=completion,
        address=address,
        block_count=block_count,
        is_write=is_write,
        aligned_4k=aligned,
        description=trace.description,
    )


def columns_of(requests: Iterable[IORequest]) -> ColumnarTrace:
    """The columns of a list of requests, in the given order."""
    return from_trace(Trace(list(requests)))


def daily_block_counts(trace: Trace, days: int) -> List[BlockCounts]:
    """Per-day block-address -> access count tables, block by block.

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


def per_server_daily_counts(
    trace: Trace, days: int
) -> Dict[int, List[BlockCounts]]:
    """Per-server, per-day block access counts, block by block."""
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
