"""The object-model oracle: request-by-request walks the columns must match.

Every data path in ``repro`` reads a
:class:`~repro.traces.columnar.ColumnarTrace`.  The readable reference
for what those vectorized paths compute lives here instead: a lossless
columnarization of an object :class:`~repro.traces.model.Trace` (so a
test can state a small trace as ``IORequest`` records), the per-block
walks over request objects that the per-day popularity tables are
checked against, and :func:`process_requests`, requests through the
appliance one by one with the policy's own per-miss ``wants``.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping

import numpy as np

from repro.cache.allocation import observe_hook
from repro.core.appliance import SieveStoreAppliance
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
    return [block_counts(counter) for counter in counters]


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
        server: [block_counts(counter) for counter in counters]
        for server, counters in result.items()
    }


def block_counts(table: Mapping[int, int]) -> BlockCounts:
    """Columns of an ``address -> count`` mapping."""
    addresses = np.fromiter(table.keys(), dtype=np.int64, count=len(table))
    counts = np.fromiter(table.values(), dtype=np.int64, count=len(table))
    order = np.argsort(addresses)
    return BlockCounts(addresses[order], counts[order])


def counts_dict(table: BlockCounts) -> Dict[int, int]:
    """A table as an ``address -> count`` dict, ascending by address."""
    return dict(zip(table.addresses.tolist(), table.counts.tolist()))


@dataclass(frozen=True)
class RequestOutcome:
    """Where one request's blocks were served from / what they cost."""

    hit_blocks: int
    miss_blocks: int
    allocated_blocks: int

    @property
    def served_from_ssd(self) -> bool:
        """True if every block hit (the request never touched a disk)."""
        return self.miss_blocks == 0 and self.hit_blocks > 0


def process_requests(
    appliance: SieveStoreAppliance, requests: Iterable[IORequest]
) -> List[RequestOutcome]:
    """Run requests one by one through the cache and the sieve, every
    miss taking the policy's ``wants``; then record their rows at once,
    as the engines record a window's
    (:meth:`~repro.cache.stats.CacheStats.record_rows`)."""
    observe, rows, outcomes = observe_hook(appliance.policy), [], []
    for request in requests:
        issue, completion = request.issue_time, request.completion_time
        n, is_write = request.block_count, request.is_write
        hits, backing, allocated = appliance.process_row(
            request.first_address, n, is_write, issue, completion, observe
        )
        rows.append((issue, completion, n, is_write, hits, backing))
        outcomes.append(RequestOutcome(hits, n - hits, allocated))
    if rows:
        appliance.stats.record_rows(*map(np.array, zip(*rows)))
    return outcomes


def process_request(
    appliance: SieveStoreAppliance, request: IORequest
) -> RequestOutcome:
    """One request through :func:`process_requests`."""
    return process_requests(appliance, [request])[0]
