"""Trace summarization: the "what am I looking at" report.

Produces the inventory-style statistics the paper's Table 1 and
Section 2 open with — per-server traffic, read/write mix, request
sizes, alignment — for any :class:`~repro.traces.model.Trace`
(synthetic or loaded from MSR CSV).  Used by the CLI's ``summarize``
command and handy when validating a newly imported trace.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List

from repro.traces.model import Trace
from repro.util.intervals import SECONDS_PER_DAY
from repro.util.units import BLOCK_BYTES


@dataclass
class ServerTraffic:
    """Per-server traffic totals."""

    server_id: int
    requests: int = 0
    blocks: int = 0
    read_blocks: int = 0

    @property
    def read_fraction(self) -> float:
        """Read share of this server's block traffic."""
        return self.read_blocks / self.blocks if self.blocks else 0.0


@dataclass
class TraceSummary:
    """Aggregate statistics of one trace."""

    requests: int
    block_accesses: int
    bytes_accessed: int
    days: int
    servers: List[ServerTraffic]
    read_fraction: float
    aligned_fraction: float
    request_size_blocks_mean: float
    request_size_histogram: Dict[str, int]

    @property
    def accesses_per_request(self) -> float:
        """Mean 512-byte blocks touched per request."""
        return self.block_accesses / self.requests if self.requests else 0.0


_SIZE_BUCKETS = ((1, "<=1"), (4, "2-4"), (8, "5-8"), (16, "9-16"),
                 (64, "17-64"), (float("inf"), ">64"))


def _size_bucket(blocks: int) -> str:
    for bound, label in _SIZE_BUCKETS:
        if blocks <= bound:
            return label
    raise AssertionError("unreachable")


def summarize_trace(trace: Trace) -> TraceSummary:
    """Compute a :class:`TraceSummary` in one pass over the trace."""
    per_server: Dict[int, ServerTraffic] = {}
    read_blocks = 0
    aligned = 0
    total_blocks = 0
    histogram: Counter = Counter()
    last_time = 0.0
    for request in trace:
        traffic = per_server.setdefault(
            request.server_id, ServerTraffic(server_id=request.server_id)
        )
        traffic.requests += 1
        traffic.blocks += request.block_count
        total_blocks += request.block_count
        if request.is_read:
            traffic.read_blocks += request.block_count
            read_blocks += request.block_count
        if request.aligned_4k:
            aligned += 1
        histogram[_size_bucket(request.block_count)] += 1
        last_time = max(last_time, request.issue_time)

    n = len(trace)
    return TraceSummary(
        requests=n,
        block_accesses=total_blocks,
        bytes_accessed=total_blocks * BLOCK_BYTES,
        days=int(last_time // SECONDS_PER_DAY) + 1 if n else 0,
        servers=sorted(per_server.values(), key=lambda s: s.server_id),
        read_fraction=read_blocks / total_blocks if total_blocks else 0.0,
        aligned_fraction=aligned / n if n else 0.0,
        request_size_blocks_mean=total_blocks / n if n else 0.0,
        request_size_histogram=dict(histogram),
    )


def summary_rows(summary: TraceSummary) -> List[list]:
    """Per-server rows for the report renderer."""
    return [
        [
            s.server_id,
            s.requests,
            s.blocks,
            round(s.blocks / max(1, summary.block_accesses), 3),
            round(s.read_fraction, 2),
        ]
        for s in summary.servers
    ]
