"""Trace summarization: the "what am I looking at" report.

Produces the inventory-style statistics the paper's Table 1 and
Section 2 open with — per-server traffic, read/write mix, request
sizes, alignment — for any :class:`~repro.traces.columnar.ColumnarTrace`
(synthetic or loaded from MSR CSV).  Used by the CLI's ``summarize``
command and handy when validating a newly imported trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.traces.columnar import ColumnarTrace
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


#: Request-size histogram buckets: upper bounds (blocks) and labels.
_SIZE_BOUNDS = (1, 4, 8, 16, 64)
_SIZE_LABELS = ("<=1", "2-4", "5-8", "9-16", "17-64", ">64")


def summarize_trace(trace: ColumnarTrace) -> TraceSummary:
    """Compute a :class:`TraceSummary` from the trace's columns.

    ``request_size_histogram`` keeps its buckets in the order the trace
    first reaches them.
    """
    n = len(trace)
    blocks = trace.block_count.astype(np.int64)
    read_blocks = np.where(trace.is_write, 0, blocks)
    server_ids, inverse = np.unique(trace.server_ids, return_inverse=True)
    # float64 weights are exact below 2**53 blocks per server.
    per_server = zip(
        server_ids.tolist(),
        *(
            np.bincount(inverse, weights=w).astype(np.int64).tolist()
            for w in (None, blocks, read_blocks)
        ),
    )
    buckets = np.searchsorted(_SIZE_BOUNDS, blocks)
    seen, first = np.unique(buckets, return_index=True)
    sizes = np.bincount(buckets, minlength=len(_SIZE_LABELS))
    total_blocks = int(blocks.sum())
    total_reads = int(read_blocks.sum())
    last_time = max(0.0, float(trace.issue_time.max())) if n else 0.0
    return TraceSummary(
        requests=n,
        block_accesses=total_blocks,
        bytes_accessed=total_blocks * BLOCK_BYTES,
        days=int(last_time // SECONDS_PER_DAY) + 1 if n else 0,
        servers=[ServerTraffic(*row) for row in per_server],
        read_fraction=total_reads / total_blocks if total_blocks else 0.0,
        aligned_fraction=int(np.count_nonzero(trace.aligned_4k)) / n if n else 0.0,
        request_size_blocks_mean=total_blocks / n if n else 0.0,
        request_size_histogram={
            _SIZE_LABELS[bucket]: int(sizes[bucket])
            for bucket in seen[np.argsort(first)].tolist()
        },
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
