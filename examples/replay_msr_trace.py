#!/usr/bin/env python
"""Bring your own trace: replay an MSR-Cambridge-format CSV.

The paper's evaluation runs on the MSR Cambridge block traces, which
are distributed as ``Timestamp,Hostname,DiskNumber,Type,Offset,Size,
ResponseTime`` CSV.  This example shows the full path for running
SieveStore against such a file:

1. (demo setup) export one day of the synthetic ensemble to CSV, so
   the example is self-contained — point ``TRACE_CSV`` at a real MSR
   file to use actual data;
2. load it with :func:`repro.traces.read_msr_csv`;
3. run the SieveStore-D *offline* pipeline on it — hash-partitioned
   access logs, map-reduce per-key counting, threshold selection — and
   report what the next epoch's cache would hold.

Run:
    python examples/replay_msr_trace.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.offline import AccessLog, compact, epoch_allocation, log_trace_day
from repro.traces import (
    EnsembleTraceGenerator,
    SyntheticTraceConfig,
    read_msr_csv,
    write_msr_csv,
)
from repro.util.units import format_bytes

#: Point this at a real MSR-Cambridge CSV to replay actual data.
TRACE_CSV = None


def demo_csv(directory: Path) -> Path:
    """Export one synthetic day in MSR format (demo stand-in)."""
    config = SyntheticTraceConfig(scale=1e-5, days=3)
    trace = EnsembleTraceGenerator(config).generate_columnar()
    day2 = trace.take(np.flatnonzero(trace.issue_days() == 2))
    path = directory / "ensemble-day2.csv"
    write_msr_csv(day2, path)
    return path


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        csv_path = Path(TRACE_CSV) if TRACE_CSV else demo_csv(tmp_path)
        print(f"loading {csv_path.name} "
              f"({format_bytes(csv_path.stat().st_size)}) ...")
        trace = read_msr_csv(csv_path)
        print(f"{len(trace):,} requests / {trace.total_blocks():,} block "
              f"accesses from {len(np.unique(trace.server_ids))} hosts")

        # SieveStore-D's offline metastate pipeline (paper Section 3.2):
        # log every access as an <address, 1> tuple into R hash-selected
        # files, compact incrementally, reduce at the epoch boundary.
        log_dir = tmp_path / "access-logs"
        with AccessLog(log_dir, partitions=16) as log:
            written = log_trace_day(log, trace)
        print(f"\nlogged {written:,} tuples into 16 partitions "
              f"({format_bytes(sum(log.partition_sizes()))})")

        saved = compact(log)
        print(f"incremental compaction reclaimed {format_bytes(saved)}")

        selected = epoch_allocation(log, threshold=10)
        print(f"\nblocks with more than 10 accesses this epoch: "
              f"{len(selected):,}")
        print(f"next epoch's batch allocation: "
              f"{format_bytes(len(selected) * 512)} of cache, "
              f"{len(selected):,} allocation-writes")
        share = len(selected) / max(
            1, len(np.unique(trace.expand_block_addresses()))
        )
        print(f"that is {share:.2%} of all blocks accessed — the sieve "
              "admits only the top sliver")


if __name__ == "__main__":
    main()
