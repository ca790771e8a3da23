"""Per-key reduction over access logs (Section 3.2's map-reduce pass).

The paper reduces SieveStore-D's access logs with a map-reduce-like
structure: each of the R hash-partitioned files is (2) sorted, then (3)
contiguous runs of the same address are counted and emitted as
``<address, n>`` tuples.  At the epoch boundary, tuples with ``n``
greater than the threshold are allocated for the next epoch.

Three entry points:

* :func:`reduce_partition` — sort + run-length count of one partition;
* :func:`compact` — the incremental variant: rewrite each partition
  with its counts merged, keeping log growth bounded mid-epoch;
* :func:`epoch_allocation` — full end-of-epoch pass returning the
  blocks whose counts exceed the threshold (and, optionally, the full
  count table for analysis).

The reduction is deliberately implemented the way the paper describes —
sort then run-length — rather than with a dict, so the tests can verify
the map-reduce structure itself produces counts identical to the
in-memory simulation counters.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, List, Optional, Set, Tuple

from repro.offline.logs import AccessLog
from repro.traces.columnar import ColumnarTrace


def _sorted_tuples(log: AccessLog, partition: int) -> List[Tuple[int, int]]:
    tuples = list(log.read_partition(partition))
    tuples.sort(key=lambda pair: pair[0])
    return tuples


def reduce_partition(log: AccessLog, partition: int) -> Iterator[Tuple[int, int]]:
    """Sort one partition and emit ``<address, n>`` per contiguous run.

    Runs of the same address are summed: raw ``<address, 1>`` tuples and
    previously-compacted ``<address, n>`` tuples mix freely.
    """
    current_address = None
    current_count = 0
    for address, count in _sorted_tuples(log, partition):
        if address == current_address:
            current_count += count
            continue
        if current_address is not None:
            yield current_address, current_count
        current_address, current_count = address, count
    if current_address is not None:
        yield current_address, current_count


def reduce_all(log: AccessLog) -> Counter:
    """Reduce every partition into one address -> count table."""
    counts: Counter = Counter()
    for partition in range(log.partitions):
        for address, count in reduce_partition(log, partition):
            counts[address] += count
    return counts


def compact(log: AccessLog) -> int:
    """Incrementally compact every partition in place.

    Each partition file is rewritten with one ``<address, n>`` line per
    unique address.  Returns the total byte reduction.  The log must be
    closed (no open write handles).
    """
    before = sum(log.partition_sizes())
    for partition in range(log.partitions):
        reduced = list(reduce_partition(log, partition))
        path = log.partition_path(partition)
        if not reduced:
            if path.exists():
                path.unlink()
            continue
        with path.open("w") as handle:
            for address, count in reduced:
                handle.write(f"{address} {count}\n")
    after = sum(log.partition_sizes())
    return before - after


def epoch_allocation(
    log: AccessLog, threshold: int, capacity_blocks: Optional[int] = None
) -> Set[int]:
    """End-of-epoch pass: blocks whose epoch count exceeds ``threshold``.

    Mirrors :meth:`repro.core.sievestore_d.SieveStoreD.select_allocation`
    exactly — including the capacity cap, applied most-accessed-first —
    so the offline pipeline and the in-memory simulation agree.
    """
    counts = reduce_all(log)
    qualified = [
        (count, address) for address, count in counts.items() if count > threshold
    ]
    if capacity_blocks is not None and len(qualified) > capacity_blocks:
        qualified.sort(reverse=True)
        qualified = qualified[:capacity_blocks]
    return {address for _, address in qualified}


def log_trace_day(log: AccessLog, trace: ColumnarTrace) -> int:
    """Append every block access of a trace's rows to the log, in
    issue order.

    Returns the number of tuples written.  Convenience used by examples
    and the equivalence tests.
    """
    blocks = trace.expand_block_addresses().tolist()
    for address in blocks:
        log.append(address)
    return len(blocks)
