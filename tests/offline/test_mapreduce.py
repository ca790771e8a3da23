"""Sort + run-length per-key reduction, and equivalence with the
in-memory sieve (the paper's offline pipeline for SieveStore-D)."""

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.sievestore_d import SieveStoreD, SieveStoreDConfig
from repro.offline.logs import AccessLog
from repro.offline.mapreduce import (
    compact,
    epoch_allocation,
    log_trace_day,
    reduce_all,
    reduce_partition,
)


class TestReduction:
    def test_counts_duplicates(self, tmp_path):
        with AccessLog(tmp_path, partitions=4) as log:
            for _ in range(5):
                log.append(10)
            log.append(11)
        counts = reduce_all(log)
        assert counts == Counter({10: 5, 11: 1})

    def test_mixes_raw_and_compacted_tuples(self, tmp_path):
        with AccessLog(tmp_path, partitions=1) as log:
            log.append(3, count=4)
            log.append(3, count=1)
        assert reduce_all(log)[3] == 5

    def test_reduce_partition_sorted_output(self, tmp_path):
        with AccessLog(tmp_path, partitions=1) as log:
            for address in (9, 1, 5, 1, 9, 9):
                log.append(address)
        reduced = list(reduce_partition(log, 0))
        assert reduced == [(1, 2), (5, 1), (9, 3)]

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=200))
    def test_equals_counter(self, addresses):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            with AccessLog(tmp, partitions=4) as log:
                for address in addresses:
                    log.append(address)
            assert reduce_all(log) == Counter(addresses)


class TestCompaction:
    def test_compaction_preserves_counts(self, tmp_path):
        with AccessLog(tmp_path, partitions=4) as log:
            for address in [1, 2, 1, 1, 3, 2] * 50:
                log.append(address)
        before = reduce_all(log)
        saved = compact(log)
        assert saved > 0
        assert reduce_all(log) == before

    def test_compaction_is_idempotent(self, tmp_path):
        with AccessLog(tmp_path, partitions=2) as log:
            for address in (1, 1, 2):
                log.append(address)
        compact(log)
        assert compact(log) == 0

    def test_incremental_compact_then_more_appends(self, tmp_path):
        # Section 3.2: "per-key reductions may be periodically performed
        # in an incremental way to reduce the size of the logs".
        with AccessLog(tmp_path, partitions=2) as log:
            for _ in range(10):
                log.append(5)
        compact(log)
        with AccessLog(tmp_path, partitions=2) as log:
            for _ in range(7):
                log.append(5)
        assert reduce_all(log)[5] == 17


class TestEpochAllocation:
    def test_threshold_rule(self, tmp_path):
        with AccessLog(tmp_path, partitions=2) as log:
            for _ in range(11):
                log.append(1)
            for _ in range(10):
                log.append(2)
        assert epoch_allocation(log, threshold=10) == {1}

    def test_capacity_cap(self, tmp_path):
        with AccessLog(tmp_path, partitions=2) as log:
            for address, n in [(1, 5), (2, 9), (3, 7)]:
                for _ in range(n):
                    log.append(address)
        assert epoch_allocation(log, threshold=1, capacity_blocks=2) == {2, 3}

    def test_matches_in_memory_sieve(self, tmp_path):
        """The offline pipeline and SieveStoreD produce identical batches."""
        rng = random.Random(42)
        accesses = [rng.randrange(200) for _ in range(5000)]

        policy = SieveStoreD(SieveStoreDConfig(threshold=10))
        with AccessLog(tmp_path, partitions=8) as log:
            for address in accesses:
                policy.observe(address, is_write=False, time=0.0, hit=False)
                log.append(address)

        offline = epoch_allocation(
            log, threshold=10, capacity_blocks=policy.config.capacity_blocks
        )
        in_memory = policy.epoch_boundary(1)
        assert offline == in_memory


class TestLogTraceDay:
    def test_logs_every_block(self, tmp_path, tiny_trace):
        rows = tiny_trace.take(slice(50))
        with AccessLog(tmp_path, partitions=4) as log:
            written = log_trace_day(log, rows)
        assert written == rows.total_blocks()
        assert sum(reduce_all(log).values()) == written
