"""BlockCounts, the one per-day popularity type: every producer against
the object-walk oracle, and the ranking and server split that every
consumer shares."""

import math
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.traces.columnar import BlockCounts, ColumnarTrace
from repro.traces.model import pack_address
from repro.traces.segments import segment_columnar
from tests.oracle import block_counts, counts_dict, daily_block_counts

DAYS = 3


@st.composite
def traces(draw):
    """Issue-ordered requests over a few days, some past the last counted
    day; few servers, volumes and offsets, so blocks repeat and overlap."""
    n = draw(st.integers(1, 30))
    gaps = draw(st.lists(
        st.sampled_from([0.0, 1.0, 3600.0, 30000.0]), min_size=n, max_size=n
    ))
    issue = np.cumsum(gaps)
    servers = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    volumes = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    offsets = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    return ColumnarTrace(
        issue_time=issue,
        completion_time=issue + 0.5,
        address=[pack_address(*key) for key in zip(servers, volumes, offsets)],
        block_count=draw(st.lists(st.integers(1, 6), min_size=n, max_size=n)),
        is_write=np.zeros(n, dtype=np.bool_),
        aligned_4k=np.zeros(n, dtype=np.bool_),
    )


def mappings():
    """``address -> count`` tables with heavy ties (counts 1-4)."""
    return st.dictionaries(
        st.integers(0, 1 << 50), st.integers(1, 4), max_size=60
    )


def is_table(counts):
    return bool(
        np.all(np.diff(counts.addresses) > 0) and np.all(counts.counts > 0)
    )


class TestProducersMatchTheObjectWalk:
    @settings(max_examples=60, deadline=None)
    @given(traces(), st.data())
    def test_columns_store_and_shard_views(self, columns, data):
        oracle = daily_block_counts(columns.to_trace(), DAYS)
        assert columns.daily_block_counts(DAYS) == oracle
        rows = len(columns)
        rows_per_segment = data.draw(st.integers(1, rows), label="rows_per_segment")
        # Small budgets split a day across chunks (and segments).
        chunk_rows = data.draw(st.integers(1, rows), label="chunk_rows")
        with tempfile.TemporaryDirectory() as scratch:
            store = segment_columnar(
                columns, Path(scratch) / "store", rows_per_segment
            )
            streamed = store.daily_block_counts(DAYS, chunk_rows)
            assert streamed == oracle
            assert all(is_table(day) for day in streamed)
            for shards in range(1, 5):
                views = [
                    store.shard(shard, shards).daily_block_counts(DAYS, chunk_rows)
                    for shard in range(shards)
                ]
                for day, whole in enumerate(oracle):
                    parts = [view[day] for view in views]
                    # Shards own disjoint servers: their tables
                    # partition the day's, and together make all of it.
                    assert sum(len(part) for part in parts) == len(whole)
                    assert BlockCounts.merge(parts) == whole


class TestTop:
    @settings(max_examples=200, deadline=None)
    @given(
        mappings(),
        st.floats(0.001, 1.0),
        st.one_of(st.none(), st.integers(0, 70)),
    )
    def test_ranks_by_count_then_address(self, table, fraction, limit):
        ranked = sorted(table.items(), key=lambda item: (-item[1], item[0]))
        keep = max(1, math.ceil(len(table) * fraction)) if table else 0
        if limit is not None:
            keep = min(keep, limit)
        top = block_counts(table).top(fraction, limit)
        assert counts_dict(top) == dict(ranked[:keep])
        assert is_table(top)

    def test_equal_counts_keep_the_lowest_addresses(self):
        counts = block_counts({30: 5, 10: 5, 20: 5, 40: 9})
        assert counts_dict(counts.top(0.5)) == {10: 5, 40: 9}


class TestServerSplitAndMerge:
    @settings(max_examples=60, deadline=None)
    @given(traces())
    def test_by_server_partitions_the_table(self, columns):
        table = BlockCounts.of_accesses(columns.expand_block_addresses())
        split = table.by_server()
        assert sorted(split) == sorted(set(columns.server_ids.tolist()))
        for server, part in split.items():
            assert set(part.server_ids.tolist()) == {server}
            assert part == table.of_servers([server])
        assert BlockCounts.merge(list(split.values())) == table

    @settings(max_examples=100, deadline=None)
    @given(st.lists(mappings(), max_size=4))
    def test_merge_sums_counts(self, tables):
        total = Counter()
        for table in tables:
            total.update(table)
        merged = BlockCounts.merge([block_counts(t) for t in tables])
        assert merged == block_counts(total)
