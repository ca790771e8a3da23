"""The vectorized LRU pass against a plain ``OrderedDict`` LRU.

:func:`repro.cache.replacement.lru_pass` decides a whole block stream's
hits from reuse distances; the reference below walks it one access at a
time the way :class:`~repro.cache.block_cache.BlockCache` does.
Generated cases cover capacities from 1 to 64, requests shorter and
longer than the capacity, blocks re-accessed inside one request and
across requests (evicted blocks come back within the same pass), a
starting order shorter than the capacity, empty passes, several passes
carrying the order between them, and prefix-table cells forced small so
the bounded and the exactly counted decisions both run.
"""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import replacement
from repro.cache.replacement import lru_pass


def walk(order, blocks, capacity):
    """Reference: one access at a time through an ``OrderedDict``."""
    od = OrderedDict.fromkeys(order)
    hits = []
    for a in blocks:
        if a in od:
            od.move_to_end(a)
            hits.append(True)
        else:
            if len(od) >= capacity:
                od.popitem(last=False)
            od[a] = None
            hits.append(False)
    return hits, list(od)


@st.composite
def requests(draw, span):
    """A stretch as requests: consecutive blocks from a drawn start."""
    count = draw(st.integers(0, 12))
    blocks = []
    for _ in range(count):
        start = draw(st.integers(0, span))
        blocks.extend(range(start, start + draw(st.integers(1, 90))))
    return blocks


@st.composite
def cases(draw):
    capacity = draw(st.integers(1, 64))
    span = draw(st.sampled_from([4, 40, 200, 2000]))
    prefix = draw(st.lists(
        st.integers(0, span + 100), unique=True, max_size=capacity
    ))
    passes = draw(st.lists(requests(span), min_size=1, max_size=4))
    table_block = draw(st.sampled_from([None, 1, 2, 3, 7]))
    return capacity, prefix, passes, table_block


@settings(max_examples=400, deadline=None)
@given(cases())
def test_matches_ordered_dict(case):
    capacity, prefix, passes, table_block = case
    order = np.array(prefix, dtype=np.int64)
    expected_order = prefix
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(replacement, "_TABLE_BLOCK", table_block)
        for blocks in passes:
            hits, order = lru_pass(
                order, np.array(blocks, dtype=np.int64), capacity
            )
            expected_hits, expected_order = walk(
                expected_order, blocks, capacity
            )
            assert hits.tolist() == expected_hits
            assert order.tolist() == expected_order


def test_exact_count_runs(monkeypatch):
    # Shuffled rounds over 8 blocks on capacity 5 with 2-wide cells:
    # the windows are too long to settle cheaply, the table's bounds
    # decide most of them, and those straddling the capacity are
    # counted from the strips.
    gathered = []

    def spy(starts, lengths):
        gathered.append(len(starts))
        return expand(starts, lengths)

    expand = replacement.expand_blocks
    monkeypatch.setattr(replacement, "expand_blocks", spy)
    monkeypatch.setattr(replacement, "_TABLE_BLOCK", 2)
    rng = np.random.default_rng(0)
    blocks = np.concatenate([rng.permutation(8) for _ in range(40)])
    hits, order = lru_pass(np.zeros(0, dtype=np.int64), blocks, 5)
    expected_hits, expected_order = walk([], blocks.tolist(), 5)
    assert hits.tolist() == expected_hits
    assert order.tolist() == expected_order
    assert 0 < sum(expected_hits) < len(blocks)
    assert sum(gathered) > 0


def test_empty_stream_keeps_the_order():
    order = np.array([3, 1, 2], dtype=np.int64)
    hits, after = lru_pass(order, np.zeros(0, dtype=np.int64), 4)
    assert hits.size == 0
    assert after.tolist() == [3, 1, 2]


def test_capacity_must_be_positive():
    with pytest.raises(ValueError, match="capacity"):
        lru_pass(np.zeros(0, dtype=np.int64), np.array([1]), 0)
