"""Fully-associative LRU block cache: insertion, eviction, batch replace."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import BlockCache


def access(cache, address):
    """A lookup as the engines make it: a hit moves the block to the
    most recent end of the LRU order."""
    if address in cache:
        cache._order.move_to_end(address)
        return True
    return False


class TestBasicOperations:
    def test_starts_empty(self):
        cache = BlockCache(4)
        assert len(cache) == 0
        assert len(cache) < cache.capacity_blocks

    def test_insert_then_hit(self):
        cache = BlockCache(4)
        cache.insert(1)
        assert access(cache, 1)

    def test_miss_on_absent(self):
        cache = BlockCache(4)
        assert not access(cache, 99)

    def test_contains(self):
        cache = BlockCache(4)
        cache.insert(7)
        assert 7 in cache
        assert 8 not in cache

    def test_membership_does_not_touch_recency(self):
        cache = BlockCache(2)
        cache.insert(1)
        cache.insert(2)
        assert 1 in cache  # must NOT refresh 1
        cache.insert(3)  # evicts LRU
        assert 1 not in cache and 2 in cache and 3 in cache

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            BlockCache(0)

    def test_double_insert_rejected(self):
        cache = BlockCache(4)
        cache.insert(1)
        with pytest.raises(ValueError):
            cache.insert(1)


class TestEviction:
    def test_evicts_when_full(self):
        cache = BlockCache(2)
        cache.insert(1)
        cache.insert(2)
        victim = cache.insert(3)
        assert victim == 1
        assert len(cache) == 2

    def test_lru_order_respects_access(self):
        cache = BlockCache(2)
        cache.insert(1)
        cache.insert(2)
        access(cache, 1)  # 2 becomes LRU
        assert cache.insert(3) == 2

    def test_no_eviction_below_capacity(self):
        cache = BlockCache(3)
        assert cache.insert(1) is None
        assert cache.insert(2) is None


class TestLRU:
    """The cache's one replacement policy, least recently used."""

    def test_victim_is_least_recent(self):
        cache = BlockCache(3)
        for a in (1, 2, 3):
            cache.insert(a)
        assert cache.insert(4) == 1

    def test_access_refreshes(self):
        cache = BlockCache(3)
        for a in (1, 2, 3):
            cache.insert(a)
        access(cache, 1)
        assert cache.insert(4) == 2

    def test_recency_order(self):
        cache = BlockCache(3)
        for a in (1, 2, 3):
            cache.insert(a)
        access(cache, 2)
        assert list(cache.residents()) == [1, 3, 2]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=100))
    def test_matches_reference_model(self, accesses):
        """The LRU victim always equals a brute-force recency list's head."""
        cache = BlockCache(10)
        reference = []
        for a in accesses:
            if access(cache, a):
                reference.remove(a)
            else:
                cache.insert(a)
            reference.append(a)
        assert list(cache.residents()) == reference
        for a in range(10):
            if a not in cache:
                cache.insert(a)
                reference.append(a)
        assert cache.insert(10) == reference[0]


class TestBatchReplace:
    """SieveStore-D's epoch-boundary batch allocation semantics."""

    def test_installs_new_contents(self):
        cache = BlockCache(8)
        inserted, removed = cache.replace_contents({1, 2, 3})
        assert (inserted, removed) == (3, 0)
        assert all(b in cache for b in (1, 2, 3))

    def test_overlap_cancels_moves(self):
        # "the replacement and allocation cancel each other to eliminate
        # unnecessary block moves" (Section 3.2).
        cache = BlockCache(8)
        cache.replace_contents({1, 2, 3})
        inserted, removed = cache.replace_contents({2, 3, 4})
        assert (inserted, removed) == (1, 1)

    def test_identical_batch_moves_nothing(self):
        cache = BlockCache(8)
        cache.replace_contents({1, 2})
        assert cache.replace_contents({1, 2}) == (0, 0)

    def test_rejects_oversized_batch(self):
        cache = BlockCache(2)
        with pytest.raises(ValueError):
            cache.replace_contents({1, 2, 3})

    def test_replacement_state_consistent_after_batch(self):
        cache = BlockCache(4)
        cache.replace_contents({1, 2, 3})
        cache.replace_contents({3, 4})
        cache.check_invariants()
        # Fill to capacity and force an eviction: the block the batch
        # kept is older than the one it brought in.
        cache.insert(10)
        cache.insert(11)
        assert cache.insert(12) == 3


class TestInvariants:
    def test_capacity_never_exceeded(self):
        cache = BlockCache(5)
        for i in range(100):
            if i not in cache:
                cache.insert(i)
            cache.check_invariants()
        assert len(cache) == 5

    @settings(max_examples=50, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(
                    ["insert", "access", "replace", "clear"]
                ),
                st.integers(min_value=0, max_value=30),
            ),
            max_size=200,
        ),
        capacity=st.integers(min_value=1, max_value=8),
    )
    def test_random_operations_preserve_invariants(self, ops, capacity):
        """Residency and recency order match an ``OrderedDict`` model
        after every operation."""
        cache = BlockCache(capacity)
        model = OrderedDict()
        for op, address in ops:
            if op == "insert":
                if address not in cache:
                    victim = cache.insert(address)
                    expected = None
                    if len(model) >= capacity:
                        expected = model.popitem(last=False)[0]
                    assert victim == expected
                    model[address] = None
            elif op == "access":
                assert access(cache, address) == (address in model)
                if address in model:
                    model.move_to_end(address)
            elif op == "replace":
                # A batch of up to `capacity` blocks around the address.
                batch = set(range(address, address + capacity, 2))
                kept = [a for a in model if a in batch]
                fresh = batch.difference(model)
                assert cache.replace_contents(batch) == (
                    len(fresh), len(model) - len(kept)
                )
                model = OrderedDict.fromkeys(kept)
                # Incoming blocks follow the kept ones, most recently
                # used; their mutual order (set order) is read back.
                assert list(cache.residents())[:len(kept)] == kept
                model.update(
                    dict.fromkeys(list(cache.residents())[len(kept):])
                )
                assert set(model) == batch
            else:
                assert cache.clear() == len(model)
                model.clear()
            assert list(cache.residents()) == list(model)
            assert len(cache) == len(model) <= capacity
            cache.check_invariants()
