"""Fully-associative 512-byte block cache with LRU replacement.

This models the disk-cache metastate the paper simulates: "the
data-structures ... for the metastate of a fully-associative, 16GB
cache with LRU replacement (tags, LRU stack information)" (Section 4).
Only metastate is modeled — there is no data payload — which is exactly
what a trace-driven cache simulation needs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Iterator, Optional


class BlockCache:
    """Resident block addresses bounded by a frame capacity, in LRU order.

    One ``OrderedDict`` (``_order``) is both the resident set and the
    recency order, least-recently used first; the fast loop and the
    sieve kernel drive it directly.  The cache never allocates on its
    own: callers decide *whether* to insert (the allocation policy /
    sieve) and the cache decides *whom* to evict (the least recently
    used block).  This separation mirrors the paper's central
    distinction between allocation and replacement (Section 3).
    """

    def __init__(self, capacity_blocks: int):
        if capacity_blocks <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_blocks}")
        self.capacity_blocks = capacity_blocks
        self._order: "OrderedDict[int, None]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, address: int) -> bool:
        return address in self._order

    def insert(self, address: int) -> Optional[int]:
        """Insert a block, evicting the least recently used if needed;
        returns the victim or None.

        Inserting a resident block is an error — callers must check
        membership first, because a real cache would have served that
        access as a hit.
        """
        if address in self._order:
            raise ValueError(f"block {address} is already resident")
        victim = None
        if len(self._order) >= self.capacity_blocks:
            victim = self._order.popitem(last=False)[0]
        self._order[address] = None
        return victim

    def clear(self) -> int:
        """Drop every resident block; returns how many were dropped.

        Models whole-device data loss (outage/wear-out): the frames
        survive but their contents do not, so a recovered device starts
        cold and the sieve must re-earn every allocation.
        """
        dropped = len(self._order)
        self._order.clear()
        return dropped

    def residents(self) -> Iterator[int]:
        """Iterate over resident addresses, least recently used first."""
        return iter(self._order)

    def replace_contents(self, addresses: Iterable[int]) -> tuple:
        """Batch-replace the cache contents (SieveStore-D epochs).

        Blocks present in both the old and the new set stay resident
        without being counted as moved — the paper's optimization that
        "the replacement and allocation cancel each other to eliminate
        unnecessary block moves" (Section 3.2).  They keep their recency
        order; the new blocks follow them, most recently used.

        Returns ``(inserted, removed)`` counts; ``inserted`` is the
        number of allocation-writes the batch implies.
        """
        new_set = set(addresses)
        if len(new_set) > self.capacity_blocks:
            raise ValueError(
                f"batch of {len(new_set)} blocks exceeds capacity "
                f"{self.capacity_blocks}"
            )
        resident = set(self._order)
        to_remove = resident - new_set
        to_insert = new_set - resident
        for address in to_remove:
            del self._order[address]
        self._order.update(dict.fromkeys(to_insert))
        return len(to_insert), len(to_remove)

    def check_invariants(self) -> None:
        """Verify the cache's internal consistency (used by tests)."""
        if len(self._order) > self.capacity_blocks:
            raise AssertionError(
                f"resident {len(self._order)} exceeds capacity "
                f"{self.capacity_blocks}"
            )
