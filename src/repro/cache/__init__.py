"""Cache substrate: fully-associative LRU block cache and allocation.

The split between :mod:`~repro.cache.allocation` (who gets in) and the
cache's one replacement policy, LRU (who gets evicted; the paper's for
every continuous configuration), mirrors the paper's Section 3: sieving
is an *allocation* mechanism, and no replacement policy can substitute
for it.
"""

from repro.cache.block_cache import BlockCache
from repro.cache.allocation import (
    AllocateOnDemand,
    AllocationPolicy,
    NeverAllocate,
    StaticSet,
    WriteMissNoAllocate,
)
from repro.cache.stats import CacheStats, DayStats, MinuteIO
from repro.cache.write_policy import DirtyTracker, WriteMode

__all__ = [
    "BlockCache",
    "AllocateOnDemand",
    "AllocationPolicy",
    "NeverAllocate",
    "StaticSet",
    "WriteMissNoAllocate",
    "CacheStats",
    "DayStats",
    "MinuteIO",
    "DirtyTracker",
    "WriteMode",
]
