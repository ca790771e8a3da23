"""Allocation policies: who gets into the cache (Table 3 of the paper).

The paper's central claim is that *allocation*, not replacement, is the
lever that matters for ensemble-level disk caching.  This module defines
the allocation-policy protocol shared by the unsieved baselines (AOD,
WMNA), the random sieves, and both SieveStore variants, plus the two
unsieved policies themselves:

==============  =====================================================
Key             When is a block allocated?
==============  =====================================================
AOD             on a miss
WMNA            on a read-miss
SieveStore-D    access count over an epoch exceeds a threshold;
                batch-allocated at the epoch boundary
SieveStore-C    on the nth miss in the previous time window
==============  =====================================================
"""

from __future__ import annotations

import abc
from typing import Iterable, Optional, Set


class AllocationPolicy(abc.ABC):
    """Decides which missed blocks earn a cache frame.

    The simulation engine calls, in order:

    * :meth:`epoch_boundary` whenever a calendar-day boundary is
      crossed, *before* processing the new day's accesses.  A non-None
      return value batch-replaces the cache contents (discrete
      policies); continuous policies return None.
    * :meth:`observe` for every block access (hit or miss) — this is
      the metastate-maintenance hook (SieveStore-D's access log,
      SieveStore-C's miss counts).
    * :meth:`wants` for every miss — True means "allocate this block
      now", which costs one allocation-write.
    """

    #: short identifier used in experiment tables
    name: str = "base"
    #: True for a policy whose epoch ``k`` means calendar day ``k``; the
    #: engine refuses to replay it with any other epoch length.
    daily_epochs_only: bool = False

    def epoch_boundary(self, day: int) -> Optional[Iterable[int]]:
        """Batch of addresses to install at the start of ``day``, or None."""
        return None

    def observe(self, address: int, is_write: bool, time: float, hit: bool) -> None:
        """Record an access for metastate purposes (default: nothing)."""

    @abc.abstractmethod
    def wants(self, address: int, is_write: bool, time: float) -> bool:
        """Should this missed block be allocated a frame right now?"""


class AllocateOnDemand(AllocationPolicy):
    """AOD: allocate on every miss (conventional demand-fill cache)."""

    name = "aod"

    def wants(self, address: int, is_write: bool, time: float) -> bool:
        return True


class WriteMissNoAllocate(AllocationPolicy):
    """WMNA: allocate on read misses only.

    Write misses are sent straight to the underlying storage without
    taking a frame, avoiding allocation-writes for the write-miss
    stream (but not for read misses).
    """

    name = "wmna"

    def wants(self, address: int, is_write: bool, time: float) -> bool:
        return not is_write


class NeverAllocate(AllocationPolicy):
    """Null policy: the cache contents change only via epoch batches.

    Useful as the continuous-phase companion of purely discrete
    policies and in tests.
    """

    name = "never"

    def wants(self, address: int, is_write: bool, time: float) -> bool:
        return False


class StaticSet(AllocationPolicy):
    """Installs a fixed block set on day 0 and never changes it.

    This is the "fixed allocation" comparison from the paper's Belady
    discussion (Section 3.1) and a convenient oracle harness for tests.
    """

    name = "static"

    def __init__(self, blocks: Iterable[int]):
        self._blocks: Set[int] = set(blocks)
        self._installed = False

    def epoch_boundary(self, day: int) -> Optional[Iterable[int]]:
        if not self._installed:
            self._installed = True
            return set(self._blocks)
        return None

    def wants(self, address: int, is_write: bool, time: float) -> bool:
        return False
