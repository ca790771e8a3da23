"""Ideal (oracle) sieves and the oracle-retention analysis of Section 3.1.

Two oracles from the paper:

* **Ideal day-by-day sieve** ("the ideal SieveStore that captures the
  top 1% of blocks each day", Figure 5's left-most bar): at the start of
  each day, the cache magically holds exactly the day's top-1% most
  accessed blocks.  It needs the day's access counts in advance, which
  is what makes it an oracle; it upper-bounds SieveStore-D (but not
  SieveStore-C, which adapts continuously).

* **Oracle retention** (the thought-experiment behind Table 2): assume
  a replacement policy that keeps the top 1% resident at all times, and
  compare allocation policies purely by the allocation-writes they then
  incur.  That analysis is analytic, not simulated — see
  :func:`repro.analysis.tables.table2_rows`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set

from repro.cache.allocation import AllocationPolicy
from repro.traces.columnar import BlockCounts


def top_fraction_blocks(counts: BlockCounts, fraction: float = 0.01) -> Set[int]:
    """Addresses of the most-accessed ``fraction`` of blocks in ``counts``.

    The set size is ``ceil(fraction * unique_blocks)`` (at least 1 for a
    non-empty table).  Ties at the boundary are broken by address for
    determinism (see :meth:`BlockCounts.top`).
    """
    return set(counts.top(fraction).addresses.tolist())


class IdealDailySieve(AllocationPolicy):
    """Oracle: installs each day's top-1% block set at the day's start.

    Args:
        daily_counts: per-day block access counts for the trace this
            policy will be run against (the oracle's future knowledge).
        fraction: popularity cut (the paper uses the top 1%).
        capacity_blocks: cache capacity; the selection is truncated to
            fit, most-accessed first.
    """

    name = "ideal"
    #: Epoch ``k`` installs day ``k``'s top set, so the oracle is only
    #: right when every epoch is one calendar day.
    daily_epochs_only = True

    def __init__(
        self,
        daily_counts: Sequence[BlockCounts],
        fraction: float = 0.01,
        capacity_blocks: Optional[int] = None,
    ):
        self.daily_counts = list(daily_counts)
        self.fraction = fraction
        self.capacity_blocks = capacity_blocks

    def epoch_boundary(self, day: int) -> Optional[Iterable[int]]:
        if day >= len(self.daily_counts):
            return set()
        top = self.daily_counts[day].top(self.fraction, limit=self.capacity_blocks)
        return set(top.addresses.tolist())

    def wants(self, address: int, is_write: bool, time: float) -> bool:
        return False


def ideal_capture_shares(
    daily_counts: Sequence[BlockCounts], fraction: float = 0.01
) -> List[float]:
    """Fraction of each day's accesses falling in that day's top set.

    This is the closed-form version of running :class:`IdealDailySieve`
    through the engine: because the top set is resident for the whole
    day, every access to it hits.
    """
    shares = []
    for counts in daily_counts:
        total = counts.total()
        shares.append(counts.top(fraction).total() / total if total else 0.0)
    return shares
