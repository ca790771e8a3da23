"""SieveStore-D: discrete, access-count-based batch allocation (ADBA).

Section 3.2 of the paper.  All accesses during an epoch (one day) are
logged; at the epoch boundary, every block whose access count exceeded
the threshold (t = 10, chosen directly from observation O1 that 99% of
blocks see fewer than 10 accesses a day) is batch-allocated for the next
epoch.  There is no replacement inside an epoch, and blocks hot in two
consecutive epochs are not moved ("the replacement and allocation cancel
each other").

The metastate is the per-epoch access count of *every* block — the
defining burden of sieving.  In deployment this is kept out of memory by
logging to local storage and reducing offline (the map-reduce pipeline
in :mod:`repro.offline`); in simulation we count in memory, and the test
suite asserts the two produce identical allocations.

Day-1 bootstrap: the sieve needs one epoch of logs before it can
allocate anything, so the cache is empty for all of day 1 — visible as
the zero bar in Figure 5.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Set

from repro.cache.allocation import NeverAllocate

#: The paper's epoch-access-count threshold: allocate blocks with count > 10.
DEFAULT_THRESHOLD = 10


@dataclass(frozen=True)
class SieveStoreDConfig:
    """Parameters of the discrete sieve.

    Attributes:
        threshold: allocate blocks whose epoch access count *exceeds*
            this value (the paper's t = 10).
        capacity_blocks: cache capacity; if more blocks qualify than
            fit, the most-accessed qualify first.  The paper never hits
            this bound (the top 1% fits "with room to spare") but the
            invariant must hold regardless.
    """

    threshold: int = DEFAULT_THRESHOLD
    capacity_blocks: int = 1 << 20

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ValueError(f"threshold must be non-negative: {self.threshold}")
        if self.capacity_blocks <= 0:
            raise ValueError(f"capacity must be positive: {self.capacity_blocks}")


class SieveStoreD(NeverAllocate):
    """The discrete SieveStore sieve as an allocation policy.

    Use with a :class:`~repro.cache.block_cache.BlockCache` whose
    capacity matches ``config.capacity_blocks``.  The engine applies the
    returned batches with ``replace_contents``, which performs the
    move-cancelling optimization.
    """

    name = "sievestore-d"

    def __init__(self, config: Optional[SieveStoreDConfig] = None):
        self.config = config or SieveStoreDConfig()
        self._epoch_counts: Counter = Counter()
        #: number of epoch boundaries processed (for tests/reporting)
        self.epochs_completed = 0

    # -- metastate maintenance ------------------------------------------
    def observe(self, address: int, is_write: bool, time: float, hit: bool) -> None:
        """Log one access.  SieveStore-D counts *accesses*, hit or miss."""
        self._epoch_counts[address] += 1

    def epoch_log(self) -> Counter:
        return self._epoch_counts

    # -- allocation (batches only) ---------------------------------------
    def epoch_boundary(self, day: int) -> Optional[Iterable[int]]:
        """Select last epoch's over-threshold blocks for the new epoch."""
        selected = self.select_allocation(self._epoch_counts)
        self._epoch_counts = Counter()
        self.epochs_completed += 1
        return selected

    def select_allocation(self, counts: Counter) -> Set[int]:
        """Pure selection rule: blocks with count > threshold, capped.

        Exposed separately so the offline map-reduce pipeline (and the
        tests comparing the two) can share the exact rule.
        """
        qualified = [
            (count, address)
            for address, count in counts.items()
            if count > self.config.threshold
        ]
        if len(qualified) > self.config.capacity_blocks:
            qualified.sort(reverse=True)
            qualified = qualified[: self.config.capacity_blocks]
        return {address for _, address in qualified}

    @property
    def tracked_blocks(self) -> int:
        """Blocks with counts in the current epoch's metastate."""
        return len(self._epoch_counts)
