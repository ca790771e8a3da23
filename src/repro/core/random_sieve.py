"""Random sieving baselines: RandSieve-BlkD and RandSieve-C (Section 5.1).

These exist to show that SieveStore "truly identifies and captures hot
blocks (beyond what random sampling would achieve)":

* **RandSieve-BlkD** allocates a randomly chosen 1% of the blocks
  accessed each day and batch-allocates them for the next day — the
  random twin of SieveStore-D.
* **RandSieve-C** allocates a random 1% of all misses — the random twin
  of SieveStore-C's continuous admission.

The paper finds both barely beat the unsieved policies on hit ratio
(random sampling mostly picks low-reuse blocks, since ~60% of accesses
come from them), while still cutting allocation-writes substantially —
though about 8.5x more allocation-writes than real sieving.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Optional, Set

from repro.cache.allocation import AllocationPolicy, NeverAllocate


class RandSieveBlkD(NeverAllocate):
    """Discrete random sieve: batch-allocate a random 1% of yesterday's blocks."""

    name = "randsieve-blkd"

    def __init__(
        self,
        fraction: float = 0.01,
        capacity_blocks: Optional[int] = None,
        seed: int = 0,
    ):
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = fraction
        self.capacity_blocks = capacity_blocks
        self._rng = random.Random(seed)
        self._seen_this_epoch: Set[int] = set()

    def observe(self, address: int, is_write: bool, time: float, hit: bool) -> None:
        self._seen_this_epoch.add(address)

    def epoch_log(self) -> Set[int]:
        return self._seen_this_epoch

    def epoch_boundary(self, day: int) -> Optional[Iterable[int]]:
        universe = sorted(self._seen_this_epoch)  # sorted for determinism
        self._seen_this_epoch = set()
        if not universe:
            return set()
        k = max(1, math.ceil(len(universe) * self.fraction))
        if self.capacity_blocks is not None:
            k = min(k, self.capacity_blocks)
        return set(self._rng.sample(universe, k))


class RandSieveC(AllocationPolicy):
    """Continuous random sieve: allocate each miss with probability 1%."""

    name = "randsieve-c"

    def __init__(self, probability: float = 0.01, seed: int = 0):
        if not 0 < probability <= 1:
            raise ValueError(f"probability must be in (0, 1], got {probability}")
        self.probability = probability
        self._rng = random.Random(seed)

    def wants(self, address: int, is_write: bool, time: float) -> bool:
        return self._rng.random() < self.probability
