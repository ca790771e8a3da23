"""Self-tuning sieves (the paper's Section 7 "scaling and tuning").

The paper fixes its thresholds empirically (t = 10 for SieveStore-D;
t1 = 9, t2 = 4 for SieveStore-C) and notes the hit-rate is insensitive
in the high range but collapses if the threshold is too low.  That
makes the thresholds natural candidates for closed-loop control, which
this module provides:

* :class:`AutoThresholdSieveStoreD` replaces the fixed access-count
  threshold with a *capacity-fill target*: at each epoch boundary it
  picks the highest-count blocks until the cache is filled to the
  target fraction (never admitting below a safety floor).  The
  threshold thus adapts to workload intensity — exactly what a
  deployment at a different ensemble scale needs.

* :class:`AdaptiveSieveStoreC` wraps the two-tier continuous sieve
  with a controller on the exact-tier threshold t2: if the admission
  rate (allocation-writes per hour) exceeds its budget, t2 is raised;
  if admissions fall far below budget, t2 is lowered (never below 1).
  The budget defaults to a small multiple of the cache's capacity per
  day, bounding both pollution and allocation-write load by
  construction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.core.sievestore_c import SieveStoreC, SieveStoreCConfig
from repro.core.sievestore_d import SieveStoreD, SieveStoreDConfig


class AutoThresholdSieveStoreD(SieveStoreD):
    """SieveStore-D with a capacity-fill target instead of a fixed t.

    Args:
        capacity_blocks: cache capacity.
        fill_target: fraction of capacity to fill each epoch (the rest
            is headroom, mirroring the paper's "room to spare").
        floor_threshold: never admit blocks at or below this epoch
            count, however empty the cache would stay — the guard
            against the inadequate-sieving regime the paper observed at
            low thresholds.
    """

    name = "sievestore-d-auto"

    def __init__(
        self,
        capacity_blocks: int,
        fill_target: float = 0.9,
        floor_threshold: int = 4,
    ):
        if not 0 < fill_target <= 1:
            raise ValueError(f"fill_target must be in (0, 1], got {fill_target}")
        super().__init__(
            SieveStoreDConfig(
                threshold=floor_threshold, capacity_blocks=capacity_blocks
            )
        )
        self.fill_target = fill_target
        self.floor_threshold = floor_threshold
        #: effective threshold chosen at each epoch (for reporting)
        self.chosen_thresholds: List[int] = []

    def select_allocation(self, counts: Counter) -> Set[int]:
        budget = max(1, int(self.config.capacity_blocks * self.fill_target))
        qualified = sorted(
            (
                (count, address)
                for address, count in counts.items()
                if count > self.floor_threshold
            ),
            reverse=True,
        )
        selected = qualified[:budget]
        self.chosen_thresholds.append(
            selected[-1][0] if selected else self.floor_threshold
        )
        return {address for _, address in selected}


@dataclass(frozen=True)
class AdmissionBudget:
    """Allocation-write budget for the adaptive continuous sieve.

    ``per_day`` defaults to one cache-fill per day — generous against
    the paper's measured SieveStore allocation volumes, tight against
    unsieved churn.
    """

    per_day: float

    @classmethod
    def cache_turnovers(cls, capacity_blocks: int, turnovers_per_day: float = 1.0):
        """Budget of N cache-fills worth of admissions per day."""
        if turnovers_per_day <= 0:
            raise ValueError("turnovers_per_day must be positive")
        return cls(per_day=capacity_blocks * turnovers_per_day)


class AdaptiveSieveStoreC(SieveStoreC):
    """SieveStore-C with closed-loop control of the exact threshold t2.

    Every ``adjust_interval`` seconds the controller compares the
    admissions made during the interval against the pro-rated budget:

    * above budget -> raise t2 (stronger sieving);
    * below a quarter of budget and t2 above its floor -> lower t2
      (the sieve is over-tight; capture is being left on the table).
    """

    name = "sievestore-c-adaptive"

    def __init__(
        self,
        config: Optional[SieveStoreCConfig] = None,
        budget: Optional[AdmissionBudget] = None,
        capacity_blocks: int = 1 << 16,
        adjust_interval: float = 3600.0,
        t2_bounds: Tuple[int, int] = (1, 16),
    ):
        super().__init__(config)
        if adjust_interval <= 0:
            raise ValueError("adjust_interval must be positive")
        if not 1 <= t2_bounds[0] <= t2_bounds[1]:
            raise ValueError(f"invalid t2 bounds {t2_bounds}")
        self.budget = budget or AdmissionBudget.cache_turnovers(capacity_blocks)
        self.adjust_interval = adjust_interval
        self.t2_bounds = t2_bounds
        self._interval_start = 0.0
        self._interval_admissions = 0
        #: (time, t2) control trajectory for reporting
        self.t2_history: List[Tuple[float, int]] = [(0.0, self.current_t2)]

    @property
    def current_t2(self) -> int:
        """The controller's current exact-tier threshold."""
        return self._tier2_threshold

    def wants(self, address: int, is_write: bool, time: float) -> bool:
        self._maybe_adjust(time)
        admitted = super().wants(address, is_write, time)
        if admitted:
            self._interval_admissions += 1
        return admitted

    def kernel_drives_ladder(self) -> bool:
        """Never: the controller steps on every :meth:`wants`, which the
        kernel's direct ladder calls would skip."""
        return False

    def _maybe_adjust(self, time: float) -> None:
        """Move the base ladder's tier-2 threshold against the budget
        once per ``adjust_interval``."""
        if time - self._interval_start < self.adjust_interval:
            return
        intervals_per_day = 86400.0 / self.adjust_interval
        budget = self.budget.per_day / intervals_per_day
        lo, hi = self.t2_bounds
        t2 = self._tier2_threshold
        if self._interval_admissions > budget and t2 < hi:
            t2 += 1
        elif self._interval_admissions < budget / 4 and t2 > lo:
            t2 -= 1
        if self.t2_history[-1][1] != t2:
            self.t2_history.append((time, t2))
        self._tier2_threshold = t2
        self._interval_start = time
        self._interval_admissions = 0
