"""SieveStore-C: continuous, hysteresis-based lazy cache allocation.

Section 3.3 of the paper.  Each access is first checked against the
cache; a miss is then checked against the two-tier sieve:

1. the miss is counted in the **IMCT** (imprecise, aliased, fixed-size);
   if the block's slot count has not reached ``t1`` the block stays
   unallocated and is served from the underlying storage;
2. once past the IMCT, the block's misses are counted *exactly* in the
   **MCT**; after ``t2`` further misses there, the block is allocated a
   frame (one allocation-write).

The paper tunes t1 = 9 and t2 = 4 over an 8-hour window split into four
2-hour subwindows.  The net effect is lazy allocation on the
(t1 + t2) = 13th miss within a recent window — low-reuse blocks (the
vast majority, by O1) never get that far, so allocation-writes nearly
vanish.

``single_tier_admission`` turns off the MCT check and admits on the
IMCT threshold alone; the paper reports this performs poorly because of
aliasing ("too many blocks with low-reuse were found to be piggy-backing
on the miss-counts of more popular blocks"), and the ablation bench
reproduces that result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cache.allocation import AllocationPolicy
from repro.core.imct import ImpreciseMissCountTable
from repro.core.mct import MissCountTable
from repro.core.windows import WindowSpec

#: The paper's tuned tier-1 (IMCT) threshold.
DEFAULT_T1 = 9
#: The paper's tuned tier-2 (MCT) threshold.
DEFAULT_T2 = 4

_MASK64 = (1 << 64) - 1
#: Attributes :meth:`SieveStoreC._derive` rebuilds instead of pickling.
_DERIVED = ("_salted", "_slots", "_subwindow_seconds", "_mct_counters")


@dataclass(frozen=True)
class SieveStoreCConfig:
    """Parameters of the continuous sieve.

    ``imct_slots`` is sized relative to the workload: the paper's
    full-scale IMCT+MCT occupied ~8 GB for a ~6.4 TB ensemble; scaled
    experiments shrink it with the trace (see DESIGN.md).
    """

    imct_slots: int = 1 << 16
    t1: int = DEFAULT_T1
    t2: int = DEFAULT_T2
    window: WindowSpec = field(default_factory=WindowSpec)
    single_tier_admission: bool = False

    def __post_init__(self) -> None:
        if self.t1 < 1 or self.t2 < 0:
            raise ValueError(f"invalid thresholds t1={self.t1}, t2={self.t2}")
        if self.imct_slots <= 0:
            raise ValueError(f"imct_slots must be positive: {self.imct_slots}")


class SieveStoreC(AllocationPolicy):
    """The continuous SieveStore sieve as an allocation policy.

    Plug into the simulation engine together with a
    :class:`~repro.cache.block_cache.BlockCache` (LRU replacement, as in
    the paper's evaluation).
    """

    name = "sievestore-c"

    def __init__(self, config: Optional[SieveStoreCConfig] = None):
        self.config = config or SieveStoreCConfig()
        self.imct = ImpreciseMissCountTable(
            slots=self.config.imct_slots, window=self.config.window
        )
        self.mct = MissCountTable(window=self.config.window)
        # The per-miss mode/threshold lookups, hoisted out of wants().
        # The config is frozen; the tier-2 threshold alone may move
        # mid-run (AdaptiveSieveStoreC's controller writes it).
        self._single_tier = self.config.single_tier_admission
        self._t1 = self.config.t1
        self._tier2_threshold = self.config.t2
        #: blocks admitted through the sieve (allocation decisions)
        self.admissions = 0
        #: misses rejected at tier 1
        self.imct_rejections = 0
        #: misses that promoted a block from the IMCT into the MCT
        self.promotions = 0
        #: misses rejected at tier 2
        self.mct_rejections = 0
        self._derive()

    def _derive(self) -> None:
        """Hoist what every miss reads from the tables.  Derived state:
        left out of pickles (:meth:`__getstate__`) and rebuilt on load,
        so a checkpoint carries exactly the tables and counters."""
        self._salted = self.imct._salted
        self._slots = self.imct.slots
        self._subwindow_seconds = self.config.window.subwindow_seconds
        self._mct_counters = self.mct._counters

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in _DERIVED:
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._derive()

    def wants(self, address: int, is_write: bool, time: float) -> bool:
        """Apply the two-tier sieve to one miss.

        Every miss is counted somewhere: in the MCT if the block is
        already past tier 1 (exact counting), otherwise in the IMCT
        (imprecise counting).  A block is admitted when its MCT count
        reaches t2 — i.e. on the t2-th exact miss after promotion.
        """
        if time < 0:
            raise ValueError(f"time must be non-negative, got {time}")
        # The IMCT's slot_of, with repro.util.hashing.mix64 inlined.
        z = ((address ^ self._salted) + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return self.wants_hashed(
            address,
            (z ^ (z >> 31)) % self._slots,
            int(time // self._subwindow_seconds),
            time,
        )

    def wants_hashed(
        self, address: int, slot: int, subwindow: int, time: float
    ) -> bool:
        """:meth:`wants` given the block's IMCT slot and the miss's
        subwindow — what a caller that hashed many blocks at once
        (:func:`repro.core.sieve_kernel.hash_requests`) passes in."""
        if address in self._mct_counters:
            return self.tier2(address, time)
        return self.tier1(address, slot, subwindow)

    def tier1(self, address: int, slot: int, subwindow: int) -> bool:
        """Count a miss of a block outside the MCT in its IMCT ``slot``.

        Below t1 the miss is rejected.  Reaching t1 promotes the block
        to the MCT — or, under ``single_tier_admission``, admits it.
        Returns whether the block was admitted.
        """
        if self.imct.record(slot, subwindow, address) < self._t1:
            self.imct_rejections += 1
            return False
        if self._single_tier:
            # Ablation: admit on the IMCT threshold alone.
            self.imct.reset_slot(address)
            self.admissions += 1
            return True
        # Promotion: the block graduates to exact counting with a zero
        # MCT count — the paper requires t2 *additional* misses after
        # passing tier 1.  The aliased IMCT slot is deliberately left
        # intact: other blocks sharing the slot must still earn their
        # own promotion.
        self.mct.track(address)
        self.promotions += 1
        return False

    def tier2(self, address: int, time: float) -> bool:
        """Count a miss of an MCT-tracked block exactly; admit it once
        its windowed count reaches t2.  Returns whether it was admitted."""
        exact = self.mct.record_miss(address, time)
        if exact < self._tier2_threshold:
            self.mct_rejections += 1
            return False
        self.mct.forget(address)
        self.admissions += 1
        return True

    # ------------------------------------------------------------------
    def metastate_entries(self) -> dict:
        """Sieve metastate sizes, for the memory-budget analyses."""
        return {
            "imct_slots": self.imct.slots,
            "mct_entries": len(self.mct),
            "mct_peak_entries": self.mct.peak_entries,
        }
