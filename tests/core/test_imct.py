"""IMCT: the imprecise (aliased) first sieve tier."""

import numpy as np
import pytest

from repro.core.imct import ImpreciseMissCountTable
from repro.core.windows import WindowSpec


def make_imct(slots=64, window_seconds=80.0, subwindows=4):
    return ImpreciseMissCountTable(
        slots=slots, window=WindowSpec(window_seconds, subwindows)
    )


class TestBasics:
    def test_counts_misses(self):
        imct = make_imct()
        assert imct.record_miss(1, 0.0) == 1
        assert imct.record_miss(1, 1.0) == 2

    def test_count_is_read_only(self):
        imct = make_imct()
        imct.record_miss(5, 0.0)
        assert imct.count(5, 0.0) == 1
        assert imct.count(5, 0.0) == 1

    def test_rejects_zero_slots(self):
        with pytest.raises(ValueError):
            make_imct(slots=0)

    def test_records_tracked(self):
        imct = make_imct()
        for i in range(10):
            imct.record_miss(i, 0.0)
        assert imct.recorded_misses == 10


class TestAliasing:
    """Many-to-one mapping is the IMCT's defining (mis)feature."""

    def find_aliases(self, imct, count=2):
        by_slot = {}
        address = 0
        while True:
            slot = imct.slot_of(address)
            by_slot.setdefault(slot, []).append(address)
            if len(by_slot[slot]) >= count:
                return by_slot[slot][:count]
            address += 1

    def test_aliased_addresses_share_counts(self):
        imct = make_imct(slots=4)
        a, b = self.find_aliases(imct)
        imct.record_miss(a, 0.0)
        # b inherits a's count: the piggy-backing the paper observed.
        assert imct.count(b, 0.0) == 1

    def test_distinct_slots_independent(self):
        imct = make_imct(slots=1024)
        address_a = 0
        address_b = next(
            x for x in range(1, 10000)
            if imct.slot_of(x) != imct.slot_of(address_a)
        )
        imct.record_miss(address_a, 0.0)
        assert imct.count(address_b, 0.0) == 0

    def test_slot_mapping_stable(self):
        imct = make_imct()
        assert imct.slot_of(12345) == imct.slot_of(12345)

    def test_aliased_counts_saturate_at_counter_ceiling(self):
        # Two aliases hammering one slot clamp at the 8-bit ceiling the
        # metastate budget assumes (counter_bytes=1) — they never wrap.
        from repro.core.windows import COUNTER_SATURATION

        imct = make_imct(slots=4)
        a, b = self.find_aliases(imct)
        for _ in range(COUNTER_SATURATION + 100):
            imct.record_miss(a, 0.0)
            imct.record_miss(b, 0.0)
        assert imct.count(a, 0.0) == COUNTER_SATURATION
        assert imct.count(b, 0.0) == COUNTER_SATURATION

    def test_saturation_cannot_change_a_sieving_decision(self):
        # Admission thresholds are single digits, so a clamped count is
        # still far above any threshold the paper tunes.
        from repro.core.windows import COUNTER_SATURATION

        imct = make_imct(slots=4)
        a, _ = self.find_aliases(imct)
        count = 0
        for _ in range(10**4):
            count = imct.record_miss(a, 0.0)
        assert count == COUNTER_SATURATION > 9


class TestWindowing:
    def test_counts_expire(self):
        imct = make_imct(window_seconds=40.0, subwindows=4)
        imct.record_miss(1, 0.0)
        # 40s window, 10s subwindows: by t=50 the count is gone.
        assert imct.count(1, 50.0) == 0

    def test_reset_slot(self):
        imct = make_imct()
        imct.record_miss(1, 0.0)
        imct.reset_slot(1)
        assert imct.count(1, 0.0) == 0


class TestMemoryEstimate:
    def test_scales_with_slots(self):
        small = make_imct(slots=100)
        large = make_imct(slots=1000)
        assert large.memory_bytes_estimate() == 10 * small.memory_bytes_estimate()


class TestOrdering:
    """One clock for the whole table: nothing may go behind it."""

    def test_behind_the_clock_raises_even_on_a_fresh_slot(self):
        imct = make_imct(slots=1024, window_seconds=40.0)  # 10 s subwindows
        imct.record_miss(1, 25.0)  # the clock is at subwindow 2
        fresh = next(
            a for a in range(2, 10**4) if imct.slot_of(a) != imct.slot_of(1)
        )
        slot = np.array([imct.slot_of(fresh)])
        for behind in (
            lambda: imct.record_miss(fresh, 15.0),
            lambda: imct.record(int(slot[0]), 1, fresh),
            lambda: imct.count(fresh, 15.0),
            lambda: imct.live_totals(slot, 1),
            lambda: imct.record_batch(slot, 1),
        ):
            with pytest.raises(
                ValueError,
                match="time moved backwards: subwindow 1 < table clock 2",
            ):
                behind()
        assert imct.recorded_misses == 1 and imct.clock == 2

    def test_reads_ahead_leave_the_clock(self):
        imct = make_imct(window_seconds=40.0)
        imct.record_miss(1, 25.0)
        # Subwindow 2's count is live through subwindow 5, gone at 6.
        assert imct.count(1, 55.0) == 1
        assert imct.count(1, 65.0) == 0
        assert imct.clock == 2
        assert imct.record_miss(1, 29.0) == 2
