"""MCT: the precise second sieve tier with staleness pruning."""

import pytest

from repro.core.mct import MissCountTable
from repro.core.windows import WindowSpec


def make_mct(window_seconds=80.0, subwindows=4, prune_interval=1e9):
    return MissCountTable(
        window=WindowSpec(window_seconds, subwindows),
        prune_interval=prune_interval,
    )


class TestExactCounting:
    def test_counts_per_block(self):
        mct = make_mct()
        assert mct.record_miss(1, 0.0) == 1
        assert mct.record_miss(1, 1.0) == 2
        assert mct.record_miss(2, 1.0) == 1

    def test_no_aliasing_ever(self):
        mct = make_mct()
        for address in range(1000):
            assert mct.record_miss(address, 0.0) == 1

    def test_untracked_count_is_zero(self):
        assert make_mct().count(42, 0.0) == 0

    def test_contains(self):
        mct = make_mct()
        mct.record_miss(7, 0.0)
        assert 7 in mct
        assert 8 not in mct

    def test_forget(self):
        mct = make_mct()
        mct.record_miss(7, 0.0)
        mct.forget(7)
        assert 7 not in mct
        mct.forget(7)  # idempotent


class TestWindowing:
    def test_counts_expire_with_window(self):
        mct = make_mct(window_seconds=40.0, subwindows=4)
        mct.record_miss(1, 0.0)
        assert mct.count(1, 50.0) == 0

    def test_partial_expiry(self):
        mct = make_mct(window_seconds=40.0, subwindows=4)
        mct.record_miss(1, 0.0)   # subwindow 0
        mct.record_miss(1, 35.0)  # subwindow 3
        # At t=45 (subwindow 4), the first miss has expired.
        assert mct.count(1, 45.0) == 1


class TestSubwindowRollOver:
    """Behavior exactly at subwindow boundaries (10s subwindows here)."""

    def test_boundary_instant_lands_in_new_subwindow(self):
        mct = make_mct(window_seconds=40.0, subwindows=4)
        mct.record_miss(1, 9.999)
        mct.record_miss(1, 10.0)  # first instant of subwindow 1
        # The window ending at subwindow 4 keeps only the second miss.
        assert mct.count(1, 45.0) == 1
        # One subwindow earlier both are still live.
        assert mct.count(1, 39.0) == 2

    def test_roll_over_reuses_the_expired_slot(self):
        # k counters cover k subwindows: entering subwindow k zeroes the
        # slot that held subwindow 0, and new misses accumulate there.
        mct = make_mct(window_seconds=40.0, subwindows=4)
        mct.record_miss(1, 5.0)            # subwindow 0
        for t in (41.0, 42.0):             # subwindow 4 -> same slot
            mct.record_miss(1, t)
        assert mct.count(1, 45.0) == 2

    def test_counts_drain_one_subwindow_per_roll(self):
        mct = make_mct(window_seconds=40.0, subwindows=4)
        for subwindow in range(4):
            mct.record_miss(1, subwindow * 10.0 + 1.0)
        for age, expected in [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]:
            assert mct.count(1, 31.0 + age * 10.0) == expected

    def test_full_staleness_after_k_idle_subwindows(self):
        mct = make_mct(window_seconds=40.0, subwindows=4)
        mct.record_miss(1, 0.0)
        mct.record_miss(1, 1.0)
        mct.record_miss(1, 2.0)
        # k (=4) whole subwindows later, everything is inferred stale.
        assert mct.count(1, 42.0) == 0
        assert mct.record_miss(1, 42.0) == 1


class TestPruning:
    def test_prune_removes_stale_entries(self):
        mct = make_mct(window_seconds=40.0)
        mct.record_miss(1, 0.0)
        mct.record_miss(2, 55.0)
        mct.prune(60.0)
        assert 1 not in mct and 2 in mct and mct.evictions == 1

    def test_sweep_prunes_only_when_due(self):
        mct = make_mct(window_seconds=40.0, prune_interval=100.0)
        mct.record_miss(1, 0.0)
        mct.sweep(99.0)
        assert 1 in mct and mct.evictions == 0
        mct.sweep(100.0)
        assert 1 not in mct and mct.evictions == 1
        mct.record_miss(2, 105.0)  # stale by 150, but no sweep is due:
        mct.sweep(150.0)  # the interval restarts at a sweep
        assert 2 in mct and mct.evictions == 1
        mct.prune(150.0)
        assert 2 not in mct and mct.evictions == 2

    def test_opportunistic_prune_on_interval(self):
        mct = make_mct(window_seconds=40.0, prune_interval=100.0)
        mct.record_miss(1, 0.0)
        mct.record_miss(2, 150.0)  # crosses the prune interval
        assert 1 not in mct

    def test_peak_entries_tracked(self):
        mct = make_mct()
        for address in range(5):
            mct.record_miss(address, 0.0)
        mct.forget(0)
        assert mct.peak_entries == 5
        assert len(mct) == 4

    def test_rejects_bad_prune_interval(self):
        with pytest.raises(ValueError):
            make_mct(prune_interval=0)
