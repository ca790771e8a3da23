"""Section 5.3: ensemble vs ideal per-server caching."""

from collections import Counter

import pytest

from repro.ensemble.per_server import (
    compare_ensemble_vs_per_server,
    ensemble_ideal_shares,
    per_server_capacity_blocks,
    per_server_ideal_shares,
    whole_drive_cost_comparison,
)
from repro.traces.columnar import BlockCounts
from repro.traces.model import pack_address
from tests.oracle import block_counts


def skewed_vs_flat_day():
    """Server 1 has 200 valuable blocks; server 2 is uniformly cold.

    The per-server 1% quota forces 100 of server 2's useless blocks to
    be 'cached' while only 100 of server 1's 200 valuable blocks fit;
    the ensemble-level 1% takes all 200 valuable blocks.
    """
    counts = Counter()
    for i in range(200):
        counts[pack_address(1, 0, i)] = 50
    for i in range(200, 10000):
        counts[pack_address(1, 0, i)] = 1
    for i in range(10000):
        counts[pack_address(2, 0, i)] = 1
    return block_counts(counts)


class TestIdealShares:
    def test_ensemble_never_below_per_server(self, tiny_context):
        """The global top-1% is at least as good as per-server top-1%
        at the same total set size — the crux of Section 5.3."""
        comparison = compare_ensemble_vs_per_server(tiny_context.daily_counts)
        for day, (ensemble, private) in enumerate(
            zip(comparison.ensemble_shares, comparison.per_server_shares)
        ):
            assert ensemble >= private - 0.02, f"day {day}"
        assert comparison.mean_ensemble >= comparison.mean_per_server

    def test_ensemble_advantage_on_synthetic_trace(self, tiny_context):
        # O2 (hot servers differ by day) makes sharing strictly better.
        comparison = compare_ensemble_vs_per_server(tiny_context.daily_counts)
        assert comparison.ensemble_advantage > 0.0

    def test_quota_reallocation_win(self):
        # Skew differs across servers: the global 1% reallocates the
        # per-server quotas toward the skewed server's valuable blocks.
        days = [skewed_vs_flat_day()]
        comparison = compare_ensemble_vs_per_server(days, fraction=0.01)
        assert comparison.mean_ensemble > 1.5 * comparison.mean_per_server

    def test_shares_bounded(self, tiny_context):
        for share in per_server_ideal_shares(tiny_context.daily_counts):
            assert 0.0 <= share <= 1.0
        for share in ensemble_ideal_shares(tiny_context.daily_counts):
            assert 0.0 <= share <= 1.0

    def test_empty_day(self):
        assert ensemble_ideal_shares([BlockCounts.empty()]) == [0.0]
        assert per_server_ideal_shares([BlockCounts.empty()]) == [0.0]


class TestWholeDriveComparison:
    def test_ensemble_uses_fewer_drives(self, tiny_context):
        rows = whole_drive_cost_comparison(
            tiny_context.daily_counts, server_count=13, ensemble_drives=2
        )
        by_name = {row.configuration: row for row in rows}
        ensemble = by_name["ensemble (SieveStore)"]
        private = by_name["per-server (one drive each)"]
        assert ensemble.drives < private.drives
        assert ensemble.mean_capture >= private.mean_capture
        assert ensemble.capture_per_drive > private.capture_per_drive

    def test_validation(self, tiny_context):
        with pytest.raises(ValueError):
            whole_drive_cost_comparison(
                tiny_context.daily_counts, server_count=0, ensemble_drives=1
            )


class TestPerServerCapacity:
    def test_capacity_is_peak_top_set(self):
        day0 = block_counts(
            {pack_address(1, 0, i): 10 for i in range(100)}
        )
        day1 = block_counts(
            {pack_address(1, 0, i): 10 for i in range(300)}
        )
        capacities = per_server_capacity_blocks([day0, day1])
        assert capacities[1] == 3  # 1% of 300

    def test_sums_comparable_to_ensemble_top_set(self, tiny_context):
        capacities = per_server_capacity_blocks(tiny_context.daily_counts)
        total_private = sum(capacities.values())
        peak_ensemble = max(
            max(1, len(c) // 100) for c in tiny_context.daily_counts
        )
        # Same ~1% sizing rule: totals agree within a small factor.
        assert 0.5 * peak_ensemble < total_private < 3 * peak_ensemble
