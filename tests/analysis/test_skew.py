"""Figure 2 machinery: binned skew profiles and O1 quantiles."""

from collections import Counter

import pytest

from repro.traces.columnar import BlockCounts

from repro.analysis.skew import (
    access_count_quantiles,
    daily_skew_profiles,
    skew_profile,
)


def zipf_counter(n=1000, alpha=1.0):
    return table({i: max(1, int(1000 / (i + 1) ** alpha)) for i in range(n)})


def table(mapping=()):
    return BlockCounts.from_mapping(Counter(mapping))


class TestSkewProfile:
    def test_empty_counter(self):
        profile = skew_profile(table())
        assert profile.unique_blocks == 0
        assert profile.share_of_top(0.01) == 0.0

    def test_mean_counts_descend(self):
        profile = skew_profile(zipf_counter(), bins=50)
        counts = profile.mean_counts
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_cumulative_reaches_one(self):
        profile = skew_profile(zipf_counter(), bins=50)
        assert profile.cumulative_share[-1] == pytest.approx(1.0)

    def test_totals(self):
        counter = table({1: 5, 2: 3})
        profile = skew_profile(counter, bins=10)
        assert profile.unique_blocks == 2
        assert profile.total_accesses == 8

    def test_fewer_blocks_than_bins(self):
        profile = skew_profile(table({1: 4, 2: 2, 3: 1}), bins=10000)
        assert len(profile.percentiles) == 3

    def test_share_of_top_interpolates(self):
        # Uniform counts: top x% holds ~x% of accesses.
        uniform = table({i: 10 for i in range(1000)})
        profile = skew_profile(uniform, bins=100)
        assert profile.share_of_top(0.10) == pytest.approx(0.10, abs=0.02)

    def test_skewed_top_share_dominates_uniform(self):
        skewed = skew_profile(zipf_counter(alpha=1.5), bins=100)
        uniform = skew_profile(table({i: 10 for i in range(1000)}), bins=100)
        assert skewed.share_of_top(0.01) > 3 * uniform.share_of_top(0.01)

    def test_count_at_percentile_monotone(self):
        profile = skew_profile(zipf_counter(), bins=100)
        assert profile.count_at_percentile(1.0) >= profile.count_at_percentile(50.0)

    def test_rejects_bad_bins(self):
        with pytest.raises(ValueError):
            skew_profile(table({1: 1}), bins=0)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            skew_profile(table({1: 1})).share_of_top(0.0)


class TestQuantiles:
    def test_known_distribution(self):
        counter = Counter({0: 100})
        counter.update({i: 1 for i in range(1, 100)})
        q = access_count_quantiles(BlockCounts.from_mapping(counter))
        assert q["blocks"] == 100
        assert q["fraction_le_4"] == pytest.approx(0.99)
        assert q["fraction_single"] == pytest.approx(0.99)
        assert q["top1_share"] == pytest.approx(100 / 199)

    def test_empty(self):
        q = access_count_quantiles(table())
        assert q["blocks"] == 0 and q["top1_share"] == 0.0


class TestDailyProfiles:
    def test_profiles_per_day(self, tiny_context):
        profiles = daily_skew_profiles(tiny_context.daily_counts, bins=200)
        assert len(profiles) == tiny_context.days

    def test_generated_trace_o1_shape(self, tiny_context):
        """Figure 2(a)'s qualitative shape on the synthetic ensemble."""
        for day, profile in enumerate(
            daily_skew_profiles(tiny_context.daily_counts, bins=200)
        ):
            if day == 0:
                continue
            # The knee: the hottest bin towers over the low-reuse bulk
            # (at tiny scale the per-volume hot-set minimum widens the
            # hot band past 1% on light days, so the contrast is taken
            # against the 4th percentile), and beyond the top ~4% counts
            # are <= ~5.
            assert profile.mean_counts[0] > 5 * profile.count_at_percentile(4.0)
            assert profile.count_at_percentile(5.0) <= 5.0
