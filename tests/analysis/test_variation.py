"""Figure 3 machinery: skew variation across servers, volumes, days."""

from collections import Counter

import pytest

from repro.analysis.variation import (
    composition_variation,
    cumulative_access_curve,
    gini_coefficient,
    server_day_gini,
    top_set_server_composition,
    volume_gini,
)
from repro.traces.servers import PAPER_SERVERS
from tests.oracle import block_counts


def table(mapping=()):
    return block_counts(Counter(mapping))


class TestGini:
    def test_uniform_is_zero(self):
        assert gini_coefficient(table({i: 5 for i in range(100)})) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_concentrated_is_near_one(self):
        counter = Counter({0: 100000})
        counter.update({i: 1 for i in range(1, 1000)})
        assert gini_coefficient(block_counts(counter)) > 0.95

    def test_empty_is_zero(self):
        assert gini_coefficient(table()) == 0.0

    def test_scale_invariant(self):
        base = table({1: 2, 2: 4, 3: 8})
        scaled = table({1: 20, 2: 40, 3: 80})
        assert gini_coefficient(base) == pytest.approx(gini_coefficient(scaled))


class TestCumulativeCurve:
    def test_ends_at_one_one(self):
        curve = cumulative_access_curve(table({1: 5, 2: 5, 3: 10}))
        assert curve[-1]["block_fraction"] == pytest.approx(1.0)
        assert curve[-1]["access_fraction"] == pytest.approx(1.0)

    def test_monotone(self):
        curve = cumulative_access_curve(table({i: i + 1 for i in range(50)}))
        fractions = [point["access_fraction"] for point in curve]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))

    def test_skewed_curve_above_diagonal(self):
        counter = Counter({0: 1000})
        counter.update({i: 1 for i in range(1, 100)})
        curve = cumulative_access_curve(block_counts(counter))
        early = curve[len(curve) // 10]
        assert early["access_fraction"] > 2 * early["block_fraction"]

    def test_empty(self):
        assert cumulative_access_curve(table()) == []

    def test_rejects_bad_points(self):
        with pytest.raises(ValueError):
            cumulative_access_curve(table({1: 1}), points=0)


class TestFigure3OnSyntheticTrace:
    """O2 on the generated ensemble: the Figure 3 contrasts must hold."""

    def test_proxy_more_skewed_than_source_control(self, tiny_context):
        # Figure 3(a): Prxy extremely skewed, Src1 near-linear.
        ginis = server_day_gini(tiny_context.daily_counts)
        prxy = next(s.server_id for s in PAPER_SERVERS if s.key == "prxy")
        src1 = next(s.server_id for s in PAPER_SERVERS if s.key == "src1")
        prxy_mean = sum(ginis[prxy][1:]) / 7
        src1_mean = sum(ginis[src1][1:]) / 7
        assert prxy_mean > src1_mean + 0.1

    def test_web_volumes_differ(self, tiny_trace):
        # Figure 3(b): Web volume 0 more skewed than volume 1.
        web = next(s.server_id for s in PAPER_SERVERS if s.key == "web")
        by_volume = volume_gini(tiny_trace, web, days=8)
        assert by_volume[0] > by_volume[1]

    def test_staging_varies_across_days(self, tiny_context):
        # Figure 3(c): Stg's day-to-day skew swings.
        stg = next(s.server_id for s in PAPER_SERVERS if s.key == "stg")
        values = server_day_gini(tiny_context.daily_counts)[stg][1:]
        assert max(values) - min(values) > 0.03


class TestComposition:
    def test_composition_sums_to_one(self, tiny_context):
        composition = top_set_server_composition(tiny_context.daily_counts)
        for day in composition:
            if day:
                assert sum(day.values()) == pytest.approx(1.0)

    def test_composition_varies_over_days(self, tiny_context):
        # Figure 3(d): "time-varying behavior that no statically
        # partitioned per-server cache can capture".
        composition = top_set_server_composition(tiny_context.daily_counts)
        assert composition_variation(composition) > 0.02

    def test_synthetic_composition(self):
        a = {1: 0.5, 2: 0.5}
        b = {2: 1.0}
        assert composition_variation([a, b]) == pytest.approx(0.5)

    def test_empty_days_skipped(self):
        assert composition_variation([{}, {1: 1.0}]) == 0.0
