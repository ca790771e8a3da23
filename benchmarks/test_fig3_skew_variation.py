"""Figure 3 — popularity-skew variation (observation O2).

3(a): server-to-server (Prxy extreme vs Src1 near-linear);
3(b): volume-to-volume within the Web server;
3(c): day-to-day for the web staging server;
3(d): per-day server composition of the ensemble top-1% block set.
"""

import pytest

from repro.analysis.report import render_table
from repro.analysis.variation import (
    composition_variation,
    cumulative_access_curve,
    server_day_gini,
    top_set_server_composition,
    volume_gini,
)
from repro.ensemble.topology import per_server_daily_counts_from_ensemble
from repro.traces import PAPER_SERVERS
from benchmarks.conftest import DAYS


def server_id(key):
    return next(s.server_id for s in PAPER_SERVERS if s.key == key)


@pytest.fixture(scope="module")
def ginis(bench_context):
    return server_day_gini(bench_context.daily_counts)


def test_fig3a_server_to_server(benchmark, bench_context, ginis):
    per_server = benchmark.pedantic(
        per_server_daily_counts_from_ensemble,
        args=(bench_context.daily_counts,),
        iterations=1,
        rounds=1,
    )
    prxy, src1 = server_id("prxy"), server_id("src1")
    rows = []
    for key in ("prxy", "src1"):
        counts = per_server[server_id(key)][3]
        curve = cumulative_access_curve(counts, points=10)
        rows.append(
            [key] + [round(point["access_fraction"], 2) for point in curve]
        )
    print()
    print(
        render_table(
            ["server"] + [f"top {10 * (i + 1)}% blocks" for i in range(10)],
            rows,
            title="Figure 3(a): cumulative access share, day 3 "
            "(proxy bows hard; source control near-diagonal)",
        )
    )
    prxy_gini = sum(ginis[prxy][1:]) / (DAYS - 1)
    src1_gini = sum(ginis[src1][1:]) / (DAYS - 1)
    print(f"mean Gini: prxy={prxy_gini:.2f}  src1={src1_gini:.2f}")
    assert prxy_gini > src1_gini + 0.15


def test_fig3b_volume_to_volume(benchmark, bench_columnar):
    web = server_id("web")
    by_volume = benchmark(lambda: volume_gini(bench_columnar, web, days=DAYS))
    print()
    print(
        render_table(
            ["Web volume", "Gini (skew)"],
            [[vol, round(g, 3)] for vol, g in sorted(by_volume.items())],
            title="Figure 3(b): skew by volume within the Web/SQL server",
        )
    )
    # Volume 0 is configured (and must measure) more skewed than volume 1.
    assert by_volume[0] > by_volume[1] + 0.03


def test_fig3c_day_to_day(benchmark, ginis):
    stg = server_id("stg")
    values = benchmark(lambda: ginis[stg])
    print()
    print(
        render_table(
            ["day"] + list(range(DAYS)),
            [["stg Gini"] + [round(v, 2) for v in values]],
            title="Figure 3(c): web staging skew across days",
        )
    )
    # The paper contrasts a skewed day with a non-skewed one.
    spread = max(values[1:]) - min(values[1:])
    assert spread > 0.04


def test_fig3d_top1pct_composition(benchmark, bench_context):
    composition = benchmark(
        lambda: top_set_server_composition(bench_context.daily_counts)
    )
    keys = {s.server_id: s.key for s in PAPER_SERVERS}
    servers = sorted({sid for day in composition for sid in day})
    print()
    print(
        render_table(
            ["day"] + [keys[s] for s in servers],
            [
                [day] + [round(comp.get(s, 0.0), 2) for s in servers]
                for day, comp in enumerate(composition)
            ],
            title="Figure 3(d): server composition of the ensemble top-1% set",
        )
    )
    variation = composition_variation(composition)
    print(f"mean day-over-day total-variation distance: {variation:.3f}")
    # "The variation in contribution from each server demonstrates
    # time-varying behavior that no statically partitioned per-server
    # cache can capture."
    assert variation > 0.02
    # Multiple servers contribute — it is an ensemble property.
    assert all(len(day) >= 3 for day in composition[1:])
