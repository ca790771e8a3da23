"""Section 3.3 — appliance network feasibility.

The paper's worst-case arithmetic (SSD flat-out ~= 50% of a 4xGbE
node) evaluated against the measured SSD traffic of the simulated
SieveStore configurations, plus the allocation-traffic negligibility
claim.
"""

import pytest

from repro.analysis.report import render_table
from repro.ensemble.network import (
    NetworkBudget,
    network_report,
    worst_case_ssd_utilization,
)
from repro.ssd.device import INTEL_X25E
from benchmarks.conftest import DAYS


def test_network_feasibility(benchmark, bench_suite, bench_config):
    budget = NetworkBudget()

    def compute():
        return {
            name: network_report(
                bench_suite[name].stats,
                INTEL_X25E,
                budget,
                device_scale=bench_config.scale,
            )
            for name in ("sievestore-c", "sievestore-d", "wmna-32")
        }

    reports = benchmark(compute)
    worst = worst_case_ssd_utilization(INTEL_X25E, budget)
    print()
    print(
        render_table(
            ["config", "peak NIC utilization", "write share of SSD traffic"],
            [
                [name, f"{r.measured_peak_utilization * 100:.1f}%",
                 f"{r.write_share_of_traffic * 100:.1f}%"]
                for name, r in reports.items()
            ],
            title="Section 3.3: appliance network load "
            f"(worst-case SSD stream = {worst * 100:.0f}% of 4xGbE)",
        )
    )
    # The paper's 50% worst case.
    assert worst == pytest.approx(0.5, abs=0.01)
    # Measured SieveStore peaks sit below the worst case and far below
    # saturation.
    for name in ("sievestore-c", "sievestore-d"):
        assert reports[name].measured_peak_utilization < 1.0
    # Allocation/write traffic is a modest share for SieveStore but the
    # majority of WMNA's SSD traffic (allocation-writes dominate).
    assert (
        reports["wmna-32"].write_share_of_traffic
        > reports["sievestore-c"].write_share_of_traffic
    )


def test_metastate_budget(benchmark, bench_suite, bench_config):
    """Section 3.3's '~8 GB of memory' for the IMCT+MCT, reproduced
    analytically and checked against the simulated sieve's footprint."""
    from repro.core.metastate import DEFAULT_BUDGET, paper_scale_example

    example = benchmark(paper_scale_example)
    state = bench_suite["sievestore-c"].policy.metastate_entries()
    measured = DEFAULT_BUDGET.sieve_c_bytes(
        state["imct_slots"], state["mct_peak_entries"]
    )
    print()
    print(
        render_table(
            ["quantity", "value"],
            [
                ["paper-scale IMCT (GiB)", round(example["imct_gib"], 2)],
                ["paper-scale MCT (GiB)", round(example["mct_gib"], 2)],
                ["paper-scale total (GiB)", round(example["total_gib"], 2)],
                ["simulated sieve state at bench scale (KiB)",
                 round(measured / 1024, 1)],
                ["simulated MCT peak entries", state["mct_peak_entries"]],
            ],
            title="Section 3.3: sieve metastate budget "
            "(paper: 'about 8GB of memory')",
        )
    )
    assert 6.0 < example["total_gib"] < 10.0
    # The exact tier stays small relative to the imprecise tier — the
    # point of the two-tier design.
    assert state["mct_peak_entries"] < 0.2 * state["imct_slots"]


def test_request_processing_throughput(benchmark, bench_context):
    """Appliance request-path cost: simulate one policy over one day.

    Not a paper figure — an engineering benchmark that keeps the
    simulator's per-request cost visible (the paper notes request
    processing is entirely in memory and not a concern).
    """
    import numpy as np

    from repro.core import SieveStoreC, SieveStoreCConfig
    from repro.sim.engine import simulate

    columns = bench_context.trace
    day = columns.take(np.flatnonzero(columns.issue_days() == 3)[:20000])

    def run_day():
        result = simulate(
            day,
            SieveStoreC(SieveStoreCConfig(imct_slots=bench_context.imct_slots)),
            bench_context.sieved_capacity,
            DAYS,
            track_minutes=False,
            fast_path=False,
        )
        return result.stats.total.accesses

    accesses = benchmark(run_day)
    assert accesses == day.total_blocks()
