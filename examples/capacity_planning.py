#!/usr/bin/env python
"""Capacity planning: how many SSDs does your ensemble's cache need?

The operator-facing workflow behind the paper's Sections 5.2/5.3:

1. simulate the candidate cache configuration over a (synthetic or
   recorded) ensemble trace, collecting per-minute SSD traffic;
2. convert to drive-IOPS occupancy against the X25-E's ratings;
3. read off the drives needed at your coverage target;
4. sanity-check endurance (years of life at the measured write rate)
   and the appliance's network headroom;
5. compare against the per-server alternative's drive bill.

Run:
    python examples/capacity_planning.py
"""

from repro.analysis.report import render_table
from repro.ensemble.network import NetworkBudget, network_report
from repro.ensemble.per_server import whole_drive_cost_comparison
from repro.sim import context_for_trace, run_policy
from repro.ssd.device import INTEL_X25E
from repro.ssd.endurance import endurance_report
from repro.ssd.occupancy import coverage_table, occupancy_from_stats
from repro.traces import EnsembleTraceGenerator, SyntheticTraceConfig

SCALE = 5e-5
DAYS = 8
#: Occupancy aggregation window for the scaled trace (minutes).
WINDOW = 30


def main() -> None:
    config = SyntheticTraceConfig(scale=SCALE, days=DAYS)
    print(f"simulating SieveStore-C and WMNA at scale {SCALE:g} ...")
    trace = EnsembleTraceGenerator(config).generate_columnar()
    ctx = context_for_trace(trace, days=DAYS, scale=SCALE)
    device = INTEL_X25E.scaled(SCALE)

    rows = []
    reports = {}
    for name in ("sievestore-c", "wmna-32"):
        result = run_policy(name, ctx)
        series = occupancy_from_stats(
            result.stats, device, DAYS * 1440, window_minutes=WINDOW
        )
        coverage = coverage_table(series, coverages=(1.0, 0.999, 0.9))
        endurance = endurance_report(device, result.stats)
        reports[name] = (result, series, coverage, endurance)
        rows.append([
            name,
            round(series.max_occupancy(), 2),
            coverage[1.0],
            coverage[0.999],
            coverage[0.9],
            round(endurance.lifetime_years_at_peak, 1),
        ])

    print()
    print(render_table(
        ["config", "peak occupancy", "drives @100%", "@99.9%", "@90%",
         "endurance (yrs @ peak)"],
        rows,
        title="Drive requirements (Intel X25-E ratings, scaled workload)",
    ))

    # Network feasibility of the single appliance node (Section 3.3).
    result, _, _, _ = reports["sievestore-c"]
    net = network_report(
        result.stats, INTEL_X25E, NetworkBudget(links=4), device_scale=SCALE
    )
    print(f"\nappliance network: peak {net.measured_peak_utilization:.1%} "
          f"of a 4x GbE node (worst-case SSD stream would be "
          f"{net.ssd_peak_utilization:.0%})")

    # Ensemble vs per-server drive bill (Section 5.3).
    comparison = whole_drive_cost_comparison(
        ctx.daily_counts, server_count=13,
        ensemble_drives=reports["sievestore-c"][2][0.999] or 1,
    )
    print()
    print(render_table(
        ["configuration", "drives", "ideal capture", "capture/drive"],
        [[r.configuration, r.drives, round(r.mean_capture, 3),
          round(r.capture_per_drive, 4)] for r in comparison],
        title="Ensemble vs per-server deployment",
    ))


if __name__ == "__main__":
    main()
