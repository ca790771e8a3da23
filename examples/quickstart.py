#!/usr/bin/env python
"""Quickstart: put a SieveStore-C appliance in front of a storage ensemble.

Generates a scaled synthetic 13-server ensemble trace (calibrated to the
SieveStore paper's published workload characteristics), puts the
continuous sieve in front of a block cache, replays the trace's columns
through them, and prints what happened — hit ratios, allocation-writes,
and the sieve's metastate footprint.

Run:
    python examples/quickstart.py
"""

from repro.core import SieveStoreC, SieveStoreCConfig
from repro.sim import simulate
from repro.traces import SyntheticTraceConfig, load_or_generate_columnar
from repro.util.units import format_bytes


def main() -> None:
    # 1. A week of block traffic from a 13-server ensemble, at 1/50,000
    #    linear scale so this demo runs in seconds.  The generated trace
    #    is memoized on disk, so re-runs start immediately.
    config = SyntheticTraceConfig(scale=2e-5, days=8)
    trace = load_or_generate_columnar(config)
    print(
        f"trace: {len(trace):,} requests, {trace.total_blocks():,} "
        f"512-byte block accesses over {config.days} days"
    )

    # 2. The appliance: a 16 GB (scaled) SSD cache behind the two-tier
    #    sieve with the paper's tuned parameters (t1=9, t2=4, W=8h).
    capacity_blocks = int(16 * 2**30 / 512 * config.scale)
    sieve = SieveStoreC(SieveStoreCConfig(imct_slots=1 << 14))

    # 3. Replay the trace through it: every 512-byte block of every
    #    request is looked up, and a miss is allocated only if the
    #    sieve admits it.
    stats = simulate(trace, sieve, capacity_blocks, days=config.days).stats

    # 4. What happened.
    print(f"\ncache: {capacity_blocks:,} frames "
          f"({format_bytes(capacity_blocks * 512)} at this scale)")
    print(f"{'day':>4} {'accesses':>10} {'hit ratio':>10} {'alloc-writes':>13}")
    for day, d in enumerate(stats.per_day):
        print(f"{day:>4} {d.accesses:>10,} {d.hit_ratio:>10.1%} "
              f"{d.allocation_writes:>13,}")
    total = stats.total
    print(f"\noverall: {total.hit_ratio:.1%} of accesses served from the SSD")
    print(f"allocation-writes: {total.allocation_writes:,} "
          f"({total.allocation_writes / total.accesses:.2%} of accesses — "
          "the sieve at work)")
    print(f"sieve rejections: imct={sieve.imct_rejections:,} "
          f"mct={sieve.mct_rejections:,}; admissions={sieve.admissions:,}")
    state = sieve.metastate_entries()
    print(f"metastate: {state['imct_slots']:,} IMCT slots, "
          f"{state['mct_peak_entries']:,} peak MCT entries")


if __name__ == "__main__":
    main()
