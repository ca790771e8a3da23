#!/usr/bin/env python
"""Scale-out: when one SieveStore appliance is not enough.

The paper's Section 7 raises scaling as future work; this example runs
the answer this library builds:

1. the *oracle* view — how much ideal capture survives when the
   ensemble is partitioned across K appliances;
2. the *simulated* view — real SieveStore-C sieves on a 4-node
   cluster, each node with its own IMCT/MCT and 1/4 of the cache;
3. the *self-tuning* view — the adaptive sieve holding an
   allocation-write budget without hand-picked thresholds.

Run:
    python examples/scale_out.py
"""

from repro.analysis.report import render_table
from repro.core.autotune import AdaptiveSieveStoreC, AdmissionBudget
from repro.core.sievestore_c import SieveStoreC, SieveStoreCConfig
from repro.ensemble.cluster import simulate_cluster
from repro.ensemble.scaling import scaling_profile
from repro.sim import context_for_trace, mean_capture, total_allocation_writes
from repro.sim.engine import simulate
from repro.traces import EnsembleTraceGenerator, SyntheticTraceConfig

SCALE = 2e-5
DAYS = 8


def main() -> None:
    config = SyntheticTraceConfig(scale=SCALE, days=DAYS)
    print(f"generating ensemble trace (scale {SCALE:g}) ...")
    trace = EnsembleTraceGenerator(config).generate_columnar()
    ctx = context_for_trace(trace, days=DAYS, scale=SCALE)

    # 1. Oracle scale-out profile.
    profile = scaling_profile(ctx.daily_counts, list(range(13)),
                              node_counts=(1, 2, 4, 13))
    print()
    print(render_table(
        ["appliances", "ideal capture", "retention", "busiest node share"],
        [[p.nodes, round(p.mean_capture, 3),
          f"{p.capture_retention:.1%}", f"{p.peak_node_traffic_share:.0%}"]
         for p in profile],
        title="Oracle view: partitioned ideal capture",
    ))

    # 2. Real 4-node cluster.
    print("\nsimulating a 4-node SieveStore-C cluster ...")
    cluster = simulate_cluster(
        trace,
        lambda node: SieveStoreC(SieveStoreCConfig(imct_slots=1 << 13)),
        total_capacity_blocks=ctx.sieved_capacity,
        days=DAYS,
        nodes=4,
    )
    print(f"cluster capture: {cluster.mean_capture:.3f}; "
          f"node traffic shares: "
          + ", ".join(f"{s:.0%}" for s in cluster.node_access_shares()))

    # 3. Self-tuning single appliance.
    print("\nsimulating the budget-controlled adaptive sieve ...")
    adaptive = AdaptiveSieveStoreC(
        SieveStoreCConfig(imct_slots=ctx.imct_slots),
        budget=AdmissionBudget.cache_turnovers(ctx.sieved_capacity),
        capacity_blocks=ctx.sieved_capacity,
    )
    result = simulate(trace, adaptive, ctx.sieved_capacity, DAYS,
                      track_minutes=False)
    print(f"adaptive capture: {mean_capture(result):.3f}; "
          f"allocation-writes: {total_allocation_writes(result):,}; "
          f"t2 trajectory: {adaptive.t2_history}")


if __name__ == "__main__":
    main()
