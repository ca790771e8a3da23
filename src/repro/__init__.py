"""SieveStore reproduction: a highly-selective, ensemble-level disk cache.

Reproduces Pritchett & Thottethodi, *SieveStore: A Highly-Selective,
Ensemble-level Disk Cache for Cost-Performance* (ISCA 2010), as a
self-contained Python library:

* :mod:`repro.traces` — columnar block traces (MSR CSV I/O, on-disk
  segment stores) and a synthetic 13-server ensemble workload
  calibrated to the paper's published trace characteristics
  (observations O1/O2);
* :mod:`repro.cache` — the fully-associative LRU block-cache substrate
  with pluggable allocation (who gets in);
* :mod:`repro.core` — the contribution: SieveStore-D (discrete,
  access-count batch allocation), SieveStore-C (continuous two-tier
  IMCT/MCT lazy allocation), ideal/random sieves, Belady analysis, and
  the deployable appliance composition;
* :mod:`repro.offline` — SieveStore-D's hash-partitioned log +
  map-reduce metastate pipeline;
* :mod:`repro.ssd` — the Intel X25-E device model, per-minute drive
  occupancy costing, and endurance analysis;
* :mod:`repro.ensemble` — per-server caching baselines and network
  feasibility (the quadrant comparison);
* :mod:`repro.sim` — the trace-driven simulation engine and experiment
  registry;
* :mod:`repro.analysis` — skew/variation analyses and report rendering.

Quick start::

    from repro import quick_simulation

    result = quick_simulation("sievestore-c")
    print(result.daily_capture())

See ``examples/`` for full scenarios and ``benchmarks/`` for the
regeneration of every table and figure in the paper's evaluation.
"""

from repro.cache import BlockCache
from repro.core import (
    SieveStoreAppliance,
    SieveStoreC,
    SieveStoreCConfig,
    SieveStoreD,
    SieveStoreDConfig,
)
from repro.sim import context_for_trace, run_policy, simulate
from repro.traces import (
    EnsembleTraceGenerator,
    SyntheticTraceConfig,
    small_config,
    tiny_config,
)

__version__ = "1.0.0"


def quick_simulation(policy_name: str = "sievestore-c", scale: float = 1.5e-5):
    """One-call demo: synthesize a scaled ensemble trace and run a policy.

    Args:
        policy_name: any configuration key from
            :data:`repro.sim.experiment.FIGURE5_POLICIES`.
        scale: linear workload scale (see
            :class:`repro.traces.SyntheticTraceConfig`).

    Returns:
        a :class:`repro.sim.SimulationResult`.
    """
    config = SyntheticTraceConfig(scale=scale)
    columns = EnsembleTraceGenerator(config).generate_columnar()
    ctx = context_for_trace(columns, days=config.days, scale=scale)
    return run_policy(policy_name, ctx, track_minutes=False)


__all__ = [
    "BlockCache",
    "SieveStoreAppliance",
    "SieveStoreC",
    "SieveStoreCConfig",
    "SieveStoreD",
    "SieveStoreDConfig",
    "context_for_trace",
    "run_policy",
    "simulate",
    "EnsembleTraceGenerator",
    "SyntheticTraceConfig",
    "small_config",
    "tiny_config",
    "quick_simulation",
    "__version__",
]
