"""Shared state for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  They
share a single synthetic ensemble trace and one run of the Figure-5
policy suite (both session-scoped), because the suite is the expensive
part and Figures 5-9 are different views of the same runs — exactly as
in the paper.

Scale: the benches run the ``small`` preset (~1/10,000 linear scale,
a few million block accesses over 8 days).  Set the environment
variable ``SIEVESTORE_BENCH_SCALE`` to override (e.g. 1e-5 for a quick
smoke run, 1e-3 for a heavier one).

Performance knobs (all read once at session start):

* ``SIEVESTORE_BENCH_JOBS``  — worker processes for the policy suite
  (default 1 = serial in-process, 0 = all cores);
* ``SIEVESTORE_TRACE_CACHE`` — trace-cache directory override (the
  harness defaults to ``.sievestore-trace-cache`` at the repo root, so
  repeated bench sessions skip trace synthesis entirely).

Speed is not measured here: ``python -m benchmarks.perf`` is the repo's
one perf harness (see ``benchmarks/perf/README.md``).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.sim import context_for_trace, run_policy_suite
from repro.ssd.device import INTEL_X25E
from repro.traces import SyntheticTraceConfig, load_or_generate_columnar

DAYS = 8

#: Occupancy aggregation window (minutes) for the scaled trace; see
#: repro.ssd.occupancy.occupancy_from_stats.
OCCUPANCY_WINDOW_MINUTES = 30

REPO_ROOT = Path(__file__).resolve().parent.parent


def bench_scale() -> float:
    return float(os.environ.get("SIEVESTORE_BENCH_SCALE", "1e-4"))


def bench_jobs():
    jobs = int(os.environ.get("SIEVESTORE_BENCH_JOBS", "1"))
    return None if jobs == 0 else jobs


@pytest.fixture(scope="session")
def bench_config():
    return SyntheticTraceConfig(scale=bench_scale(), days=DAYS)


@pytest.fixture(scope="session")
def bench_columnar(bench_config):
    """The shared ensemble trace in columnar form, via the trace cache."""
    if os.environ.get("SIEVESTORE_TRACE_CACHE") is not None:
        cache_dir = None  # honour the user's override (or opt-out)
    else:
        cache_dir = REPO_ROOT / ".sievestore-trace-cache"
    return load_or_generate_columnar(bench_config, cache_dir)


@pytest.fixture(scope="session")
def bench_trace(bench_columnar):
    return bench_columnar.to_trace()


@pytest.fixture(scope="session")
def bench_context(bench_trace, bench_columnar, bench_config):
    return context_for_trace(
        bench_trace,
        days=bench_config.days,
        scale=bench_config.scale,
        columnar=bench_columnar,
    )


@pytest.fixture(scope="session")
def bench_suite(bench_context):
    """The Figure-5 policy suite, run once for the whole bench session."""
    results = run_policy_suite(bench_context, jobs=bench_jobs())
    if results.failures:
        # Figures 5-9 all read this suite; a partial run would make
        # every downstream bench silently wrong, so fail loudly here.
        pytest.fail(
            "policy suite had failures: "
            + "; ".join(str(f) for f in results.failures.values())
        )
    return results


@pytest.fixture(scope="session")
def bench_device(bench_config):
    """The X25-E scaled to the workload's scale (see SSDModel.scaled)."""
    return INTEL_X25E.scaled(bench_config.scale)
