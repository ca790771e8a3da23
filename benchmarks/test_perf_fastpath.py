"""Columnar fast path vs the object reference, at bench scale.

Runs two configurations over the shared bench trace through both
simulation paths and asserts the paths produce bit-identical statistics
(the fast path is an optimization, not an approximation):

* AOD at 16 GB — engine-bound: every block goes through the
  hit/miss/allocate machinery with no sieve-policy overhead.
* SieveStore-C — sieve-bound: exercises the array-backed sieve kernel
  (:mod:`repro.core.sieve_kernel`, driven by SieveStore-C's fast
  decider, :class:`repro.sim.fast_engine.SieveStretches`).

The speed-up of one engine over the other is printed, not asserted: a
wall-clock ratio depends on the machine.  Speed is judged by the repo
benchmark (``python -m benchmarks.perf``, paired runs against the
parent commit).  Each engine is timed as the best of two back-to-back
runs, and the repetitions double as a determinism check (identical
per-day statistics run to run).
"""

from __future__ import annotations

from dataclasses import replace

from repro.sim import run_policy
from repro.sim.engine import SimulationResult

#: Engine-bound configuration used for the throughput measurement.
PERF_POLICY = "aod-16"

#: Sieve-bound configuration exercising the array-backed sieve kernel.
SIEVE_POLICY = "sievestore-c"


def best_of(name, ctx, fast_path, runs=2) -> SimulationResult:
    """Run a configuration ``runs`` times; keep the best wall clock.

    The repetitions must be deterministic — identical per-day stats —
    so the minimum is a noise-damped measurement of the same work, not
    a different run.
    """
    results = [run_policy(name, ctx, fast_path=fast_path) for _ in range(runs)]
    first = results[0]
    for other in results[1:]:
        assert other.engine == first.engine
        assert other.stats.per_day == first.stats.per_day
    return replace(
        first, wall_seconds=min(r.wall_seconds for r in results)
    )


def test_perf_fastpath_speedup(benchmark, bench_context):
    slow = best_of(PERF_POLICY, bench_context, fast_path=False)
    fast = benchmark.pedantic(
        lambda: best_of(PERF_POLICY, bench_context, fast_path=True),
        iterations=1,
        rounds=1,
    )

    # Both runs must have used the engine they were asked for — a
    # silent fallback would turn the comparison into fast-vs-fast.
    assert slow.engine == "object"
    assert fast.engine == "fast"

    # Equivalence first: identical per-day and per-minute statistics.
    assert fast.stats.per_day == slow.stats.per_day
    assert fast.stats.per_minute == slow.stats.per_minute

    speedup = slow.wall_seconds / fast.wall_seconds
    blocks = fast.stats.total.accesses
    print(
        f"\n{PERF_POLICY}: object {slow.wall_seconds:.2f}s, "
        f"fast {fast.wall_seconds:.2f}s ({speedup:.2f}x) over "
        f"{blocks:,} block accesses"
    )


def test_perf_sieve_kernel_speedup(benchmark, bench_context):
    slow = best_of(SIEVE_POLICY, bench_context, fast_path=False)
    fast = benchmark.pedantic(
        lambda: best_of(SIEVE_POLICY, bench_context, fast_path=True),
        iterations=1,
        rounds=1,
    )

    assert slow.engine == "object"
    assert fast.engine == "fast"

    # The kernel is an optimization, not an approximation: identical
    # statistics and identical sieve telemetry.
    assert fast.stats.per_day == slow.stats.per_day
    assert fast.stats.per_minute == slow.stats.per_minute
    assert fast.policy.admissions == slow.policy.admissions
    assert fast.policy.imct_rejections == slow.policy.imct_rejections
    assert fast.policy.metastate_entries() == slow.policy.metastate_entries()

    speedup = slow.wall_seconds / fast.wall_seconds
    blocks = fast.stats.total.accesses
    print(
        f"\n{SIEVE_POLICY}: object {slow.wall_seconds:.2f}s, "
        f"fast {fast.wall_seconds:.2f}s ({speedup:.2f}x) over "
        f"{blocks:,} block accesses"
    )
