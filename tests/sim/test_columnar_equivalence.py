"""The fast path's contract: bit-identical statistics on every configuration it runs.

``simulate(..., fast_path=True)`` is an optimization, not an
approximation — for every supported configuration it must produce the
very same :class:`CacheStats` (per-day counters AND per-minute I/O
units) and the same final cache contents as the reference object-model
engine.  These tests pin that contract over the shared synthetic
ensemble trace for a representative slice of the Figure-5 policies:
discrete sieves (epoch-batched installs), continuous sieves (stateful
per-miss admission and RNG consumption order), and the unsieved
allocate-on-demand baselines.
"""

import pytest

from repro.cache.write_policy import WriteMode
from repro.core.autotune import AdaptiveSieveStoreC, AutoThresholdSieveStoreD
from repro.core.sievestore_c import SieveStoreCConfig
from repro.sim.engine import simulate
from repro.sim.experiment import build_policy, context_for_trace
from repro.traces.columnar import ColumnarTrace

#: One representative per policy family (plus ideal's oracle batching).
EQUIVALENCE_POLICIES = (
    "ideal",
    "sievestore-d",
    "sievestore-c",
    "randsieve-c",
    "aod-16",
    "wmna-16",
)


#: Subclasses the fast loop replays through its general per-miss-call
#: body: built outside the Figure-5 registry, one per run.
EXTENSION_POLICIES = {
    "sievestore-c-adaptive": lambda ctx: (
        AdaptiveSieveStoreC(
            SieveStoreCConfig(imct_slots=ctx.imct_slots),
            capacity_blocks=ctx.sieved_capacity,
        ),
        ctx.sieved_capacity,
    ),
    "sievestore-d-auto": lambda ctx: (
        AutoThresholdSieveStoreD(capacity_blocks=ctx.sieved_capacity),
        ctx.sieved_capacity,
    ),
}


def make_policy(name, ctx):
    if name in EXTENSION_POLICIES:
        return EXTENSION_POLICIES[name](ctx)
    return build_policy(name, ctx)


def run_both(name, ctx, **kwargs):
    policy_slow, capacity = make_policy(name, ctx)
    policy_fast, _ = make_policy(name, ctx)
    slow = simulate(
        ctx.object_trace(), policy_slow, capacity, ctx.days,
        fast_path=False, **kwargs,
    )
    # Several chunks on the fast side: chunk edges must not show.
    fast = simulate(
        ctx.columnar_trace(), policy_fast, capacity, ctx.days,
        fast_path=True, chunk_rows=5000, **kwargs,
    )
    return slow, fast


def assert_identical(slow, fast):
    assert (slow.engine, fast.engine) == ("object", "fast")
    assert fast.stats.per_day == slow.stats.per_day
    assert fast.stats.per_minute == slow.stats.per_minute
    assert set(fast.cache.residents()) == set(slow.cache.residents())


@pytest.mark.parametrize(
    "name", EQUIVALENCE_POLICIES + tuple(EXTENSION_POLICIES)
)
def test_fast_path_bit_identical(name, tiny_context):
    slow, fast = run_both(name, tiny_context)
    assert_identical(slow, fast)


def test_fast_path_identical_with_sub_day_epochs(tiny_context):
    slow, fast = run_both(
        "sievestore-d", tiny_context, epoch_seconds=7 * 3600.0
    )
    assert_identical(slow, fast)


def test_fast_path_accepts_object_trace(tiny_context):
    # Callers can pass either representation; coercion happens inside.
    policy, capacity = build_policy("aod-16", tiny_context)
    via_object = simulate(
        tiny_context.object_trace(), policy, capacity, tiny_context.days,
        fast_path=True,
    )
    policy2, _ = build_policy("aod-16", tiny_context)
    via_columns = simulate(
        tiny_context.columnar_trace(), policy2, capacity, tiny_context.days,
        fast_path=True,
    )
    assert (via_object.engine, via_columns.engine) == ("fast", "fast")
    assert via_object.stats.per_day == via_columns.stats.per_day


def test_object_path_accepts_columnar_trace(tiny_context):
    policy, capacity = build_policy("aod-16", tiny_context)
    result = simulate(
        tiny_context.columnar_trace(), policy, capacity, tiny_context.days,
        fast_path=False,
    )
    policy2, _ = build_policy("aod-16", tiny_context)
    reference = simulate(
        tiny_context.object_trace(), policy2, capacity, tiny_context.days,
        fast_path=False,
    )
    assert (result.engine, reference.engine) == ("object", "object")
    assert result.stats.per_day == reference.stats.per_day


@pytest.mark.parametrize(
    "kwargs",
    [{"write_mode": WriteMode.WRITE_BACK}],
    ids=["write-back"],
)
def test_unsupported_configs_fall_back(kwargs, tiny_context):
    # Configurations the fast loop does not cover run on the reference
    # engine whatever fast_path says — same stats, recorded in
    # SimulationResult.engine.
    policy_slow, capacity = build_policy("aod-16", tiny_context)
    policy_fast, _ = build_policy("aod-16", tiny_context)
    reference = simulate(
        tiny_context.object_trace(), policy_slow, capacity,
        tiny_context.days, fast_path=False, **kwargs,
    )
    fallback = simulate(
        tiny_context.columnar_trace(), policy_fast, capacity,
        tiny_context.days, fast_path=True, **kwargs,
    )
    assert (reference.engine, fallback.engine) == ("object", "object")
    assert fallback.stats.per_day == reference.stats.per_day
    assert fallback.stats.per_minute == reference.stats.per_minute


def test_context_daily_counts_from_columns(tiny_trace, tiny_trace_config):
    # A columnar-seeded context computes the oracle counts vectorized;
    # they must equal the reference context's per-block walk.
    columns = ColumnarTrace.from_trace(tiny_trace)
    reference = context_for_trace(
        tiny_trace, days=tiny_trace_config.days, scale=tiny_trace_config.scale
    )
    columnar = context_for_trace(
        columns, days=tiny_trace_config.days, scale=tiny_trace_config.scale
    )
    assert columnar.daily_counts == reference.daily_counts
