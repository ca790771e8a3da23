"""The object loop's row windows: invisible to results, and object-free.

The object engine decides each stretch between the walk's stops in
windows of at most ``_ROW_WINDOW`` rows (for a plain SieveStore-C it
hashes each window's blocks at once, and it records each window's
statistics once decided).  A checkpointed run stops at its checkpoints,
so its windows differ from an uninterrupted run's, and its checkpoints
fall inside the uninterrupted run's windows.  And it reads fields, not
request objects: no ``IORequest`` is built on the way from columns to
the appliance.
"""

import json

import pytest

from repro.core import SieveStoreC, SieveStoreCConfig
from repro.faults import ErrorWindow, FaultPlan, OutageWindow
from repro.sim import engine
from repro.sim.engine import resume_simulation, simulate
from repro.sim.engine import chunk_stops
from repro.sim.experiment import context_for_trace, run_policy
from repro.sim.serialize import load_checkpoint, stats_to_dict
from repro.traces import columnar, model
from repro.traces.segments import DEFAULT_CHUNK_ROWS, segment_columnar
from repro.util.intervals import SECONDS_PER_DAY

#: Not a multiple of the row window, and shorter than it: checkpoints
#: land inside windows, and some checkpoint intervals straddle an edge.
EVERY = 3001

PLAN = FaultPlan(
    errors=(
        ErrorWindow(2.0 * SECONDS_PER_DAY, 3.0 * SECONDS_PER_DAY, "read", 0.3),
        ErrorWindow(2.0 * SECONDS_PER_DAY, 3.0 * SECONDS_PER_DAY, "write", 0.3),
    ),
    outages=(OutageWindow(4.0 * SECONDS_PER_DAY, 4.5 * SECONDS_PER_DAY),),
    seed=5,
)


def sieve(ctx):
    return SieveStoreC(SieveStoreCConfig(imct_slots=ctx.imct_slots))


def stats_json(stats):
    return json.dumps(stats_to_dict(stats), sort_keys=True)


def window_edges(columns):
    """The rows where an uninterrupted one-chunk replay of ``columns``
    starts or ends a hash window."""
    _, stops, _ = chunk_stops(
        columns.issue_time, float(SECONDS_PER_DAY), 0, 0, None, None
    )
    edges = set(stops)
    for lo, hi in zip(stops, stops[1:]):
        edges.update(range(lo, hi, engine._ROW_WINDOW))
    return edges


def replay(ctx, trace, **kwargs):
    """A SieveStore-C run on the object engine."""
    return simulate(
        trace, sieve(ctx), capacity_blocks=ctx.sieved_capacity,
        days=ctx.days, track_minutes=True, fast_path=False, **kwargs
    )


@pytest.mark.parametrize("plan", [None, PLAN], ids=["healthy", "faulted"])
def test_resume_inside_a_row_window_is_bit_identical(tiny_context, tmp_path,
                                                     plan):
    columns = tiny_context.columnar_trace()
    assert EVERY < engine._ROW_WINDOW < len(columns) <= DEFAULT_CHUNK_ROWS
    baseline = replay(tiny_context, columns, fault_plan=plan)
    path = tmp_path / "window.ckpt"
    checkpointed = replay(
        tiny_context, columns, fault_plan=plan,
        checkpoint_path=path, checkpoint_every=EVERY,
    )
    assert (baseline.engine, checkpointed.engine) == ("object", "object")
    assert stats_json(checkpointed.stats) == stats_json(baseline.stats)
    cursor = load_checkpoint(path)["cursor"]
    assert cursor not in window_edges(columns)
    resumed = resume_simulation(path, columns)
    assert resumed.engine == "object"
    assert stats_json(resumed.stats) == stats_json(baseline.stats)
    assert sorted(resumed.cache.residents()) == sorted(
        baseline.cache.residents()
    )
    for counter in ("admissions", "imct_rejections", "promotions",
                    "mct_rejections"):
        assert getattr(resumed.policy, counter) == getattr(
            baseline.policy, counter
        )
    assert bytes(resumed.policy.imct.counts) == bytes(
        baseline.policy.imct.counts
    )


@pytest.fixture
def no_request_objects(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the object loop built request objects")

    monkeypatch.setattr(columnar.ColumnarTrace, "to_trace", refuse)
    monkeypatch.setattr(model.IORequest, "__post_init__", refuse)


def test_columnar_replay_builds_no_request_objects(tiny_context,
                                                   no_request_objects):
    result = replay(tiny_context, tiny_context.columnar_trace(), fault_plan=PLAN)
    assert result.engine == "object"
    assert result.stats.total.bypass_accesses > 0


def test_segmented_replay_builds_no_request_objects(tiny_context, tmp_path,
                                                    no_request_objects):
    columns = tiny_context.columnar_trace()
    store = segment_columnar(columns, tmp_path / "store",
                             rows_per_segment=5000)
    streamed = replay(tiny_context, store, fault_plan=PLAN, chunk_rows=3000)
    in_ram = replay(tiny_context, columns, fault_plan=PLAN)
    assert (streamed.engine, in_ram.engine) == ("object", "object")
    assert stats_json(streamed.stats) == stats_json(in_ram.stats)


def test_run_policy_replays_columns_on_either_engine(tiny_context,
                                                     no_request_objects):
    ctx = context_for_trace(
        tiny_context.columnar_trace(), tiny_context.days, tiny_context.scale
    )
    reference = run_policy("sievestore-c", ctx, fast_path=False)
    fast = run_policy("sievestore-c", ctx, fast_path=True)
    assert (reference.engine, fast.engine) == ("object", "fast")
    assert stats_json(reference.stats) == stats_json(fast.stats)
