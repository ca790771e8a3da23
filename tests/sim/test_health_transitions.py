"""Device-health transitions of a faulted replay, as observability sees them.

One plan walks every edge of the HEALTHY / DEGRADED / BYPASS machine on
the shared tiny trace: an error window (day 1 to 2), an outage (day 4.5
to 5.5) and its recovery, then a wear-out budget that trips late on
day 5.  The pinned transition instants are the first decision at or
after each edge (an epoch boundary or a request's issue time), so a
refactor that moves where health is checked shows here.  A run
checkpointed in the outage and resumed must report only what happens
after the checkpoint: the resumed device starts in BYPASS, with no
HEALTHY->BYPASS transition replayed.
"""

import numpy as np
import pytest

from repro.cache.write_policy import WriteMode
from repro.faults import ErrorWindow, FaultPlan, OutageWindow
from repro.obs import runtime
from repro.obs.events import read_events
from repro.sim import resume_simulation, simulate
from repro.sim.experiment import build_policy
from repro.sim.serialize import load_checkpoint, stats_to_dict
from repro.util.intervals import SECONDS_PER_DAY

DAY = float(SECONDS_PER_DAY)
OUTAGE = (4.5 * DAY, 5.5 * DAY)
PLAN = FaultPlan(
    errors=(
        ErrorWindow(1.0 * DAY, 2.0 * DAY, "read", probability=0.3),
        ErrorWindow(1.0 * DAY, 2.0 * DAY, "write", probability=0.3),
    ),
    outages=(OutageWindow(*OUTAGE),),
    wearout_bytes=80_000_000,
    seed=5,
)
#: ``(sim_time, from_state, to_state)`` of every transition, in order.
TRANSITIONS = [
    (86400.0, "HEALTHY", "DEGRADED"),
    (172800.0, "DEGRADED", "HEALTHY"),
    (388812.139, "HEALTHY", "BYPASS"),
    (475229.841, "BYPASS", "HEALTHY"),
    (503610.915, "HEALTHY", "BYPASS"),  # the wear-out budget trips
]
WRITE_MODES = pytest.mark.parametrize(
    "write_mode", [WriteMode.WRITE_THROUGH, WriteMode.WRITE_BACK],
    ids=["write-through", "write-back"],
)


@pytest.fixture(autouse=True)
def observability_off():
    runtime.disable()
    yield
    runtime.disable()


def observed(run, events_path):
    """``(result, transitions, counter)`` of ``run()`` with observability on:
    the ``health_transition`` events as tuples, and the
    ``appliance_health_transitions_total`` counter as
    ``{(from_state, to_state): count}``."""
    with runtime.observability(events_path) as context:
        result = run()
    transitions = [
        (event["sim_time"], event["from_state"], event["to_state"])
        for event in read_events(events_path)
        if event["event"] == "health_transition"
    ]
    counter = context.registry.get("appliance_health_transitions_total")
    counts = {}
    if counter is not None:
        assert counter.labelnames == ("policy", "from_state", "to_state")
        for (policy, old, new), value in counter.samples():
            assert policy == "aod-16"
            counts[old, new] = value
    return result, transitions, counts


def replay(ctx, write_mode, **kwargs):
    policy, capacity = build_policy("aod-16", ctx)
    return simulate(
        ctx.columnar_trace(), policy, capacity_blocks=capacity, days=ctx.days,
        track_minutes=False, write_mode=write_mode, fault_plan=PLAN,
        label="aod-16", **kwargs
    )


def tally(transitions):
    counts = {}
    for _time, old, new in transitions:
        counts[old, new] = counts.get((old, new), 0) + 1
    return counts


@WRITE_MODES
def test_every_transition_is_reported_once(tiny_context, tmp_path, write_mode):
    result, transitions, counts = observed(
        lambda: replay(tiny_context, write_mode), tmp_path / "events.jsonl"
    )
    assert result.engine == "object"
    assert transitions == TRANSITIONS
    assert counts == tally(TRANSITIONS)
    assert result.stats.total.read_errors > 0
    assert result.stats.total.write_errors > 0
    assert result.stats.total.bypass_accesses > 0


@WRITE_MODES
def test_resume_in_bypass_reports_no_spurious_transition(
    tiny_context, tmp_path, write_mode
):
    baseline = replay(tiny_context, write_mode)
    # One checkpoint only, at a row inside the outage: the cadence is
    # past half the trace, so no second multiple of it is reached.
    issue = np.asarray(tiny_context.columnar_trace().issue_time)
    first, last = np.searchsorted(issue, OUTAGE)
    cursor = int(first + last) // 2
    assert 2 * cursor > len(issue)
    path = tmp_path / "bypass.ckpt"
    replay(tiny_context, write_mode, checkpoint_path=path,
           checkpoint_every=cursor)
    state = load_checkpoint(path)
    assert state["cursor"] == cursor
    moment = float(issue[cursor - 1])
    assert OUTAGE[0] <= moment < OUTAGE[1]

    resumed, transitions, counts = observed(
        lambda: resume_simulation(path, tiny_context.columnar_trace()),
        tmp_path / "resumed.jsonl",
    )
    after = [row for row in TRANSITIONS if row[0] > moment]
    assert after[0][1:] == ("BYPASS", "HEALTHY")
    assert transitions == after
    assert counts == tally(after)
    assert stats_to_dict(resumed.stats) == stats_to_dict(baseline.stats)
