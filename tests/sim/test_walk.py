"""One walk for both engines: the same hooks at the same rows.

Both engines run the engine's one walk and differ only in how a
stretch of requests is decided, so a run reaches its checkpoint saves
(every ``checkpoint_every`` requests, and on a segment store every
chunk's end too), its progress ticks and its epoch boundaries at the
same ``(cursor, epoch)``, in the same order, whichever engine decides.
The cadences are co-prime to the chunk size, so the sites fall inside
chunks and their edges move none of them.
"""

import json

import pytest

from repro.obs import instrument, runtime
from repro.sim import serialize
from repro.sim.engine import simulate
from repro.sim.experiment import ExperimentContext, build_policy
from repro.traces import tiny_config
from repro.traces.segments import segment_columnar
from repro.traces.synthetic import EnsembleTraceGenerator
from repro.util.intervals import SECONDS_PER_DAY

#: One policy per fast decider: AOD's, WMNA's, the sieve kernel's, the
#: batch decider with a ``Counter`` log and with a ``set`` log, and the
#: general per-miss body.
POLICIES = ("aod-16", "wmna-16", "sievestore-c", "sievestore-d",
            "randsieve-blkd", "randsieve-c")
DAYS = 3
CHUNK_ROWS = 3000
ROWS_PER_SEGMENT = 5000
#: Co-prime to the chunk size; every seventh checkpoint row is a
#: progress row too, which pins the order of two sites at one row.
CHECKPOINT_EVERY = 1001
PROGRESS_EVERY = 7 * CHECKPOINT_EVERY

SAVE = serialize.save_checkpoint


@pytest.fixture(scope="module")
def columns():
    return EnsembleTraceGenerator(tiny_config(days=DAYS)).generate_columnar()


@pytest.fixture(scope="module")
def context(columns):
    return ExperimentContext(
        trace=columns, days=DAYS, scale=1e-4,
        daily_counts=columns.daily_block_counts(DAYS),
    )


@pytest.fixture(scope="module")
def traces(columns, tmp_path_factory):
    directory = tmp_path_factory.mktemp("walk") / "store"
    store = segment_columnar(columns, directory, rows_per_segment=ROWS_PER_SEGMENT)
    return {"in-ram": columns, "store": store}


def hook_sites(monkeypatch, path, trace, context, name, fast):
    """A run's ``(site, cursor, epoch)`` in the order it reached them."""
    sites = []

    def recording_save(payload, target):
        sites.append(("checkpoint", payload["cursor"], payload["current_epoch"]))
        SAVE(payload, target)

    def boundary_recorder(*_):
        return lambda epoch, cursor: sites.append(("boundary", cursor, epoch))

    monkeypatch.setattr(serialize, "save_checkpoint", recording_save)
    monkeypatch.setattr(instrument, "make_epoch_timer", boundary_recorder)
    policy, capacity = build_policy(name, context)
    with runtime.observability():
        result = simulate(
            trace, policy, capacity_blocks=capacity, days=DAYS,
            fast_path=fast, checkpoint_path=path,
            checkpoint_every=CHECKPOINT_EVERY, progress_every=PROGRESS_EVERY,
            progress_hook=lambda done, epoch: sites.append(("progress", done, epoch)),
            chunk_rows=CHUNK_ROWS,
        )
    return result, sites


@pytest.mark.parametrize("form", ["in-ram", "store"])
@pytest.mark.parametrize("name", POLICIES)
def test_both_engines_fire_the_same_hooks(monkeypatch, tmp_path, columns,
                                          context, traces, name, form):
    trace = traces[form]
    fast, fast_sites = hook_sites(
        monkeypatch, tmp_path / "fast.ckpt", trace, context, name, True
    )
    reference, object_sites = hook_sites(
        monkeypatch, tmp_path / "object.ckpt", trace, context, name, False
    )
    assert (fast.engine, reference.engine) == ("fast", "object")
    assert json.dumps(serialize.stats_to_dict(fast.stats), sort_keys=True) == (
        json.dumps(serialize.stats_to_dict(reference.stats), sort_keys=True)
    )
    assert fast_sites == object_sites

    # The sites themselves, against the per-row reference.
    n = len(columns)
    days = [int(t // SECONDS_PER_DAY) for t in columns.issue_time.tolist()]
    chunk_ends = []
    if form == "store":
        chunk_ends = [base + len(c) for base, c in trace.iter_chunks(CHUNK_ROWS)]
    at = {site: [c for s, c, _ in fast_sites if s == site]
          for site in ("checkpoint", "progress", "boundary")}
    assert at["progress"] == list(range(PROGRESS_EVERY, n + 1, PROGRESS_EVERY))
    assert at["checkpoint"] == sorted(
        list(range(CHECKPOINT_EVERY, n + 1, CHECKPOINT_EVERY)) + chunk_ends
    )
    assert [epoch for s, _, epoch in fast_sites if s == "boundary"] == list(range(DAYS))
    for site, cursor, epoch in fast_sites:
        if site == "boundary":
            assert cursor == n or days[cursor] == epoch
            assert cursor == 0 or days[cursor - 1] < epoch
        else:
            assert days[cursor - 1] == epoch
