"""The fast engine's allocate-on-demand replay against the object engine,
on generated traces.

The fast loop decides each stretch of AOD requests from reuse distances
(:func:`repro.cache.replacement.lru_pass`) and rebuilds the LRU order
once per stretch; the object engine walks every block through the
cache.  Over generated traces — hot extents and cold scans, small caches,
requests running past midnight (the rows the fast loop replays one block
at a time), passes cut short, progress ticks, small chunks and a
kill/resume at a drawn cursor — both must end in the same full state: statistics, LRU order and
resident set.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.allocation import AllocateOnDemand
from repro.sim import fast_engine, resume_simulation, simulate
from repro.sim.serialize import stats_to_dict
from repro.traces.columnar import ColumnarTrace
from repro.traces.segments import segment_columnar
from repro.util.intervals import SECONDS_PER_DAY


class Killed(RuntimeError):
    """Raised by the killing progress hook to abort a run mid-trace."""


def end_state(result):
    """Everything an AOD replay leaves behind, in comparable form."""
    return {
        "stats": stats_to_dict(result.stats),
        "lru": list(result.cache._order),
        "resident": sorted(result.cache.residents()),
    }


def replay(trace, capacity, days, fast, **kwargs):
    result = simulate(
        trace, AllocateOnDemand(), capacity, days, track_minutes=True,
        fast_path=fast, **kwargs
    )
    assert result.engine == ("fast" if fast else "object")
    return result


@st.composite
def cases(draw):
    """A trace, a cache, a pass length and the cuts a streamed replay makes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 240))
    days = draw(st.integers(1, 3))
    span = draw(st.sampled_from([64, 2048, 8192]))
    hot = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.7]))
    addresses = np.where(
        hot, rng.integers(0, 8, n) * 32, rng.integers(0, span, n)
    )
    issue = np.sort(rng.uniform(0.0, days * SECONDS_PER_DAY, n))
    # Some requests issued in a day's last minutes run past midnight.
    late = rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.5]))
    issue[late] = np.floor(issue[late] / SECONDS_PER_DAY) * SECONDS_PER_DAY + (
        SECONDS_PER_DAY - rng.uniform(0.0, 300.0, int(late.sum()))
    )
    issue = np.minimum(issue, days * SECONDS_PER_DAY - 1.0)
    rows = np.argsort(issue, kind="stable")
    issue, late = issue[rows], late[rows]
    trace = ColumnarTrace(
        issue_time=issue,
        completion_time=issue + np.where(late, 600.0, 0.004),
        address=addresses.astype(np.int64),
        block_count=rng.integers(1, draw(st.sampled_from([2, 9, 33])), n),
        is_write=rng.random(n) < 0.3,
        aligned_4k=np.zeros(n, dtype=bool),
    )
    capacity = draw(st.integers(1, 100))
    every = draw(st.integers(max(1, n // 12), n))
    cuts = {
        "lru_chunk": draw(st.sampled_from([1, 8, 64, 1 << 16])),
        "lru_chunk_max": draw(st.sampled_from([16, 1 << 21])),
        "rows_per_segment": draw(st.integers(16, 128)),
        "chunk_rows": draw(st.integers(1, 48)),
        "checkpoint_every": every,
        "progress_every": draw(st.integers(1, n)),
        "kill_at": draw(st.integers(every, n)),
    }
    return trace, days, capacity, cuts


@settings(max_examples=100, deadline=None)
@given(cases())
def test_fast_matches_object_full_end_state(case):
    trace, days, capacity, cuts = case
    chunk_rows = cuts["chunk_rows"]
    expected = end_state(
        replay(trace, capacity, days, False, chunk_rows=chunk_rows)
    )
    kill_at = cuts["kill_at"]

    def killer(requests_done, _current_epoch):
        if requests_done >= kill_at:
            raise Killed(f"killed at {requests_done}")

    with pytest.MonkeyPatch.context() as patch, \
            tempfile.TemporaryDirectory() as work:
        # Short passes: a stretch's order is carried across several.
        # Progress ticks read nothing, so rows are settled across them.
        patch.setattr(fast_engine, "_LRU_CHUNK", cuts["lru_chunk"])
        patch.setattr(fast_engine, "_LRU_CHUNK_MAX", cuts["lru_chunk_max"])
        in_ram = replay(
            trace, capacity, days, True, chunk_rows=chunk_rows,
            progress_every=cuts["progress_every"],
            progress_hook=lambda _done, _epoch: None,
        )
        assert end_state(in_ram) == expected

        store = segment_columnar(
            trace, Path(work) / "store",
            rows_per_segment=cuts["rows_per_segment"],
        )
        checkpoint = Path(work) / "run.ckpt"
        with pytest.raises(Killed):
            replay(
                store, capacity, days, True,
                chunk_rows=chunk_rows,
                checkpoint_path=checkpoint,
                checkpoint_every=cuts["checkpoint_every"],
                progress_every=kill_at, progress_hook=killer,
            )
        # The same checkpoint, resumed in RAM (chunked from the cursor)
        # and from the store.
        in_ram_checkpoint = Path(work) / "in-ram.ckpt"
        for source, target in ((trace, in_ram_checkpoint), (store, checkpoint)):
            resumed = resume_simulation(
                checkpoint, source, chunk_rows=chunk_rows, checkpoint_path=target
            )
            assert resumed.engine == "fast"
            assert end_state(resumed) == expected
