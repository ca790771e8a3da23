"""The fast engine's SieveStore-C loop against the object engine, on
generated traces.

The fast loop settles each run's hits and cold rejections in one
vectorized pass and walks only its events
(:mod:`repro.core.sieve_kernel`); the object engine asks the policy's
ladder about every miss.  Over generated traces — small, cold-heavy, on
tiny caches and tables, short windows, the single-tier ablation, small
chunks and a kill/resume at a drawn cursor — both must end in the same
*full* state: statistics, the LRU order, the IMCT cells, totals and clock, the
MCT's counters and accounting, and every sieve counter.  Two hand-built
traces pin the rewrite a mid-run eviction makes of a resident block's
later accesses, on a cold slot and on a hot one.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SieveStoreC, SieveStoreCConfig, WindowSpec
from repro.core import sieve_kernel
from repro.sim import resume_simulation, simulate
from repro.sim.serialize import stats_to_dict
from repro.traces.columnar import ColumnarTrace
from repro.traces.segments import segment_columnar


class Killed(RuntimeError):
    """Raised by the killing progress hook to abort a run mid-trace."""


def make_trace(times, addresses, blocks):
    times = np.asarray(times, dtype=np.float64)
    return ColumnarTrace(
        issue_time=times,
        completion_time=times + 0.004,
        address=np.asarray(addresses, dtype=np.int64),
        block_count=np.asarray(blocks, dtype=np.int32),
        is_write=np.arange(len(times)) % 3 == 0,
        aligned_4k=np.zeros(len(times), dtype=bool),
    )


def end_state(result):
    """Everything a replay leaves behind, in comparable form."""
    policy = result.policy
    table, mct = policy.imct, policy.mct
    tracked = table._last_address
    return {
        "stats": stats_to_dict(result.stats),
        "lru": list(result.cache._order),
        "resident": sorted(result.cache.residents()),
        "imct": (
            bytes(table.counts), table.totals.tobytes(), table.clock,
            None if tracked is None else tracked.tobytes(),
            table.alias_collisions, table.recorded_misses,
        ),
        "mct": (
            {a: (c._counts, c._last_subwindow)
             for a, c in mct._counters.items()},
            mct.inserts, mct.evictions, mct.peak_entries, mct._last_prune,
        ),
        "counters": (
            policy.admissions, policy.imct_rejections, policy.promotions,
            policy.mct_rejections,
        ),
    }


def replay(trace, config, capacity, days, fast, tracking=False, **kwargs):
    policy = SieveStoreC(config)
    if tracking:
        policy.imct.enable_collision_tracking()
    result = simulate(
        trace, policy, capacity, days, track_minutes=True, fast_path=fast,
        **kwargs
    )
    assert result.engine == ("fast" if fast else "object")
    return result


@st.composite
def cases(draw):
    """A trace, a sieve, a cache and the cuts a streamed replay makes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 240))
    hours = draw(st.sampled_from([1, 5, 16, 40]))
    span = draw(st.sampled_from([64, 2048, 8192]))
    # Some requests on a few hot extents, the rest across the span.
    hot = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.7]))
    addresses = np.where(
        hot, rng.integers(0, 8, n) * 32, rng.integers(0, span, n)
    )
    trace = make_trace(
        np.sort(rng.uniform(0.0, hours * 3600.0, n)), addresses,
        rng.integers(1, draw(st.sampled_from([2, 9, 33])), n),
    )
    config = SieveStoreCConfig(
        imct_slots=draw(st.sampled_from([1, 3, 61, 1024, 4096])),
        t1=draw(st.integers(1, 9)),
        t2=draw(st.integers(0, 4)),
        window=draw(st.sampled_from([
            WindowSpec(),
            WindowSpec(8 * 3600.0, 1),
            WindowSpec(3600.0, 4),
            WindowSpec(600.0, 2),
        ])),
        single_tier_admission=draw(st.booleans()),
    )
    capacity = draw(st.integers(1, 100))
    every = draw(st.integers(max(1, n // 12), n))
    cuts = {
        "rows_per_segment": draw(st.integers(16, 128)),
        "chunk_rows": draw(st.integers(1, 48)),
        "checkpoint_every": every,
        "kill_at": draw(st.integers(every, n)),
    }
    return trace, config, capacity, draw(st.booleans()), cuts


class TestFastMatchesObject:
    @settings(max_examples=100, deadline=None)
    @given(cases())
    def test_full_end_state(self, case):
        trace, config, capacity, tracking, cuts = case
        days = 2
        chunk_rows = cuts["chunk_rows"]
        expected = end_state(replay(
            trace, config, capacity, days, False, tracking,
            chunk_rows=chunk_rows,
        ))
        assert end_state(replay(
            trace, config, capacity, days, True, tracking,
            chunk_rows=chunk_rows,
        )) == expected

        kill_at = cuts["kill_at"]

        def killer(requests_done, _current_epoch):
            if requests_done >= kill_at:
                raise Killed(f"killed at {requests_done}")

        with tempfile.TemporaryDirectory() as work:
            store = segment_columnar(
                trace, Path(work) / "store",
                rows_per_segment=cuts["rows_per_segment"],
            )
            checkpoint = Path(work) / "run.ckpt"
            with pytest.raises(Killed):
                replay(
                    store, config, capacity, days, True, tracking,
                    chunk_rows=chunk_rows,
                    checkpoint_path=checkpoint,
                    checkpoint_every=cuts["checkpoint_every"],
                    progress_every=kill_at, progress_hook=killer,
                )
            # The same checkpoint, resumed in RAM (chunked from the
            # cursor) and from the store.
            in_ram_checkpoint = Path(work) / "in-ram.ckpt"
            for source, target in ((trace, in_ram_checkpoint), (store, checkpoint)):
                resumed = resume_simulation(
                    checkpoint, source, chunk_rows=chunk_rows, checkpoint_path=target
                )
                assert resumed.engine == "fast"
                assert end_state(resumed) == expected


#: One resident block X, evicted mid-run by Y's admission (capacity 1,
#: single-tier) and accessed again later in the same run.  Two-hour
#: subwindows: the first run installs X, the second evicts it.
EVICTED_MID_RUN = {
    # t1 = 3: X's one access in run 2 leaves its slot cold.
    "cold": (3, [0, 0, 0, 1, 1, 1, 0], 3),
    # t1 = 2: X's two accesses in run 2 make its slot hot.
    "hot": (2, [0, 0, 1, 1, 0, 0], 2),
}
X, Y = 5, 900


@pytest.mark.parametrize("slot", list(EVICTED_MID_RUN))
def test_resident_block_evicted_mid_run(monkeypatch, slot):
    t1, blocks, first_run = EVICTED_MID_RUN[slot]
    addresses = [(X, Y)[b] for b in blocks]
    times = [
        float(i) if i < first_run else 7200.0 + i for i in range(len(blocks))
    ]
    trace = make_trace(times, addresses, [1] * len(blocks))
    config = SieveStoreCConfig(
        imct_slots=4096, t1=t1, single_tier_admission=True
    )
    policy = SieveStoreC(config)
    assert policy.imct.slot_of(X) != policy.imct.slot_of(Y)
    # Classify even runs this short; spy on what each eviction rewrites.
    monkeypatch.setattr(sieve_kernel, "_BATCH_MIN_BLOCKS", 0)
    rewrites = []
    evict = sieve_kernel.SieveStoreCKernel.evict

    def spy(kernel, address, position):
        lost = evict(kernel, address, position)
        rewritten = np.flatnonzero(
            kernel._addresses[position + 1:] == address
        ) + position + 1
        rewrites.append((
            address, lost.size,
            kernel._rejected[rewritten].tolist(),
            kernel._event[rewritten].tolist(),
        ))
        return lost

    monkeypatch.setattr(sieve_kernel.SieveStoreCKernel, "evict", spy)
    fast = replay(trace, config, 1, 1, True)
    expected = replay(trace, config, 1, 1, False)
    assert end_state(fast) == end_state(expected)
    later = blocks[first_run:].count(0)  # X's accesses in the second run
    cold = slot == "cold"
    # X's later accesses stopped being hits: rejections on its cold
    # slot, events on its hot one.
    assert rewrites[0] == (X, later, [cold] * later, [not cold] * later)
    assert fast.stats.total.read_hits + fast.stats.total.write_hits == 0
    assert end_state(fast)["lru"] == ([Y] if cold else [X])
