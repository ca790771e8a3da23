"""The one stop finder both replay loops walk a chunk by.

``chunk_stops`` finds, in a few vectorized passes, the rows where a
replay loop must stop: epoch changes, checkpoint and progress rows,
the chunk's end.  Over random chunk bases, resume cursors, epoch
lengths and cadences, its stops must be the rows the per-row reference
stops at: ``int(issue // epoch_seconds)`` changes, and
``(row + 1) % every == 0`` after trace row ``row``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sim.fast_engine import chunk_stops

EPOCHS = (1.0, 60.0, 3600.0, 7 * 3600.0, 43200.5, 86400.0)


@st.composite
def chunks(draw):
    """An issue-ordered chunk and where a replay of it starts."""
    epoch_seconds = draw(st.sampled_from(EPOCHS))

    def near_boundary(index, nudge):
        return max(0.0, index * epoch_seconds + nudge)

    times = draw(st.lists(
        st.one_of(
            st.floats(0.0, 6 * epoch_seconds),
            st.builds(
                near_boundary, st.integers(0, 6),
                st.sampled_from([0.0, 1e-9, -1e-9, 5e-324]),
            ),
        ),
        max_size=60,
    ))
    times.sort()
    n = len(times)
    cadence = st.one_of(st.none(), st.integers(1, 25))
    return (
        np.array(times, dtype=np.float64),
        epoch_seconds,
        draw(st.integers(0, 10_000)),  # base: the chunk's first trace row
        draw(st.integers(0, n)),  # start: the resume cursor, in the chunk
        draw(cadence),
        draw(cadence),
        draw(st.sets(st.integers(0, n), max_size=4)),
    )


@settings(max_examples=400, deadline=None)
@given(chunks())
def test_stops_are_the_per_row_reference(chunk):
    issue, epoch_seconds, base, start, checkpoint_every, progress_every, extra = chunk
    n = len(issue)
    epochs, stops, ticks = chunk_stops(
        issue, epoch_seconds, base, start, checkpoint_every, progress_every,
        extra,
    )

    per_row = [int(time // epoch_seconds) for time in issue.tolist()]
    assert epochs.tolist() == per_row
    expected = {start, n} | {row for row in extra if row >= start}
    progress = set()
    # Chunk row i is a stop after trace row base + i - 1 is done.
    for i in range(start + 1, n + 1):
        row = base + i - 1
        if i < n and per_row[i] != per_row[i - 1]:
            expected.add(i)
        if checkpoint_every is not None and (row + 1) % checkpoint_every == 0:
            expected.add(i)
        if progress_every is not None and (row + 1) % progress_every == 0:
            progress.add(i)
    assert stops == sorted(expected | progress)
    assert ticks == progress - expected
