"""The clocked IMCT against a per-slot oracle, over random scripts.

The table keeps one clock and expires a subwindow's column for every
slot when the clock passes it; the paper's scheme keeps a stamp per
counter group and expires lazily (:class:`SubwindowCounter`).  Over
random interleavings of scalar and batched recordings, reads ahead of
the clock, slot resets, pickle round trips, collision tracking switched
on midway, subwindow gaps from 0 to ``2k + 1`` and more than 255
recordings on one slot in one subwindow, every slot's live total, every
return value, ``recorded_misses``, ``alias_collisions`` and the shadow
addresses must match a model built from one ``SubwindowCounter`` per
slot and a per-slot last-address list — and a table pickled and
reloaded along the way must stay byte for byte the table never pickled.
"""

import pickle

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import ImpreciseMissCountTable, SubwindowCounter, WindowSpec
from repro.core.windows import COUNTER_SATURATION


@st.composite
def scripts(draw):
    """A table shape and a list of operations on it."""
    slots = draw(st.sampled_from([1, 2, 3, 7, 16]))
    k = draw(st.integers(1, 5))
    addresses = st.integers(0, 40)
    # How often an address records in a row, up to past the ceiling.
    repeats = st.sampled_from([1, 1, 2, 5, COUNTER_SATURATION + 10])
    operation = st.one_of(
        st.tuples(st.just("advance"), st.integers(0, 2 * k + 1)),
        # Scalar recordings, by record_miss or by record.
        st.tuples(st.just("record"), addresses, repeats, st.booleans()),
        # A batch, and whether its addresses go with it (always once
        # collision tracking is on).
        st.tuples(
            st.just("batch"),
            st.lists(st.tuples(addresses, repeats), max_size=6),
            st.booleans(),
        ),
        st.tuples(st.just("reset"), addresses),
        st.tuples(st.just("read"), addresses),
        st.tuples(st.just("pickle")),
        st.tuples(st.just("track")),
    )
    return slots, k, draw(st.lists(operation, max_size=40))


class Model:
    """The lazy, per-slot reference: one counter and one last address
    per slot, and the table's two telemetry counters."""

    def __init__(self, slots, k):
        self.counters = [SubwindowCounter(k) for _ in range(slots)]
        self.recorded = 0
        self.collisions = 0
        self.shadow = None

    def record(self, slot, subwindow, address):
        self.recorded += 1
        if self.shadow is not None:
            if self.shadow[slot] >= 0 and self.shadow[slot] != address:
                self.collisions += 1
            self.shadow[slot] = address
        return self.counters[slot].record(subwindow)


def check(table, model, subwindow):
    every = np.arange(table.slots)
    assert table.live_totals(every, subwindow).tolist() == [
        counter.total(subwindow) for counter in model.counters
    ]
    assert table.recorded_misses == model.recorded
    assert table.alias_collisions == model.collisions
    shadow = table._last_address
    assert (None if shadow is None else shadow.tolist()) == model.shadow


@settings(max_examples=400, deadline=None)
@given(scripts())
def test_clocked_table_matches_per_slot_counters(script):
    slots, k, operations = script
    # 10-second subwindows: subwindow g spans [10 g, 10 g + 10).
    table = ImpreciseMissCountTable(slots, WindowSpec(10.0 * k, k))
    # The same script on a table never pickled: the reloaded one must
    # record exactly like it (its live-column offset is rebuilt on load).
    twin = ImpreciseMissCountTable(slots, WindowSpec(10.0 * k, k))
    model = Model(slots, k)
    subwindow = 0
    for operation in operations:
        kind = operation[0]
        time = 10.0 * subwindow + 1.0
        tables = (table, twin)
        if kind == "advance":
            subwindow += operation[1]
        elif kind == "record":
            _, address, times, scalar = operation
            slot = table.slot_of(address)
            for _ in range(times):
                got = [
                    t.record(slot, subwindow, address) if scalar
                    else t.record_miss(address, time)
                    for t in tables
                ]
                assert got == [model.record(slot, subwindow, address)] * 2
        elif kind == "batch":
            _, groups, with_addresses = operation
            recorded = np.array(
                [a for a, times in groups for _ in range(times)], dtype=np.int64
            )
            slot_of = np.array([table.slot_of(a) for a in recorded.tolist()],
                               dtype=np.int64)
            # Grouped by slot, each group in recording order.
            order = np.argsort(slot_of, kind="stable")
            recorded, slot_of = recorded[order], slot_of[order]
            for t in tables:
                if with_addresses or model.shadow is not None:
                    t.record_batch(slot_of, subwindow, recorded)
                else:
                    t.record_batch(slot_of, subwindow)
            for slot, address in zip(slot_of.tolist(), recorded.tolist()):
                model.record(slot, subwindow, address)
        elif kind == "reset":
            address = operation[1]
            for t in tables:
                t.reset_slot(address)
            model.counters[table.slot_of(address)].reset()
        elif kind == "read":
            address = operation[1]
            assert [t.count(address, time) for t in tables] == [
                model.counters[table.slot_of(address)].total(subwindow)
            ] * 2
        elif kind == "pickle":
            table = pickle.loads(pickle.dumps(table))
        elif model.shadow is None:  # "track"
            for t in tables:
                t.enable_collision_tracking()
            model.shadow = [-1] * slots
        check(table, model, subwindow)
        assert pickle.dumps(table) == pickle.dumps(twin)
        assert table._column == twin._column
