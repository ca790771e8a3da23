"""Unit tests for the array-native IMCT and the sieve kernel over it.

Every vectorized primitive is checked bit-for-bit against its scalar
oracle: ``mix64_array`` against ``mix64``, ``bucket_array`` against
``stable_bucket``, ``subwindow_indices`` against
``WindowSpec.subwindow_index`` (including float boundary adversaries),
the table's scalar and batched recording against sequential
``SubwindowCounter.record`` calls, the kernel's classify + flush
(with resident and tracked blocks, partial flushes and collision
tracking) against sequential ``record_miss`` calls, and its per-block
classes (hit / cold rejection / event, and the eviction rewrites)
against the reference ladder over a twin cache and MCT, block by
block.  Engine-level equivalence lives in
``tests/sim/test_sieve_equivalence.py``.
"""

import pickle
import sys
from array import array
from collections import OrderedDict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AdaptiveSieveStoreC,
    ImpreciseMissCountTable,
    SieveStoreC,
    SieveStoreCConfig,
    SubwindowCounter,
    WindowSpec,
)
from repro.core import sieve_kernel
from repro.core.sieve_kernel import (
    SieveStoreCKernel,
    bucket_array,
    mix64_array,
    subwindow_indices,
)
from repro.core.windows import COUNTER_SATURATION
from repro.util.hashing import mix64, stable_bucket


class TestVectorizedHashing:
    def test_mix64_array_matches_scalar(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 2**64, size=4096, dtype=np.uint64)
        values[:4] = (0, 1, 2**63, 2**64 - 1)
        mixed = mix64_array(values)
        for value, got in zip(values.tolist(), mixed.tolist()):
            assert got == mix64(value)

    def test_mix64_array_does_not_mutate_input(self):
        values = np.arange(16, dtype=np.uint64)
        mix64_array(values)
        assert values.tolist() == list(range(16))

    def test_bucket_array_matches_stable_bucket(self):
        rng = np.random.default_rng(11)
        addresses = rng.integers(0, 2**40, size=2048, dtype=np.int64)
        salt = 0x13C7
        for buckets in (1, 2, 257, 1 << 16):
            slots = bucket_array(addresses, buckets, mix64(salt))
            assert slots.dtype == np.int64
            for address, slot in zip(addresses.tolist(), slots.tolist()):
                assert slot == stable_bucket(address, buckets, salt=salt)

    def test_bucket_array_rejects_nonpositive_buckets(self):
        with pytest.raises(ValueError, match="buckets must be positive"):
            bucket_array(np.arange(4, dtype=np.int64), 0, 1)


class TestSubwindowIndices:
    def test_matches_windowspec_on_boundary_adversaries(self):
        spec = WindowSpec(window_seconds=8 * 3600.0, subwindows=4)
        sw = spec.subwindow_seconds
        # Exact boundaries plus the representable floats straddling them
        # — the one-ulp regime where numpy.floor_divide can disagree
        # with Python's ``//``.
        boundaries = [j * sw for j in range(0, 64, 7)]
        adversaries = []
        for b in boundaries:
            adversaries.append(b)
            adversaries.append(np.nextafter(b, np.inf))
            if b > 0:
                adversaries.append(np.nextafter(b, 0.0))
        rng = np.random.default_rng(3)
        adversaries.extend((rng.random(256) * 40 * sw).tolist())
        times = np.array(adversaries, dtype=np.float64)
        got = subwindow_indices(times, sw)
        for t, index in zip(times.tolist(), got.tolist()):
            assert index == spec.subwindow_index(t)


def sequential_oracle(slots, subwindows):
    return [SubwindowCounter(subwindows) for _ in range(slots)]


def oracle_state(counters, clock):
    """The oracle's live counts as a table clocked at ``clock`` holds
    them: per slot the cell of each residue's subwindow in
    ``(clock - k, clock]`` — live iff the counter's last recording is
    no older — the cells' sum, and the clock."""
    rows = []
    for counter in counters:
        k = len(counter._counts)
        live = [clock - (clock - residue) % k for residue in range(k)]
        rows.append([
            counter._counts[residue] if counter._last_subwindow >= g else 0
            for residue, g in enumerate(live)
        ])
    return rows, [sum(row) for row in rows], clock


def table_state(table):
    """The table's buffers and clock in ``oracle_state`` form."""
    return table.cells().T.tolist(), table.totals.tolist(), table.clock


def make_table(slots, subwindows=4):
    # 10-second subwindows: subwindow g spans [10 g, 10 g + 10).
    return ImpreciseMissCountTable(
        slots=slots, window=WindowSpec(10.0 * subwindows, subwindows)
    )


class TestArrayIMCT:
    def test_rejects_nonpositive_shape(self):
        with pytest.raises(ValueError, match="slots must be positive"):
            ImpreciseMissCountTable(slots=0, window=WindowSpec())
        with pytest.raises(ValueError, match="subwindows must be positive"):
            ImpreciseMissCountTable(slots=4, window=WindowSpec(80.0, 0))

    def test_state_is_two_flat_buffers(self):
        # slots * (k + 2) bytes and not one object per slot: what lets
        # the paper's 1.3e9-slot table exist at all.
        slots, k = 1 << 20, 4
        before = sys.getallocatedblocks()
        table = make_table(slots, k)
        assert sys.getallocatedblocks() - before < 64
        assert isinstance(table.counts, bytearray)
        assert isinstance(table.totals, array)
        held = len(table.counts) + table.totals.itemsize * len(table.totals)
        assert held == slots * (k + 2) == table.memory_bytes_estimate()
        # The numpy faces are views of the same memory, not copies.
        table.cells()[1, 5] = 7
        table.total_counts()[5] = 3
        assert table.counts[1 * slots + 5] == 7 and table.totals[5] == 3

    def test_totals_hold_k_saturated_cells(self):
        # Two bytes a slot up to k = 257 (257 * 255 < 2**16), four past.
        for k, itemsize in ((1, 2), (257, 2), (258, 4)):
            table = make_table(3, k)
            assert table.totals.itemsize == itemsize
            for subwindow in range(k):
                for _ in range(COUNTER_SATURATION + 1):
                    table.record(2, subwindow, 2)
            assert table.live_totals(np.arange(3), k - 1).tolist() == (
                [0, 0, k * COUNTER_SATURATION]
            )

    def test_scalar_methods_match_subwindow_counter(self):
        table = make_table(5)
        oracle = sequential_oracle(5, 4)
        rng = np.random.default_rng(19)
        subwindow, clock = 0, -1
        for step in range(600):
            subwindow += int(rng.choice([0, 0, 0, 1, 2, 3, 4, 7]))
            address = int(rng.integers(0, 200))
            slot = table.slot_of(address)
            time = 10.0 * subwindow + 1.0
            assert table.count(address, time) == oracle[slot].total(subwindow)
            if step % 97 == 96:
                table.reset_slot(address)
                oracle[slot].reset()
            else:
                assert table.record_miss(address, time) == (
                    oracle[slot].record(subwindow)
                )
                clock = subwindow
            assert table_state(table) == oracle_state(oracle, clock)
        with pytest.raises(ValueError, match="time moved backwards"):
            table.record_miss(address, 10.0 * subwindow - 15.0)

    def test_slots_of_matches_table_hash(self):
        table = ImpreciseMissCountTable(slots=257, window=WindowSpec())
        addresses = np.arange(0, 5000, 13, dtype=np.int64)
        slots = bucket_array(addresses, table.slots, table._salted)
        for address, slot in zip(addresses.tolist(), slots.tolist()):
            assert slot == table.slot_of(address)

    @pytest.mark.parametrize(
        "gaps",
        [
            # Every advancement regime: same subwindow, partial expiry
            # (gap < k), exact-k and beyond-k full expiry.
            [0, 0, 1, 0, 2, 3, 0, 4, 5, 0, 1, 9],
        ],
    )
    def test_record_batch_matches_sequential_record(self, gaps):
        slots, k = 17, 4
        table = make_table(slots, k)
        oracle = sequential_oracle(slots, k)
        rng = np.random.default_rng(13)
        every_slot = np.arange(slots, dtype=np.int64)
        subwindow = recorded = 0
        for gap in gaps:
            subwindow += gap
            assert table.live_totals(every_slot, subwindow).tolist() == [
                counter.total(subwindow) for counter in oracle
            ]
            batch = rng.integers(0, slots, size=int(rng.integers(1, 60)))
            table.record_batch(batch, subwindow)  # in any order
            for slot in batch.tolist():
                oracle[slot].record(subwindow)
            recorded += batch.size
            assert table_state(table) == oracle_state(oracle, subwindow)
        # recorded_misses counts every entry of every batch.
        assert table.recorded_misses == recorded
        # A subwindow behind the table's clock is refused, as by
        # record_miss, and leaves the table as it was.
        behind = subwindow - 1
        with pytest.raises(ValueError, match="time moved backwards"):
            table.live_totals(every_slot, behind)
        with pytest.raises(ValueError, match="time moved backwards"):
            table.record_batch(every_slot, behind)
        assert table_state(table) == oracle_state(oracle, subwindow)
        assert table.recorded_misses == recorded

    def test_record_batch_repeated_slot_ordinals(self):
        # One slot hit many times in a single batch lands where as many
        # sequential records would.
        table = make_table(3)
        oracle = sequential_oracle(3, 4)
        batch = np.array([1] * 7 + [0, 1, 2, 1], dtype=np.int64)
        table.record_batch(batch, 5)
        for slot in batch.tolist():
            oracle[slot].record(5)
        assert table_state(table) == oracle_state(oracle, 5)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_unsorted_batches_match_sorted_and_sequential(self, data):
        # A batch in any order leaves the bytes the same batch grouped
        # by slot (each slot's recordings in order) leaves, and one
        # record call per entry — collision telemetry included.
        slots = data.draw(st.integers(1, 6))
        tables = unsorted, grouped, sequential = [make_table(slots) for _ in "abc"]
        if data.draw(st.booleans()):
            for table in tables:
                table.enable_collision_tracking()
        subwindow = 0
        for _ in range(data.draw(st.integers(1, 5))):
            subwindow += data.draw(st.integers(0, 5))
            addresses = np.array(
                data.draw(st.lists(st.integers(0, 20), max_size=30)),
                dtype=np.int64,
            )
            batch = bucket_array(addresses, slots, unsorted._salted)
            unsorted.record_batch(batch, subwindow, addresses)
            order = np.argsort(batch, kind="stable")
            grouped.record_batch(batch[order], subwindow, addresses[order])
            for slot, address in zip(batch.tolist(), addresses.tolist()):
                sequential.record(slot, subwindow, address)
        assert sieve_state(unsorted) == sieve_state(grouped)
        assert pickle.dumps(unsorted) == pickle.dumps(sequential)

    def test_record_batch_empty(self):
        table = make_table(4)
        table.record_batch(np.zeros(0, dtype=np.int64), 9)
        assert table.recorded_misses == 0
        assert table.clock == -1 and table.totals.tolist() == [0] * 4

    def test_row_totals_equal_stored_sums(self):
        # Advancing the clock zeroes expired columns, so as of the clock
        # a slot's live total is its stored total and its row sum.
        table = make_table(5)
        rng = np.random.default_rng(17)
        for subwindow in (0, 1, 4, 5):
            table.record_batch(rng.integers(0, 5, size=20), subwindow)
        rows, totals, clock = table_state(table)
        assert clock == 5
        live = table.live_totals(np.arange(5), clock).tolist()
        assert live == totals == [sum(row) for row in rows]


class PlainSubclass(SieveStoreC):
    pass


class TestKernelDispatch:
    def test_subclasses_inherit_the_kernel_unless_they_opt_out(self):
        assert SieveStoreC().kernel_drives_ladder()
        assert PlainSubclass().kernel_drives_ladder()
        SieveStoreCKernel(PlainSubclass())
        assert not AdaptiveSieveStoreC().kernel_drives_ladder()

    def test_kernel_rejects_subclass(self):
        with pytest.raises(TypeError, match="got AdaptiveSieveStoreC with t1=9"):
            SieveStoreCKernel(AdaptiveSieveStoreC())

    def test_t1_past_the_counter_ceiling_is_refused(self):
        # Up to t1 = 256 a cold slot's cell stays at most 255, so the
        # flush's scatter-adds never need the clamp; past it they would.
        ceiling = SieveStoreC(SieveStoreCConfig(t1=COUNTER_SATURATION + 1))
        assert ceiling.kernel_drives_ladder()
        SieveStoreCKernel(ceiling)
        past = SieveStoreC(SieveStoreCConfig(t1=COUNTER_SATURATION + 2))
        assert not past.kernel_drives_ladder()
        with pytest.raises(TypeError, match="t1 <= 256, got SieveStoreC with t1=257"):
            SieveStoreCKernel(past)


def sieve_state(table):
    """Everything a recording can change, byte for byte."""
    tracked = table._last_address
    return (
        bytes(table.counts),
        table.totals.tobytes(),
        table.clock,
        None if tracked is None else tracked.tobytes(),
        table.alias_collisions,
        table.recorded_misses,
    )


@pytest.fixture
def batch_every_run(monkeypatch):
    """Classify even the few-block runs these tests are made of."""
    monkeypatch.setattr(sieve_kernel, "_BATCH_MIN_BLOCKS", 0)


@pytest.mark.usefixtures("batch_every_run")
class TestSieveStoreCKernel:
    def test_precompute_chunk_expands_blocks(self):
        # t1 = 1 makes every touched slot hot, and nothing is resident,
        # so every block is an event.
        policy = SieveStoreC(SieveStoreCConfig(imct_slots=64, t1=1))
        kernel = SieveStoreCKernel(policy)
        addresses = np.array([10, 900, 7], dtype=np.int64)
        block_counts = np.array([1, 3, 2], dtype=np.int64)
        issue_times = np.array([0.0, 3600.0, 6.5 * 3600.0])
        # Two-hour subwindows: the first two requests share one.
        assert kernel.precompute_chunk(addresses, block_counts, issue_times) == 2
        runs, events = [], []
        for _ in range(2):
            n_requests, starts, hits = kernel.begin_run()
            runs.append((n_requests, starts.tolist(), hits.tolist()))
            events.append(kernel.events())
        # Per request the position of its first block (plus the end),
        # and no hits.
        assert runs == [(2, [0, 1, 4], [0, 0]), (1, [0, 2], [0])]
        # Per event its position, address, slot, subwindow and request.
        slot_of = policy.imct.slot_of
        assert events == [
            [(0, 10, slot_of(10), 0, 0)]
            + [(p, b, slot_of(b), 0, 1) for p, b in ((1, 900), (2, 901), (3, 902))],
            [(0, 7, slot_of(7), 3, 0), (1, 8, slot_of(8), 3, 0)],
        ]

    def test_cold_bound_is_head_total_plus_run_blocks(self):
        one = np.ones(1, dtype=np.int64)

        def events_of(blocks, time):
            # Six live recordings in the one slot, nothing resident or
            # tracked: the request is all events exactly when its slot is
            # hot, and all cold rejections — which only the flush
            # records — otherwise.
            policy = SieveStoreC(SieveStoreCConfig(imct_slots=1, t1=9))
            for _ in range(6):
                policy.imct.record_miss(0, 0.0)
            kernel = SieveStoreCKernel(policy)
            kernel.precompute_chunk(one, blocks * one, np.array([time]))
            assert kernel.begin_run()[2].tolist() == [0]
            events = [event[0] for event in kernel.events()]
            kernel.sync()
            rejected = policy.imct.recorded_misses - 6
            assert rejected == policy.imct_rejections
            assert sorted(events) == events
            assert (len(events), rejected) in ((blocks, 0), (0, blocks))
            return len(events)

        # 6 live + 2 blocks < 9: no recording can reach t1; 6 + 3 could.
        assert events_of(2, 0.0) == 0
        assert events_of(3, 0.0) == 3
        # The six stay live through subwindow 3 of the four-subwindow
        # window (two hours each) and are gone by subwindow 4.
        assert events_of(3, 3 * 7200.0) == 3
        assert events_of(3, 4 * 7200.0) == 0

    def test_sync_writes_flat_state_back(self):
        # Cold-slot recordings are deferred: the policy's table moves
        # only at a flush, then holds what sequential recording leaves.
        policy = SieveStoreC(SieveStoreCConfig(imct_slots=8))
        twin = SieveStoreC(SieveStoreCConfig(imct_slots=8))
        for address in range(40):
            for table in (policy.imct, twin.imct):
                table.record_miss(address, float(address) * 600.0)
        kernel = SieveStoreCKernel(policy)
        kernel.sync()  # nothing pending: table must be unchanged
        assert sieve_state(policy.imct) == sieve_state(twin.imct)
        addresses = np.array([3, 50, 51], dtype=np.int64)
        time = 40 * 3600.0
        kernel.precompute_chunk(addresses, np.ones(3, dtype=np.int64),
                                np.full(3, time))
        assert kernel.begin_run()[2].tolist() == [0, 0, 0]
        assert kernel.events() == []  # all cold rejections, nothing to walk
        assert sieve_state(policy.imct) == sieve_state(twin.imct)
        kernel.sync()
        for address in addresses.tolist():
            twin.imct.record_miss(address, time)
        assert sieve_state(policy.imct) == sieve_state(twin.imct)
        kernel.sync()  # idempotent
        assert policy.imct.recorded_misses == 43

    def test_cold_run_fills_a_cell_to_the_ceiling(self):
        # At t1 = 256, the largest the kernel takes, 250 live + 5 blocks
        # is cold, and the flush's scatter-add lands the cell on 255:
        # the ceiling, which the sequential clamp lets it reach.
        config = SieveStoreCConfig(imct_slots=1, t1=COUNTER_SATURATION + 1)
        policy, twin = SieveStoreC(config), SieveStoreC(config)
        for table in (policy.imct, twin.imct):
            for _ in range(250):
                table.record(0, 0, 0)
        kernel = SieveStoreCKernel(policy)
        one = np.ones(1, dtype=np.int64)
        kernel.precompute_chunk(one, 5 * one, one.astype(float))
        kernel.begin_run()
        assert kernel.events() == []
        kernel.sync()
        for address in range(1, 6):
            twin.imct.record_miss(address, 1.0)
        assert sieve_state(policy.imct) == sieve_state(twin.imct)
        assert int(policy.imct.cells().max()) == COUNTER_SATURATION

    def test_table_pickles_as_if_recorded_one_miss_at_a_time(self):
        # The run tally is the kernel's own: a table the kernel recorded
        # into pickles to the bytes of one fed the same misses by
        # record_miss, whatever the kernel holds.
        config = SieveStoreCConfig(imct_slots=4096)
        policy, twin = SieveStoreC(config), SieveStoreC(config)
        rng = np.random.default_rng(5)
        addresses = rng.integers(0, 300, size=400)
        times = np.sort(rng.random(400)) * 20 * 3600.0
        kernel = SieveStoreCKernel(policy)
        for _ in range(kernel.precompute_chunk(
            addresses, np.ones(400, dtype=np.int64), times
        )):
            kernel.begin_run()
            assert kernel.events() == []  # 400 misses over 4096 slots: all cold
        kernel.sync()
        for address, time in zip(addresses.tolist(), times.tolist()):
            twin.imct.record_miss(address, time)
        assert pickle.dumps(policy.imct) == pickle.dumps(twin.imct)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 63), min_size=1, max_size=60),
                min_size=1, max_size=3))
def test_run_tally_is_a_bincount_and_ends_zero(runs):
    # Each run starts from the zeros the one before left.
    kernel = SieveStoreCKernel(SieveStoreC(SieveStoreCConfig(imct_slots=64)))
    for run in runs:
        slots = np.array(run, dtype=np.int64)
        assert sieve_kernel._run_sizes(kernel._tally, slots).tolist() == (
            np.bincount(slots)[slots].tolist()
        )
        assert not kernel._tally.any()


def test_short_runs_fuse_into_all_hot_stretches(monkeypatch):
    # Runs of 2, 1, 4, 1, 1 blocks with batching worth it from 3 blocks:
    # the 4-block run is classified, its short neighbours are all
    # events, adjacent ones as one stretch with each request's own
    # subwindow on its events.
    monkeypatch.setattr(sieve_kernel, "_BATCH_MIN_BLOCKS", 3)
    policy = SieveStoreC(SieveStoreCConfig(imct_slots=64))
    kernel = SieveStoreCKernel(policy)
    block_counts = np.array([2, 1, 4, 1, 1], dtype=np.int64)
    subwindows = [0, 1, 2, 3, 5]
    assert kernel.precompute_chunk(
        np.arange(0, 500, 100, dtype=np.int64),
        block_counts,
        np.array([7200.0 * sub for sub in subwindows]),
    ) == 3
    runs = []
    for _ in range(3):
        runs.append(kernel.begin_run()[0])
        runs.append(kernel.events())
    slot_of = policy.imct.slot_of
    assert runs == [
        2, [(0, 0, slot_of(0), 0, 0), (1, 1, slot_of(1), 0, 0),
            (2, 100, slot_of(100), 1, 1)],
        1, [],  # the classified run: four cold rejections
        2, [(0, 300, slot_of(300), 3, 0), (1, 400, slot_of(400), 5, 1)],
    ]
    kernel.sync()
    assert policy.imct.recorded_misses == 4  # the classified run's only


@st.composite
def kernel_scripts(draw):
    """A table shape, a pre-loaded state, the run length below which
    runs go all-hot, resident and MCT-tracked addresses, and a window of
    requests with per-request partial-flush marks."""
    slots = draw(st.integers(1, 8))
    k = draw(st.integers(1, 5))
    # Small thresholds mix hot and cold slots; the largest the kernel
    # takes keeps slots cold up to the saturation ceiling.
    t1 = draw(st.sampled_from([1, 2, 3, 5, 9, COUNTER_SATURATION + 1]))
    tracking = draw(st.booleans())
    # 0 batches every run, 1000 none; between, short runs fuse into
    # all-hot stretches beside batched long ones.
    min_blocks = draw(st.sampled_from([0, 0, 4, 8, 1000]))
    # Recordings before the window: (subwindow, slot, misses), up to
    # past the saturation ceiling (a saturated slot is hot).
    preload = sorted(draw(st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, slots - 1),
                  st.integers(1, COUNTER_SATURATION + 20)),
        max_size=4,
    )))
    addresses = st.integers(0, 35)
    resident = draw(st.lists(addresses, unique=True, max_size=8))
    tracked = draw(st.lists(addresses, unique=True, max_size=4))
    requests = []
    subwindow = 6
    for _ in range(draw(st.integers(1, 12))):
        subwindow += draw(st.sampled_from([0, 0, 0, 1, 1, 2, k - 1, k, k + 2]))
        requests.append((
            draw(st.integers(0, 30)),
            draw(st.integers(1, 6)),
            subwindow,
            draw(st.booleans()),
        ))
    return (slots, k, t1, tracking, min_blocks, preload, resident, tracked,
            requests)


class TestClassifyFlushProperty:
    """Classify + deferred flush + scalar ladder == sequential recording."""

    @settings(max_examples=300, deadline=None)
    @given(kernel_scripts())
    def test_matches_sequential_record_miss(self, script):
        (slots, k, t1, tracking, min_blocks, preload, resident, tracked,
         requests) = script
        window = WindowSpec(10.0 * k, k)
        config = SieveStoreCConfig(imct_slots=slots, t1=t1, window=window)
        policy, reference = SieveStoreC(config), SieveStoreC(config)
        table, oracle = policy.imct, reference.imct
        for subwindow, slot, misses in preload:
            for each in (table, oracle):
                for _ in range(misses):
                    each.record(slot, subwindow, slot)
        if tracking:
            table.enable_collision_tracking()
            oracle.enable_collision_tracking()
        for address in tracked:
            policy.mct.track(address)
        kernel = SieveStoreCKernel(policy, set(resident))
        with mock.patch.object(sieve_kernel, "_BATCH_MIN_BLOCKS", min_blocks):
            runs = kernel.precompute_chunk(
                np.array([r[0] for r in requests], dtype=np.int64),
                np.array([r[1] for r in requests], dtype=np.int32),
                np.array([10.0 * r[2] + 1.0 for r in requests]),
            )
        pending = iter(requests)
        for _ in range(runs):
            n_requests, starts, hits = kernel.begin_run()
            events = {event[0]: event for event in kernel.events()}
            mine = [next(pending) for _ in range(n_requests)]
            # Only a stretch of fused short runs spans subwindows, and
            # it defers nothing: every block not resident is an event.
            if len({sub for _, _, sub, _ in mine}) > 1:
                assert len(events) == starts[-1] - hits.sum()
            for r, (address, blocks, sub, flush_after) in enumerate(mine):
                assert starts[r + 1] - starts[r] == blocks
                blocks_of = range(address, address + blocks)
                assert hits[r] == sum(a in resident for a in blocks_of)
                time = 10.0 * sub + 1.0
                for position, a in enumerate(blocks_of, starts[r]):
                    # Exactly one class per block: a hit, an event, or a
                    # cold rejection.
                    if a in resident:  # a hit: never recorded
                        assert position not in events
                    elif position in events:
                        _, address_, slot, sub_, request = events[position]
                        assert (address_, sub_, request) == (a, sub, r)
                        if a in tracked:  # tier 2: not an IMCT recording
                            assert slot in (-1, table.slot_of(a))
                            continue
                        assert slot == table.slot_of(a)
                        assert table.record_miss(a, time) == (
                            oracle.record_miss(a, time)
                        )
                    else:
                        # The cold bound: deferral is only sound if no
                        # recording here could have reached t1.
                        assert a not in tracked
                        assert oracle.record_miss(a, time) < t1
                if flush_after:
                    kernel.flush(int(starts[r + 1]))
        assert next(pending, None) is None
        kernel.sync()
        assert sieve_state(table) == sieve_state(oracle)


@st.composite
def event_scripts(draw):
    """A sieve small enough that hot slots and MCT members are the
    common case, a cache small enough to evict, a cache and an MCT to
    start from, and requests whose subwindow jumps expire MCT entries."""
    # Few slots make hot ones; many, cold ones under resident blocks.
    slots = draw(st.sampled_from([1, 2, 3, 5, 8, 32]))
    k = draw(st.integers(1, 4))
    t1 = draw(st.sampled_from([1, 2, 3, 5, 9]))
    t2 = draw(st.integers(0, 2))
    single_tier = draw(st.booleans())
    capacity = draw(st.integers(1, 6))
    min_blocks = draw(st.sampled_from([0, 0, 0, 6]))
    addresses = st.integers(0, 16)
    resident = draw(st.lists(addresses, unique=True, max_size=capacity))
    tracked = draw(st.lists(addresses, unique=True, max_size=6))
    requests = []
    subwindow = 0
    for _ in range(draw(st.integers(1, 14))):
        subwindow += draw(st.sampled_from([0, 0, 0, 0, 0, 1, 1, k, k + 2]))
        requests.append(
            (draw(addresses), draw(st.integers(1, 5)), subwindow)
        )
    return (slots, k, t1, t2, single_tier, capacity, min_blocks,
            resident, tracked, requests)


def mct_state(mct):
    return (
        {a: (c._counts, c._last_subwindow) for a, c in mct._counters.items()},
        mct.inserts, mct.evictions, mct.peak_entries, mct._last_prune,
    )


class TestEventProperty:
    """Every block of a run is exactly one of hit / cold rejection /
    event at the run's head, and only an eviction rewrites a hit; a
    block that is not an event never reaches the ladder — whatever
    promotions, admissions, evictions and prunes the run makes."""

    @settings(max_examples=400, deadline=None)
    @given(event_scripts())
    def test_non_events_never_reach_the_ladder(self, script):
        (slots, k, t1, t2, single_tier, capacity, min_blocks, resident,
         tracked, requests) = script
        config = SieveStoreCConfig(
            imct_slots=slots, t1=t1, t2=t2, window=WindowSpec(10.0 * k, k),
            single_tier_admission=single_tier,
        )
        policy, twin = SieveStoreC(config), SieveStoreC(config)
        for each in (policy, twin):
            each.mct.prune_interval = 15.0  # a sweep every other subwindow
            for address in tracked:
                each.mct.track(address)
        od = OrderedDict.fromkeys(resident)
        with mock.patch.object(sieve_kernel, "_BATCH_MIN_BLOCKS", min_blocks):
            kernel = SieveStoreCKernel(policy, od)
            self.walk(kernel, od, twin, OrderedDict(od), capacity, requests)

    @staticmethod
    def walk(kernel, od, twin, twin_od, capacity, requests):
        """The fast engine's sieve loop over a model cache, beside the
        reference ladder over a twin, checking every block at its turn
        and the whole state at every run's end."""
        policy = kernel.policy

        def install(cache, address):
            evicted = None
            if len(cache) >= capacity:
                evicted = cache.popitem(last=False)[0]
            cache[address] = None
            return evicted

        runs = kernel.precompute_chunk(
            np.array([r[0] for r in requests], dtype=np.int64),
            np.array([r[1] for r in requests], dtype=np.int32),
            np.array([10.0 * r[2] + 1.0 for r in requests]),
        )
        pending = iter(requests)
        for _ in range(runs):
            n_requests, starts, hits = kernel.begin_run()
            hits = hits.tolist()
            events, walked = kernel.events(), 0
            for r in range(n_requests):
                address, blocks, sub = next(pending)
                time = 10.0 * sub + 1.0
                twin_hits = 0
                for at, a in enumerate(range(address, address + blocks),
                                       int(starts[r])):
                    # The reference: one ladder call per miss.
                    resident, member = a in twin_od, a in twin.mct
                    rejections = twin.imct_rejections
                    if resident:
                        twin_od.move_to_end(a)
                        twin_hits += 1
                    elif twin.wants_hashed(a, twin.imct.slot_of(a), sub, time):
                        install(twin_od, a)
                    # The kernel's class of the block at its turn.
                    if kernel._hit[at]:
                        assert resident
                        continue
                    if kernel._rejected[at]:
                        assert not resident and not member
                        assert twin.imct_rejections == rejections + 1
                        continue
                    assert kernel._event[at]
                    position, a_, slot, sub_, request = events[walked]
                    walked += 1
                    assert (position, a_, sub_, request) == (at, a, sub, r)
                    if a in od:
                        for b in kernel.recency(at):
                            od.move_to_end(b)
                        od.move_to_end(a)
                        hits[r] += 1
                        continue
                    if a in policy.mct:
                        admit = policy.tier2(a, time)
                    elif slot < 0:
                        kernel.reject(at)
                        admit = False
                    else:
                        assert slot == policy.imct.slot_of(a)
                        admit = policy.tier1(a, slot, sub)
                    if admit:
                        for b in kernel.recency(at):
                            od.move_to_end(b)
                        if len(od) >= capacity:
                            lost = kernel.evict(od.popitem(last=False)[0], at)
                            for request in lost.tolist():
                                hits[request] -= 1
                            if lost.size:
                                events, walked = kernel.events(at), 0
                        od[a] = None
                assert hits[r] == twin_hits
            assert walked == len(events)
            for b in kernel.recency(int(starts[-1])):
                od.move_to_end(b)
            kernel.sync()
            assert list(od) == list(twin_od)
            assert sieve_state(policy.imct) == sieve_state(twin.imct)
            assert mct_state(policy.mct) == mct_state(twin.mct)
            for counter in ("admissions", "imct_rejections", "promotions",
                            "mct_rejections"):
                assert getattr(policy, counter) == getattr(twin, counter)
        assert next(pending, None) is None
