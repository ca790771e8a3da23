"""Unit tests for the array-native IMCT and the sieve kernel over it.

Every vectorized primitive is checked bit-for-bit against its scalar
oracle: ``mix64_array`` against ``mix64``, ``bucket_array`` against
``stable_bucket``, ``subwindow_indices`` against
``WindowSpec.subwindow_index`` (including float boundary adversaries),
the table's scalar and batched recording against sequential
``SubwindowCounter.record`` calls, the kernel's classify + flush
(with skipped blocks, partial flushes and collision tracking) against
sequential ``record_miss`` calls, and its visit list (cold/hot plus the
per-slot occupancy count) against a model cache and MCT walked request
by request.  Engine-level equivalence lives in
``tests/sim/test_sieve_equivalence.py``.
"""

import sys
from array import array
from collections import Counter, OrderedDict
from itertools import chain
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
    supports,
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


def oracle_state(counters):
    return (
        [list(c._counts) for c in counters],
        [c._last_subwindow for c in counters],
    )


def table_state(table):
    """The table's buffers in ``oracle_state`` form (per-slot rows)."""
    return table.cells().T.tolist(), table.last.tolist()


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
        # slots * (k + 8) bytes and not one object per slot: what lets
        # the paper's 1.3e9-slot table exist at all.
        slots, k = 1 << 20, 4
        before = sys.getallocatedblocks()
        table = make_table(slots, k)
        assert sys.getallocatedblocks() - before < 64
        assert isinstance(table.counts, bytearray)
        assert isinstance(table.last, array)
        held = len(table.counts) + table.last.itemsize * len(table.last)
        assert held == slots * (k + 8) == table.memory_bytes_estimate()
        # The numpy faces are views of the same memory, not copies.
        table.cells()[1, 5] = 7
        table.last_subwindows()[5] = 3
        assert table.counts[1 * slots + 5] == 7 and table.last[5] == 3

    def test_scalar_methods_match_subwindow_counter(self):
        table = make_table(5)
        oracle = sequential_oracle(5, 4)
        rng = np.random.default_rng(19)
        subwindow = 0
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
            assert table_state(table) == oracle_state(oracle)
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
            table.record_batch(np.sort(batch).astype(np.int64), subwindow)
            for slot in batch.tolist():
                oracle[slot].record(subwindow)
            recorded += batch.size
            assert table_state(table) == oracle_state(oracle)
        # recorded_misses counts every entry of every batch.
        assert table.recorded_misses == recorded
        # A subwindow behind a slot's last one is refused, as by
        # record_miss, and leaves the table as it was.
        behind = max(table.last) - 1
        with pytest.raises(ValueError, match="time moved backwards"):
            table.live_totals(every_slot, behind)
        with pytest.raises(ValueError, match="time moved backwards"):
            table.record_batch(every_slot, behind)
        assert table_state(table) == oracle_state(oracle)
        assert table.recorded_misses == recorded

    def test_record_batch_repeated_slot_ordinals(self):
        # One slot hit many times in a single batch lands where as many
        # sequential records would.
        table = make_table(3)
        oracle = sequential_oracle(3, 4)
        batch = np.array([1] * 7 + [0, 1, 2, 1], dtype=np.int64)
        table.record_batch(np.sort(batch), 5)
        for slot in batch.tolist():
            oracle[slot].record(5)
        assert table_state(table) == oracle_state(oracle)

    def test_record_batch_saturates_at_counter_ceiling(self):
        table = make_table(2)
        oracle = sequential_oracle(2, 4)
        table.record_batch(np.zeros(COUNTER_SATURATION - 3, dtype=np.int64), 3)
        table.record_batch(np.zeros(48, dtype=np.int64), 3)
        for _ in range(COUNTER_SATURATION + 45):
            oracle[0].record(3)
        assert int(table.cells().max()) == COUNTER_SATURATION
        assert table_state(table) == oracle_state(oracle)

    def test_record_batch_empty(self):
        table = make_table(4)
        table.record_batch(np.zeros(0, dtype=np.int64), 9)
        assert table.recorded_misses == 0
        assert table.last.tolist() == [-1] * 4

    def test_row_totals_equal_stored_sums(self):
        # Lazy advancement zeroes expired cells on record, so as of its
        # own last subwindow a slot's live total is its stored row sum.
        table = make_table(5)
        rng = np.random.default_rng(17)
        for subwindow in (0, 1, 4, 5):
            table.record_batch(
                np.sort(rng.integers(0, 5, size=20)).astype(np.int64), subwindow
            )
        rows, last = table_state(table)
        for slot in range(5):
            total = table.live_totals(np.array([slot]), last[slot])
            assert total.tolist() == [sum(rows[slot])]


class TestKernelDispatch:
    def test_supports_exact_type_only(self):
        assert supports(SieveStoreC())
        assert not supports(AdaptiveSieveStoreC())

    def test_kernel_rejects_subclass(self):
        with pytest.raises(TypeError, match="plain SieveStoreC"):
            SieveStoreCKernel(AdaptiveSieveStoreC())


def sieve_state(table):
    """Everything a recording can change, byte for byte."""
    tracked = table._last_address
    return (
        bytes(table.counts),
        table.last.tobytes(),
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
        # t1 = 1 makes every touched slot hot, so every block keeps its
        # cell index.
        policy = SieveStoreC(SieveStoreCConfig(imct_slots=64, t1=1))
        kernel = SieveStoreCKernel(policy)
        addresses = np.array([10, 900, 7], dtype=np.int64)
        block_counts = np.array([1, 3, 2], dtype=np.int64)
        issue_times = np.array([0.0, 3600.0, 6.5 * 3600.0])
        # Two-hour subwindows: the first two requests share one.
        assert kernel.precompute_chunk(addresses, block_counts, issue_times) == 2
        k = policy.imct.window.subwindows
        runs = [kernel.begin_run(), kernel.begin_run()]
        assert [run[:2] for run in runs] == [(2, [0, 0]), (1, [3])]
        # Hot slots: every request is walked.
        assert [run[2] for run in runs] == [[0, 1], [0]]
        # Per request the position of its first block (plus the end) ...
        assert [run[3] for run in runs] == [[0, 1, 4], [0, 2]]
        # ... and per block its flat count-cell index in the column-major
        # layout: the run's subwindow column base plus the block's slot.
        for (_, subs, _, _, cis), blocks in zip(runs, ([10, 900, 901, 902], [7, 8])):
            assert cis == [
                subs[0] % k * kernel.n_slots + policy.imct.slot_of(b)
                for b in blocks
            ]

    def test_cold_bound_is_head_total_plus_run_blocks(self):
        policy = SieveStoreC(SieveStoreCConfig(imct_slots=1, t1=9))
        for _ in range(6):
            policy.imct.record_miss(0, 0.0)
        kernel = SieveStoreCKernel(policy)
        one = np.ones(1, dtype=np.int64)

        def visit_of(blocks, time):
            kernel.precompute_chunk(one, blocks * one, np.array([time]))
            _, _, visit, _, cis = kernel.begin_run()
            # Nothing resident or tracked: the one request is walked
            # exactly when its slot is hot.
            assert [ci < 0 for ci in cis] == [not visit] * blocks
            kernel.skipped.extend(range(blocks))  # leave the table alone
            return visit

        # 6 live + 2 blocks < 9: no recording can reach t1; 6 + 3 could.
        assert visit_of(2, 0.0) == []
        assert visit_of(3, 0.0) == [0]
        # The six stay live through subwindow 3 of the four-subwindow
        # window (two hours each) and are gone by subwindow 4.
        assert visit_of(3, 3 * 7200.0) == [0]
        assert visit_of(3, 4 * 7200.0) == []
        assert policy.imct.recorded_misses == 6

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
        assert kernel.begin_run()[2] == []  # all cold, nothing to walk
        assert sieve_state(policy.imct) == sieve_state(twin.imct)
        kernel.sync()
        for address in addresses.tolist():
            twin.imct.record_miss(address, time)
        assert sieve_state(policy.imct) == sieve_state(twin.imct)
        kernel.sync()  # idempotent
        assert policy.imct.recorded_misses == 43


def test_short_runs_fuse_into_all_hot_stretches(monkeypatch):
    # Runs of 2, 1, 4, 1, 1 blocks with batching worth it from 3 blocks:
    # the 4-block run is classified, its short neighbours are walked on
    # the scalar ladder, adjacent ones as one stretch with each
    # request's own subwindow in its cell indices.
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
    runs = [kernel.begin_run() for _ in range(3)]
    assert [run[1] for run in runs] == [[0, 1], [2], [3, 5]]
    assert [run[2] for run in runs] == [[0, 1], [], [0, 1]]
    k, n_slots = kernel.k, kernel.n_slots
    assert runs[0][4] == [
        sub % k * n_slots + policy.imct.slot_of(block)
        for sub, block in ((0, 0), (0, 1), (1, 100))
    ]
    assert runs[1][4] == [-1] * 4
    kernel.sync()
    assert policy.imct.recorded_misses == 4  # the classified run's only


@st.composite
def kernel_scripts(draw):
    """A table shape, a pre-loaded state, the run length below which
    runs go all-hot, and a window of requests with per-block skip marks
    and per-request partial-flush marks."""
    slots = draw(st.integers(1, 8))
    k = draw(st.integers(1, 5))
    # Small thresholds mix hot and cold slots; huge ones keep slots cold
    # all the way to the saturation ceiling.
    t1 = draw(st.sampled_from([1, 2, 3, 5, 9, 300, 1000]))
    tracking = draw(st.booleans())
    # 0 batches every run, 1000 none; between, short runs fuse into
    # all-hot stretches beside batched long ones.
    min_blocks = draw(st.sampled_from([0, 0, 4, 8, 1000]))
    preload = draw(st.lists(
        st.tuples(st.integers(0, slots - 1), st.integers(0, 6),
                  st.lists(st.integers(0, COUNTER_SATURATION),
                           min_size=k, max_size=k)),
        max_size=4,
    ))
    requests = []
    subwindow = 6
    for _ in range(draw(st.integers(1, 12))):
        subwindow += draw(st.sampled_from([0, 0, 0, 1, 1, 2, k - 1, k, k + 2]))
        blocks = draw(st.integers(1, 6))
        requests.append((
            draw(st.integers(0, 30)),
            blocks,
            subwindow,
            draw(st.lists(st.booleans(), min_size=blocks, max_size=blocks)),
            draw(st.booleans()),
        ))
    return slots, k, t1, tracking, min_blocks, preload, requests


class TestClassifyFlushProperty:
    """Classify + deferred flush + scalar ladder == sequential recording."""

    @settings(max_examples=300, deadline=None)
    @given(kernel_scripts())
    def test_matches_sequential_record_miss(self, script):
        slots, k, t1, tracking, min_blocks, preload, requests = script
        window = WindowSpec(10.0 * k, k)
        config = SieveStoreCConfig(imct_slots=slots, t1=t1, window=window)
        policy, reference = SieveStoreC(config), SieveStoreC(config)
        table, oracle = policy.imct, reference.imct
        for slot, last, cells in preload:
            for each in (table, oracle):
                each.counts[slot::slots] = bytes(cells)
                each.last[slot] = last
        if tracking:
            table.enable_collision_tracking()
            oracle.enable_collision_tracking()
        kernel = SieveStoreCKernel(policy)
        with mock.patch.object(sieve_kernel, "_BATCH_MIN_BLOCKS", min_blocks):
            runs = kernel.precompute_chunk(
                np.array([r[0] for r in requests], dtype=np.int64),
                np.array([r[1] for r in requests], dtype=np.int32),
                np.array([10.0 * r[2] + 1.0 for r in requests]),
            )
        pending = iter(requests)
        for _ in range(runs):
            n_requests, subs, visit, starts, cis = kernel.begin_run()
            # Only a stretch of fused short runs spans subwindows, and
            # it defers nothing.
            assert len(set(subs)) == 1 or visit == list(range(n_requests))
            for r in range(n_requests):
                address, blocks, sub, skips, flush_after = next(pending)
                assert sub == subs[r]
                mine = cis[starts[r]:starts[r + 1]]
                assert len(mine) == blocks
                # With nothing resident or tracked, only hot slots
                # put a request on the visit list.
                assert (r in visit) == any(ci >= 0 for ci in mine)
                time = 10.0 * sub + 1.0
                for offset, (ci, skipped) in enumerate(zip(mine, skips)):
                    if skipped:  # a hit / an MCT member: never recorded
                        if ci < 0:
                            kernel.skipped.append(starts[r] + offset)
                        continue
                    total = oracle.record_miss(address + offset, time)
                    if ci < 0:
                        # The cold bound: deferral is only sound if no
                        # recording here could have reached t1.
                        assert total < t1
                    else:
                        assert ci == sub % k * slots + table.slot_of(
                            address + offset
                        )
                        assert table.record_miss(address + offset, time) == total
                if flush_after:
                    kernel.flush(starts[r + 1])
        assert next(pending, None) is None
        kernel.sync()
        assert sieve_state(table) == sieve_state(oracle)


@st.composite
def occupancy_scripts(draw):
    """A sieve small enough that occupied-but-cold slots are the common
    case, a cache small enough to evict, a cache and an MCT to start
    from, and requests whose subwindow jumps expire MCT entries."""
    slots = draw(st.integers(1, 8))
    k = draw(st.integers(1, 4))
    t1 = draw(st.sampled_from([1, 2, 3, 5]))
    t2 = draw(st.integers(0, 2))
    single_tier = draw(st.booleans())
    capacity = draw(st.integers(1, 6))
    # A low ceiling makes saturation, too, a common case.
    saturated = draw(st.sampled_from([2, 3, 255]))
    min_blocks = draw(st.sampled_from([0, 0, 0, 6]))
    addresses = st.integers(0, 24)
    resident = draw(st.lists(addresses, unique=True, max_size=capacity))
    tracked = draw(st.lists(addresses, unique=True, max_size=6))
    requests = []
    subwindow = 0
    for _ in range(draw(st.integers(1, 14))):
        subwindow += draw(st.sampled_from([0, 0, 0, 1, 1, k, k + 2]))
        requests.append(
            (draw(addresses), draw(st.integers(1, 5)), subwindow)
        )
    return (slots, k, t1, t2, single_tier, capacity, saturated, min_blocks,
            resident, tracked, requests)


class TestVisitProperty:
    """A request off the visit list is nothing but cold-slot rejections,
    whatever promotions, admissions, evictions and prunes the run makes."""

    @settings(max_examples=400, deadline=None)
    @given(occupancy_scripts())
    def test_unvisited_requests_meet_nothing(self, script):
        (slots, k, t1, t2, single_tier, capacity, saturated, min_blocks,
         resident, tracked, requests) = script
        config = SieveStoreCConfig(
            imct_slots=slots, t1=t1, t2=t2, window=WindowSpec(10.0 * k, k),
            single_tier_admission=single_tier,
        )
        policy = SieveStoreC(config)
        table, mct = policy.imct, policy.mct
        mct.prune_interval = 15.0  # a sweep every other subwindow
        for address in tracked:
            mct.track(address)
        od = OrderedDict.fromkeys(resident)
        with mock.patch.object(
            sieve_kernel, "_OCCUPANCY_SATURATED", saturated
        ), mock.patch.object(sieve_kernel, "_BATCH_MIN_BLOCKS", min_blocks):
            kernel = SieveStoreCKernel(policy, od)
            self.walk(kernel, od, capacity, saturated, requests)

    @staticmethod
    def walk(kernel, od, capacity, saturated, requests):
        """The fast engine's sieve loop over model state, checking every
        request — visited or not — at its own turn."""
        policy = kernel.policy
        table, mct, config = policy.imct, policy.mct, policy.config

        def check_occupancy(previous):
            # Exact against a recount of the blocks themselves, or
            # saturated; and saturated once is saturated for good.
            recount = Counter(
                table.slot_of(a) for a in chain(od, mct._counters)
            )
            now = list(kernel.occupancy)
            for slot, (count, before) in enumerate(zip(now, previous)):
                assert count == saturated or count == recount[slot]
                assert count == saturated or before != saturated
            return now

        def install(address):
            if len(od) >= capacity:
                kernel.vacate(od.popitem(last=False)[0])
            od[address] = None

        occupancy = check_occupancy([0] * table.slots)
        runs = kernel.precompute_chunk(
            np.array([r[0] for r in requests], dtype=np.int64),
            np.array([r[1] for r in requests], dtype=np.int32),
            np.array([10.0 * r[2] + 1.0 for r in requests]),
        )
        pending = iter(requests)
        for _ in range(runs):
            n_requests, _subs, visit, starts, cis = kernel.begin_run()
            assert visit == sorted(set(visit))
            for r in range(n_requests):
                address, blocks, sub = next(pending)
                time = 10.0 * sub + 1.0
                mine = cis[starts[r]:starts[r + 1]]
                if r not in visit:
                    for a, ci in zip(range(address, address + blocks), mine):
                        assert a not in od and a not in mct and ci < 0
                    continue
                for position, (a, ci) in enumerate(
                    zip(range(address, address + blocks), mine), starts[r]
                ):
                    if a in od:
                        od.move_to_end(a)
                        if ci < 0:
                            kernel.skipped.append(position)
                    elif a in mct:
                        if ci < 0:
                            kernel.skipped.append(position)
                        for stale in mct.sweep(time):
                            if stale != a:
                                kernel.vacate(stale)
                        if mct.record_miss(a, time) >= config.t2:
                            mct.forget(a)
                            install(a)
                    elif ci >= 0 and table.record_miss(a, time) >= config.t1:
                        kernel.occupy(table.slot_of(a))
                        if config.single_tier_admission:
                            table.reset_slot(a)
                            install(a)
                        else:
                            mct.track(a)
                    occupancy = check_occupancy(occupancy)
            kernel.sync()
            occupancy = check_occupancy(occupancy)
        assert next(pending, None) is None
