"""Cross-module property-based tests (hypothesis).

These check global invariants that individual unit tests cannot: the
engine's accounting against a brute-force reference cache, conservation
of occupancy across aggregation windows, sieve admission monotonicity,
and the allocation/replacement split.
"""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import AllocateOnDemand, WriteMissNoAllocate
from repro.cache.stats import CacheStats
from repro.cache.write_policy import WriteMode
from repro.core.sievestore_c import SieveStoreC, SieveStoreCConfig
from repro.core.sievestore_d import SieveStoreD, SieveStoreDConfig
from repro.core.windows import WindowSpec
from repro.sim.engine import simulate
from repro.ssd.device import INTEL_X25E
from repro.ssd.occupancy import occupancy_from_stats
from repro.traces.model import IOKind, IORequest
from tests.oracle import columns_of


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
@st.composite
def random_traces(draw, max_requests=60, max_offset=40):
    """Small chronological single-server traces."""
    n = draw(st.integers(min_value=1, max_value=max_requests))
    requests = []
    time = 0.0
    for _ in range(n):
        time += draw(st.floats(min_value=0.01, max_value=500.0))
        requests.append(
            IORequest(
                issue_time=time,
                completion_time=time + draw(st.floats(min_value=0.0, max_value=1.0)),
                server_id=0,
                volume_id=0,
                block_offset=draw(st.integers(min_value=0, max_value=max_offset)),
                block_count=draw(st.integers(min_value=1, max_value=4)),
                kind=draw(st.sampled_from([IOKind.READ, IOKind.WRITE])),
            )
        )
    return columns_of(requests)


def reference_lru_aod(trace, capacity, write_allocate=True):
    """Brute-force demand-fill LRU over the block stream."""
    lru = OrderedDict()
    hits = misses = allocs = 0
    for request in trace.to_trace():
        for address in request.addresses():
            if address in lru:
                hits += 1
                lru.move_to_end(address)
            else:
                misses += 1
                if write_allocate or request.is_read:
                    allocs += 1
                    lru[address] = None
                    if len(lru) > capacity:
                        lru.popitem(last=False)
    return hits, misses, allocs


# ---------------------------------------------------------------------------
# engine vs reference
# ---------------------------------------------------------------------------
class TestEngineAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(trace=random_traces(), capacity=st.integers(min_value=1, max_value=16))
    def test_aod_matches_bruteforce_lru(self, trace, capacity):
        expected = reference_lru_aod(trace, capacity)
        for fast_path, engine in ((False, "object"), (True, "fast")):
            result = simulate(
                trace, AllocateOnDemand(), capacity, days=1,
                track_minutes=False, fast_path=fast_path,
            )
            assert result.engine == engine
            total = result.stats.total
            assert (
                total.hits, total.misses, total.allocation_writes
            ) == expected

    @settings(max_examples=60, deadline=None)
    @given(trace=random_traces(), capacity=st.integers(min_value=1, max_value=16))
    def test_wmna_matches_bruteforce(self, trace, capacity):
        expected = reference_lru_aod(trace, capacity, write_allocate=False)
        for fast_path, engine in ((False, "object"), (True, "fast")):
            result = simulate(
                trace, WriteMissNoAllocate(), capacity, days=1,
                track_minutes=False, fast_path=fast_path,
            )
            assert result.engine == engine
            total = result.stats.total
            assert (
                total.hits, total.misses, total.allocation_writes
            ) == expected

    @settings(max_examples=40, deadline=None)
    @given(trace=random_traces())
    def test_accounting_identity(self, trace):
        for policy in (AllocateOnDemand(), WriteMissNoAllocate()):
            result = simulate(trace, policy, 8, days=1, track_minutes=False)
            total = result.stats.total
            assert total.hits + total.misses == total.accesses
            assert total.accesses == trace.total_blocks()

    @settings(max_examples=40, deadline=None)
    @given(trace=random_traces(), capacity=st.integers(min_value=1, max_value=8))
    def test_aod_allocates_every_miss(self, trace, capacity):
        result = simulate(
            trace, AllocateOnDemand(), capacity, days=1, track_minutes=False
        )
        total = result.stats.total
        assert total.allocation_writes == total.misses


# ---------------------------------------------------------------------------
# sieve properties
# ---------------------------------------------------------------------------
class TestSieveProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        counts=st.dictionaries(
            st.integers(min_value=0, max_value=50),
            st.integers(min_value=1, max_value=30),
            max_size=40,
        ),
        t_low=st.integers(min_value=0, max_value=10),
        delta=st.integers(min_value=1, max_value=10),
    )
    def test_d_selection_monotone_in_threshold(self, counts, t_low, delta):
        """A higher threshold selects a subset of the lower's batch.

        (Note: per-day *insertion counts* are NOT monotone in the
        threshold — a block selected on consecutive days at a low
        threshold inserts zero times, while a higher threshold that
        excludes it on day one inserts it on day two — so the invariant
        lives at the selection rule, not the allocation-write totals.)
        """
        from collections import Counter

        table = Counter(counts)
        low = SieveStoreD(SieveStoreDConfig(threshold=t_low))
        high = SieveStoreD(SieveStoreDConfig(threshold=t_low + delta))
        assert high.select_allocation(table) <= low.select_allocation(table)

    @settings(max_examples=30, deadline=None)
    @given(trace=random_traces())
    def test_c_never_allocates_first_touch(self, trace):
        """With t1 >= 2, a block's first miss is never admitted."""
        policy = SieveStoreC(
            SieveStoreCConfig(imct_slots=1 << 16, t1=2, t2=1,
                              window=WindowSpec(1e9, 4))
        )
        seen = set()
        for request in trace.to_trace():
            for address in request.addresses():
                first_touch = address not in seen
                seen.add(address)
                admitted = policy.wants(address, request.is_write,
                                        request.issue_time)
                if first_touch and len(seen) == 1:
                    assert not admitted

    @settings(max_examples=30, deadline=None)
    @given(trace=random_traces(max_offset=200))
    def test_sieve_allocations_bounded_by_unsieved(self, trace):
        sieve = SieveStoreC(SieveStoreCConfig(imct_slots=1 << 16, t1=2, t2=1))
        sieved = simulate(trace, sieve, 64, days=1, track_minutes=False)
        unsieved = simulate(
            trace, AllocateOnDemand(), 64, days=1, track_minutes=False
        )
        assert (
            sieved.stats.total.allocation_writes
            <= unsieved.stats.total.allocation_writes
        )


# ---------------------------------------------------------------------------
# occupancy conservation
# ---------------------------------------------------------------------------
class TestOccupancyConservation:
    @settings(max_examples=40, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=59),   # minute
                st.integers(min_value=0, max_value=50),   # read units
                st.integers(min_value=0, max_value=50),   # write units
            ),
            max_size=40,
        ),
        window=st.sampled_from([1, 2, 5, 10, 30, 60]),
    )
    def test_busy_seconds_invariant_across_windows(self, events, window):
        """Total busy-seconds is independent of the aggregation window."""
        stats = CacheStats(days=1)
        for minute, reads, writes in events:
            if reads:
                stats.record_ssd_io(minute * 60.0, reads, is_write=False)
            if writes:
                stats.record_ssd_io(minute * 60.0, writes, is_write=True)
        fine = occupancy_from_stats(stats, INTEL_X25E, 60, window_minutes=1)
        coarse = occupancy_from_stats(stats, INTEL_X25E, 60, window_minutes=window)
        fine_busy = sum(v * 60.0 for v in fine.values)
        coarse_busy = sum(v * 60.0 * window for v in coarse.values)
        assert fine_busy == pytest.approx(coarse_busy, rel=1e-9, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=50)
    )
    def test_coverage_monotone_in_drives(self, values):
        from repro.ssd.occupancy import OccupancySeries

        series = OccupancySeries(
            minutes=tuple(range(len(values))), values=tuple(values)
        )
        fractions = [series.fraction_within(k) for k in range(0, 12)]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] == 1.0

    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=50),
        cov_lo=st.floats(min_value=0.5, max_value=0.9),
        cov_hi=st.floats(min_value=0.91, max_value=1.0),
    )
    def test_drives_monotone_in_coverage(self, values, cov_lo, cov_hi):
        from repro.ssd.occupancy import OccupancySeries

        series = OccupancySeries(
            minutes=tuple(range(len(values))), values=tuple(values)
        )
        assert series.drives_for_coverage(cov_lo) <= series.drives_for_coverage(
            cov_hi
        )


# ---------------------------------------------------------------------------
# cache capacity safety under any policy
# ---------------------------------------------------------------------------
class TestCapacitySafety:
    @settings(max_examples=30, deadline=None)
    @given(
        trace=random_traces(max_offset=100),
        capacity=st.integers(min_value=1, max_value=6),
        write_mode=st.sampled_from(list(WriteMode)),
    )
    def test_capacity_never_exceeded(self, trace, capacity, write_mode):
        # Write-through runs the fast loop, write-back the object engine.
        result = simulate(
            trace,
            AllocateOnDemand(),
            capacity,
            days=1,
            write_mode=write_mode,
            track_minutes=False,
        )
        assert result.engine == (
            "fast" if write_mode is WriteMode.WRITE_THROUGH else "object"
        )
        assert len(result.cache) <= capacity
        result.cache.check_invariants()
