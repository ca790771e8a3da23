"""Device-fault handling in the appliance's health state machine."""

from repro.cache import AllocateOnDemand, BlockCache
from repro.cache.stats import CacheStats
from repro.cache.write_policy import WriteMode
from repro.core.appliance import SieveStoreAppliance
from repro.faults import (
    DeviceHealth,
    ErrorWindow,
    FaultInjector,
    FaultPlan,
    OutageWindow,
)
from repro.traces.model import IOKind, IORequest
from repro.util.units import BLOCK_BYTES
from tests.oracle import process_request


def make_appliance(plan, policy=None, capacity=64, days=1,
                   write_mode=WriteMode.WRITE_THROUGH):
    stats = CacheStats(days=days)
    cache = BlockCache(capacity)
    appliance = SieveStoreAppliance(
        cache, policy or AllocateOnDemand(), stats,
        write_mode=write_mode,
        faults=FaultInjector(plan),
    )
    return appliance, stats, cache


def request(offset=0, blocks=4, kind=IOKind.READ, issue=0.0, span=0.4):
    return IORequest(
        issue_time=issue,
        completion_time=issue + span,
        server_id=0,
        volume_id=0,
        block_offset=offset,
        block_count=blocks,
        kind=kind,
    )


def warm(appliance, issue=0.0, blocks=4):
    """Install the request's blocks via a normal healthy-time access."""
    process_request(appliance, request(issue=issue, blocks=blocks))


class TestDegradedReads:
    def test_read_error_falls_back_to_ensemble(self):
        plan = FaultPlan(errors=(ErrorWindow(10.0, 20.0, "read"),))
        appliance, stats, cache = make_appliance(plan)
        warm(appliance)
        outcome = process_request(appliance, request(issue=15.0))
        # Every block errored: counted as misses, no SSD service.
        assert outcome.hit_blocks == 0 and outcome.miss_blocks == 4
        day = stats.per_day[0]
        assert day.read_errors == 4
        assert day.hits + day.misses == day.accesses
        # The frames stay resident and serve again after the window.
        assert len(cache) == 4
        after = process_request(appliance, request(issue=25.0))
        assert after.hit_blocks == 4
        stats.check_consistency()

    def test_healthy_requests_inside_run_unaffected(self):
        plan = FaultPlan(errors=(ErrorWindow(10.0, 20.0, "read"),))
        appliance, stats, _ = make_appliance(plan)
        warm(appliance)
        outcome = process_request(appliance, request(issue=5.0))
        assert outcome.hit_blocks == 4
        assert stats.per_day[0].read_errors == 0


class TestDegradedWrites:
    def test_write_error_invalidates_and_routes_to_ensemble(self):
        plan = FaultPlan(errors=(ErrorWindow(10.0, 20.0, "write"),))
        appliance, stats, cache = make_appliance(plan)
        warm(appliance)
        outcome = process_request(appliance, 
            request(issue=15.0, kind=IOKind.WRITE)
        )
        assert outcome.hit_blocks == 0
        day = stats.per_day[0]
        assert day.write_errors == 4
        assert day.backing_writes >= 4
        assert len(cache) == 0  # frames invalidated
        stats.check_consistency()

    def test_failed_allocation_write_suppresses_insert(self):
        plan = FaultPlan(errors=(ErrorWindow(0.0, 20.0, "write"),))
        appliance, stats, cache = make_appliance(plan)
        outcome = process_request(appliance, request(issue=5.0))
        # The read misses want allocation, but every allocation write
        # errors, so nothing lands in the cache.
        assert outcome.allocated_blocks == 0
        assert len(cache) == 0
        assert stats.per_day[0].allocation_writes == 0
        assert stats.per_day[0].write_errors == 4
        # After the window the same blocks earn frames again.
        after = process_request(appliance, request(issue=25.0))
        assert after.allocated_blocks == 4
        stats.check_consistency()

    def test_write_error_cleans_dirty_frame_under_write_back(self):
        plan = FaultPlan(errors=(ErrorWindow(10.0, 20.0, "write"),))
        appliance, stats, cache = make_appliance(
            plan, write_mode=WriteMode.WRITE_BACK
        )
        process_request(appliance, request(kind=IOKind.WRITE))
        assert len(appliance.dirty) == 4
        process_request(appliance, request(issue=15.0, kind=IOKind.WRITE))
        # The invalidated frames must not linger as dirty ghosts.
        assert len(appliance.dirty) == 0
        assert len(cache) == 0
        stats.check_consistency()


class TestBypass:
    def test_outage_passes_everything_through(self):
        plan = FaultPlan(outages=(OutageWindow(10.0, 20.0),))
        appliance, stats, cache = make_appliance(plan)
        warm(appliance)
        outcome = process_request(appliance, request(issue=15.0))
        assert outcome.hit_blocks == 0 and outcome.miss_blocks == 4
        day = stats.per_day[0]
        assert day.bypass_accesses == 4
        assert len(cache) == 0  # contents dropped on bypass entry
        assert appliance.faults.health is DeviceHealth.BYPASS
        stats.check_consistency()

    def test_bypass_write_goes_to_ensemble(self):
        plan = FaultPlan(outages=(OutageWindow(0.0, 20.0),))
        appliance, stats, _ = make_appliance(plan)
        process_request(appliance, request(kind=IOKind.WRITE, issue=5.0))
        day = stats.per_day[0]
        assert day.backing_writes == 4
        assert day.allocation_writes == 0

    def test_sieve_observes_through_bypass_for_reallocation(self):
        plan = FaultPlan(outages=(OutageWindow(10.0, 20.0),))
        appliance, stats, cache = make_appliance(plan)
        warm(appliance)
        process_request(appliance, request(issue=15.0))
        # Recovery: the device is back, AOD re-allocates on the miss.
        after = process_request(appliance, request(issue=25.0))
        assert appliance.faults.health is DeviceHealth.HEALTHY
        assert after.allocated_blocks == 4
        assert len(cache) == 4
        stats.check_consistency()

    def test_bypass_entry_forces_dirty_flush_under_write_back(self):
        plan = FaultPlan(outages=(OutageWindow(10.0,),))
        appliance, stats, _ = make_appliance(
            plan, write_mode=WriteMode.WRITE_BACK
        )
        process_request(appliance, request(kind=IOKind.WRITE))
        assert len(appliance.dirty) == 4
        process_request(appliance, request(issue=15.0))
        assert len(appliance.dirty) == 0
        assert stats.per_day[0].writebacks == 4
        stats.check_consistency()

    def test_epoch_batch_moves_suppressed_in_bypass(self):
        from repro.cache import StaticSet

        plan = FaultPlan(outages=(OutageWindow(0.0,),))
        policy = StaticSet(range(16))
        appliance, stats, cache = make_appliance(plan, policy=policy)
        moved = appliance.begin_day(0)
        assert moved == 0 and len(cache) == 0
        assert stats.per_day[0].allocation_writes == 0


class TestWearOut:
    def test_allocation_writes_wear_the_device_out(self):
        plan = FaultPlan(wearout_bytes=4 * BLOCK_BYTES)
        appliance, stats, cache = make_appliance(plan)
        process_request(appliance, request())  # 4 allocation writes
        assert appliance.faults.worn_out
        process_request(appliance, request(offset=100, issue=5.0))
        assert appliance.faults.health is DeviceHealth.BYPASS
        assert len(cache) == 0
        stats.check_consistency()


class TestNoFaultEquivalence:
    def test_faulty_path_matches_reference_when_windows_never_fire(self):
        plan = FaultPlan(errors=(ErrorWindow(1e8, 2e8, "read"),))
        faulty, faulty_stats, _ = make_appliance(plan)
        reference = SieveStoreAppliance(
            BlockCache(64), AllocateOnDemand(), CacheStats(days=1)
        )
        for req in [
            request(),
            request(issue=1.0, kind=IOKind.WRITE),
            request(offset=8, issue=2.0),
            request(issue=3.0),
        ]:
            process_request(faulty, req)
            process_request(reference, req)
        assert faulty_stats.per_day[0] == reference.stats.per_day[0]
