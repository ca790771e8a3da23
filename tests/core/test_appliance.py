"""The SieveStore appliance: request processing and SSD accounting."""


from repro.cache import AllocateOnDemand, BlockCache, NeverAllocate, StaticSet
from repro.cache.stats import CacheStats
from repro.core.appliance import SieveStoreAppliance
from repro.traces.model import IOKind, IORequest


def make_appliance(policy=None, capacity=64, days=1, epoch_seconds=86400.0):
    stats = CacheStats(days=days)
    cache = BlockCache(capacity)
    appliance = SieveStoreAppliance(
        cache, policy or AllocateOnDemand(), stats,
        epoch_seconds=epoch_seconds,
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


class TestRequestProcessing:
    def test_cold_miss_then_hit(self):
        appliance, stats, _ = make_appliance()
        first = appliance.process_request(request())
        assert first.miss_blocks == 4 and first.hit_blocks == 0
        second = appliance.process_request(request(issue=1.0))
        assert second.hit_blocks == 4 and second.served_from_ssd

    def test_partial_hit(self):
        appliance, _, cache = make_appliance(policy=NeverAllocate())
        base = next(request().addresses())
        cache.insert(base)
        outcome = appliance.process_request(request())
        assert outcome.hit_blocks == 1 and outcome.miss_blocks == 3

    def test_statistics_accumulate(self):
        appliance, stats, _ = make_appliance()
        appliance.process_request(request(kind=IOKind.WRITE))
        appliance.process_request(request(issue=1.0, kind=IOKind.READ))
        day = stats.per_day[0]
        assert day.write_misses == 4
        assert day.read_hits == 4
        assert day.allocation_writes == 4
        stats.check_consistency()

    def test_sieved_miss_bypasses_cache(self):
        appliance, stats, cache = make_appliance(policy=NeverAllocate())
        outcome = appliance.process_request(request())
        assert outcome.allocated_blocks == 0
        assert len(cache) == 0
        assert stats.per_day[0].allocation_writes == 0


class TestSSDAccounting:
    def test_hit_io_units_coalesce(self):
        # An 8-block hit costs one 4-KB unit, charged at issue time.
        appliance, stats, cache = make_appliance(policy=NeverAllocate())
        for address in request(blocks=8).addresses():
            cache.insert(address)
        appliance.process_request(request(blocks=8, issue=60.0))
        assert stats.per_minute[1].reads == 1

    def test_allocation_units_charged_at_completion(self):
        appliance, stats, _ = make_appliance()
        appliance.process_request(request(blocks=8, issue=59.9, span=10.0))
        # Allocation-write lands in the minute of the completion (t=69.9).
        assert stats.per_minute[1].writes == 1
        assert 0 not in stats.per_minute

    def test_write_hits_are_write_units(self):
        appliance, stats, cache = make_appliance(policy=NeverAllocate())
        for address in request(blocks=8).addresses():
            cache.insert(address)
        appliance.process_request(request(blocks=8, kind=IOKind.WRITE))
        assert stats.per_minute[0].writes == 1
        assert stats.per_minute[0].reads == 0


class TestEpochBatches:
    def test_begin_day_installs_batch(self):
        policy = StaticSet(set(range(10)))
        appliance, stats, cache = make_appliance(policy=policy)
        moved = appliance.begin_day(0)
        assert moved == 10
        assert len(cache) == 10
        assert stats.per_day[0].allocation_writes == 10

    def test_staggered_moves_skip_minute_accounting(self):
        # The paper assumes SieveStore-D's batch moves ride idle periods.
        policy = StaticSet(set(range(10)))
        appliance, stats, _ = make_appliance(policy=policy)
        appliance.begin_day(0)
        assert stats.per_minute == {}

    def test_continuous_policy_day_is_noop(self):
        appliance, stats, cache = make_appliance()
        assert appliance.begin_day(0) == 0
        assert len(cache) == 0

    def test_sub_day_epoch_charged_to_containing_calendar_day(self):
        # A 12 h epoch's boundary 1 fires at noon of day 0: its batch
        # belongs to day 0, not to day index 1.
        policy = StaticSet(set(range(4)))
        appliance, stats, _ = make_appliance(
            policy=policy, days=2, epoch_seconds=12 * 3600.0
        )
        appliance.begin_day(1)
        assert stats.per_day[0].allocation_writes == 4
        assert stats.per_day[1].allocation_writes == 0
