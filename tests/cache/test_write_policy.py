"""Write-through vs write-back (extension): dirty tracking and backing
write accounting."""


from repro.cache import AllocateOnDemand, BlockCache, NeverAllocate, WriteMode
from repro.cache.stats import CacheStats
from repro.cache.write_policy import DirtyTracker
from repro.core.appliance import SieveStoreAppliance
from repro.traces.model import IOKind, IORequest
from tests.oracle import process_request


def make_appliance(mode, policy=None, capacity=64):
    stats = CacheStats(days=1, track_minutes=False)
    cache = BlockCache(capacity)
    appliance = SieveStoreAppliance(
        cache, policy or AllocateOnDemand(), stats, write_mode=mode
    )
    return appliance, stats, cache


def write_request(offset=0, blocks=4, issue=0.0):
    return IORequest(
        issue_time=issue,
        completion_time=issue + 0.01,
        server_id=0,
        volume_id=0,
        block_offset=offset,
        block_count=blocks,
        kind=IOKind.WRITE,
    )


class TestDirtyTracker:
    def test_mark_and_clean(self):
        tracker = DirtyTracker()
        tracker.mark(1)
        assert 1 in tracker
        assert tracker.clean(1)
        assert not tracker.clean(1)

    def test_marks_counted(self):
        tracker = DirtyTracker()
        tracker.mark(1)
        tracker.mark(1)
        assert tracker.marks == 2
        assert len(tracker) == 1

    def test_drain(self):
        tracker = DirtyTracker()
        tracker.mark(1)
        tracker.mark(2)
        assert tracker.drain() == {1, 2}
        assert len(tracker) == 0

    def test_clean_many(self):
        tracker = DirtyTracker()
        tracker.mark(1)
        tracker.mark(2)
        assert tracker.clean_many([1, 2, 3]) == 2


class TestWriteThrough:
    def test_write_hits_forwarded(self):
        appliance, stats, _ = make_appliance(WriteMode.WRITE_THROUGH)
        process_request(appliance, write_request())           # miss + allocate
        process_request(appliance, write_request(issue=1.0))  # 4 write hits
        # miss-writes (4) + write-through hit forwards (4)
        assert stats.per_day[0].backing_writes == 8
        assert stats.per_day[0].writebacks == 0

    def test_nothing_ever_dirty(self):
        appliance, _, _ = make_appliance(WriteMode.WRITE_THROUGH)
        process_request(appliance, write_request())
        process_request(appliance, write_request(issue=1.0))
        assert len(appliance.dirty) == 0
        assert appliance.flush_dirty(2.0) == 0


class TestWriteBack:
    def test_write_hits_absorbed(self):
        appliance, stats, _ = make_appliance(WriteMode.WRITE_BACK)
        process_request(appliance, write_request())           # allocating write miss
        process_request(appliance, write_request(issue=1.0))  # absorbed hits
        # Nothing reaches the ensemble until a flush.
        assert stats.per_day[0].backing_writes == 0
        assert len(appliance.dirty) == 4

    def test_repeated_writes_coalesce(self):
        appliance, stats, _ = make_appliance(WriteMode.WRITE_BACK)
        for i in range(10):
            process_request(appliance, write_request(issue=float(i)))
        appliance.flush_dirty(20.0)
        # 40 block-writes arrived; 4 blocks flushed once each.
        assert stats.per_day[0].backing_writes == 4
        assert stats.per_day[0].writebacks == 4

    def test_unallocated_write_miss_goes_to_ensemble(self):
        appliance, stats, _ = make_appliance(
            WriteMode.WRITE_BACK, policy=NeverAllocate()
        )
        process_request(appliance, write_request())
        assert stats.per_day[0].backing_writes == 4
        assert len(appliance.dirty) == 0

    def test_eviction_flushes_dirty_victim(self):
        appliance, stats, cache = make_appliance(
            WriteMode.WRITE_BACK, capacity=4
        )
        process_request(appliance, write_request(offset=0, blocks=4))
        # Fill with new blocks, evicting the dirty ones.
        process_request(appliance, write_request(offset=100, blocks=4, issue=1.0))
        assert stats.per_day[0].writebacks == 4
        assert all(a not in appliance.dirty for a in range(4))

    def test_batch_replacement_flushes_dirty_evictees(self):
        from repro.cache import StaticSet

        stats = CacheStats(days=2, track_minutes=False)
        cache = BlockCache(64)
        policy = StaticSet(set(range(100, 104)))
        appliance = SieveStoreAppliance(
            cache, policy, stats, write_mode=WriteMode.WRITE_BACK
        )
        # Manually dirty a resident block, then let the batch evict it.
        cache.insert(0)
        appliance.dirty.mark(0)
        appliance.begin_day(0)
        assert stats.per_day[0].writebacks == 1
        assert 0 not in appliance.dirty

    def test_read_hits_never_dirty(self):
        appliance, _, _ = make_appliance(WriteMode.WRITE_BACK)
        read = IORequest(
            issue_time=0.0, completion_time=0.01, server_id=0, volume_id=0,
            block_offset=0, block_count=4, kind=IOKind.READ,
        )
        process_request(appliance, read)
        process_request(appliance, 
            IORequest(issue_time=1.0, completion_time=1.01, server_id=0,
                      volume_id=0, block_offset=0, block_count=4,
                      kind=IOKind.READ)
        )
        assert len(appliance.dirty) == 0


class TestEngineIntegration:
    def test_write_back_reduces_backing_writes(self, tiny_trace):
        from repro.sim.engine import simulate
        from repro.core import SieveStoreC, SieveStoreCConfig

        def run(mode):
            policy = SieveStoreC(SieveStoreCConfig(imct_slots=1 << 14))
            return simulate(
                tiny_trace, policy, 512, days=8,
                track_minutes=False, write_mode=mode,
            ).stats.total

        through = run(WriteMode.WRITE_THROUGH)
        back = run(WriteMode.WRITE_BACK)
        # SSD-side accounting identical; ensemble writes strictly fewer.
        assert back.hits == through.hits
        assert back.allocation_writes == through.allocation_writes
        assert back.backing_writes < through.backing_writes

    def test_write_back_conserves_data(self, tiny_trace):
        """Every written block either reached the ensemble or was counted
        in a writeback: written set == backing-written set union dirty
        (flushed at end)."""
        from repro.sim.engine import simulate
        from repro.cache import AllocateOnDemand

        result = simulate(
            tiny_trace, AllocateOnDemand(), 512, days=8,
            track_minutes=False, write_mode=WriteMode.WRITE_BACK,
        )
        total = result.stats.total
        # Coalescing can only reduce ensemble writes.
        assert total.backing_writes <= total.write_hits + total.write_misses
        assert total.backing_writes > 0