"""Failure-injection and edge-condition tests.

A production library must fail loudly and precisely; these tests pin
the error behaviour at the seams — malformed traces, corrupt logs,
degenerate configurations — and the graceful paths (idle days, empty
traces, single-frame caches).
"""

import pytest

from repro.cache import AllocateOnDemand, BlockCache
from repro.core.sievestore_c import SieveStoreC, SieveStoreCConfig
from repro.core.sievestore_d import SieveStoreD
from repro.sim.engine import simulate
from repro.traces.model import IOKind, IORequest, Trace
from repro.util.intervals import SECONDS_PER_DAY


def req(day=0, offset_s=0.0, **kw):
    issue = day * SECONDS_PER_DAY + offset_s
    defaults = dict(
        issue_time=issue, completion_time=issue + 0.01, server_id=0,
        volume_id=0, block_offset=0, block_count=2, kind=IOKind.READ,
    )
    defaults.update(kw)
    return IORequest(**defaults)


class TestDegenerateTraces:
    def test_empty_trace_simulates(self):
        result = simulate(Trace([]), AllocateOnDemand(), 8, days=3,
                          track_minutes=False)
        assert result.stats.total.accesses == 0
        assert all(d.hit_ratio == 0.0 for d in result.stats.per_day)

    def test_single_request(self):
        result = simulate(Trace([req()]), AllocateOnDemand(), 8, days=1,
                          track_minutes=False)
        assert result.stats.total.accesses == 2

    def test_idle_middle_day(self):
        trace = Trace([req(day=0), req(day=2)])
        result = simulate(trace, AllocateOnDemand(), 8, days=3,
                          track_minutes=False)
        assert result.stats.per_day[1].accesses == 0

    def test_requests_past_configured_days_clamp(self):
        trace = Trace([req(day=9)])
        result = simulate(trace, AllocateOnDemand(), 8, days=3,
                          track_minutes=False)
        # Clamped into the last day rather than lost or crashing.
        assert result.stats.per_day[2].accesses == 2

    def test_one_frame_cache(self):
        trace = Trace([req(offset_s=i, block_offset=i * 4) for i in range(10)])
        result = simulate(trace, AllocateOnDemand(), 1, days=1,
                          track_minutes=False)
        assert len(result.cache) == 1
        result.cache.check_invariants()


class TestMalformedInputs:
    def test_negative_time_rejected_at_bucketing(self):
        from repro.util.intervals import day_of, minute_of

        with pytest.raises(ValueError):
            day_of(-1.0)
        with pytest.raises(ValueError):
            minute_of(-0.5)

    def test_corrupt_log_line_raises(self, tmp_path):
        from repro.offline.logs import AccessLog
        from repro.offline.mapreduce import reduce_all

        log = AccessLog(tmp_path, partitions=1)
        log.partition_path(0).write_text("12 3\nnot-a-record\n")
        with pytest.raises(ValueError):
            reduce_all(log)

    def test_msr_malformed_row_raises(self, tmp_path):
        from repro.traces.msr import read_msr_csv

        path = tmp_path / "bad.csv"
        path.write_text("123,host,0,Read,not-an-offset,4096,100\n")
        with pytest.raises(ValueError):
            read_msr_csv(path)

    def test_msr_comment_and_blank_lines_skipped(self, tmp_path):
        from repro.traces.msr import read_msr_csv

        path = tmp_path / "ok.csv"
        path.write_text(
            "# header comment\n"
            "\n"
            "10000000,host,0,Read,0,512,1000\n"
        )
        assert len(read_msr_csv(path)) == 1


class TestDegenerateConfigurations:
    def test_sievestore_c_threshold_one(self):
        """t1=1, t2=0: degenerates toward allocate-on-second-touch."""
        sieve = SieveStoreC(SieveStoreCConfig(imct_slots=1 << 12, t1=1, t2=1))
        assert not sieve.wants(5, is_write=False, time=0.0)  # promotes
        assert sieve.wants(5, is_write=False, time=1.0)

    def test_sievestore_d_threshold_zero_admits_everything(self):
        policy = SieveStoreD.__new__(SieveStoreD)
        from repro.core.sievestore_d import SieveStoreDConfig

        policy.__init__(SieveStoreDConfig(threshold=0, capacity_blocks=1000))
        policy.observe(1, is_write=False, time=0.0, hit=False)
        assert policy.epoch_boundary(1) == {1}

    def test_tiny_imct_still_functions(self):
        sieve = SieveStoreC(SieveStoreCConfig(imct_slots=1, t1=2, t2=1))
        # One slot: everything aliases, but the MCT keeps exactness.
        for address in range(50):
            sieve.wants(address, is_write=False, time=float(address))
        assert sieve.imct.slots == 1

    def test_cache_capacity_one_with_batch(self):
        cache = BlockCache(1)
        cache.replace_contents({7})
        assert 7 in cache
        with pytest.raises(ValueError):
            cache.replace_contents({1, 2})


class TestClockRollover:
    def test_subwindow_counter_survives_long_idle(self):
        from repro.core.windows import SubwindowCounter

        counter = SubwindowCounter(4)
        counter.record(0, amount=9)
        # A week of silence later, state must read as empty, not stale
        # garbage.
        assert counter.total(10_000) == 0
        assert counter.record(10_000) == 1

    def test_mct_prune_after_long_idle(self):
        from repro.core.mct import MissCountTable
        from repro.core.windows import WindowSpec

        mct = MissCountTable(WindowSpec(100.0, 4), prune_interval=1e9)
        for address in range(100):
            mct.record_miss(address, 0.0)
        mct.prune(1e6)
        assert len(mct) == 0 and mct.evictions == 100
        assert not any(address in mct for address in range(100))
