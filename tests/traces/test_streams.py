"""Day partitioning and per-day counting."""

import pytest

from repro.traces import (
    IOKind,
    IORequest,
    Trace,
    daily_access_totals,
    daily_block_counts,
    daily_read_write_split,
    iter_day_requests,
    per_server_daily_counts,
    split_by_day,
)
from repro.util.intervals import SECONDS_PER_DAY


def request_at(day, offset_s=0.0, server=0, blocks=2, kind=IOKind.READ, block_offset=0):
    issue = day * SECONDS_PER_DAY + offset_s
    return IORequest(
        issue_time=issue,
        completion_time=issue + 0.01,
        server_id=server,
        volume_id=0,
        block_offset=block_offset,
        block_count=blocks,
        kind=kind,
    )


@pytest.fixture
def three_day_trace():
    return Trace(
        [
            request_at(0, 10.0, blocks=2),
            request_at(0, 20.0, blocks=2),
            request_at(1, 5.0, blocks=4, kind=IOKind.WRITE),
            request_at(2, 1.0, blocks=1),
        ]
    )


class TestSplitByDay:
    def test_partitions_by_issue_day(self, three_day_trace):
        days = split_by_day(three_day_trace, 3)
        assert [len(d) for d in days] == [2, 1, 1]

    def test_drops_overflow_days(self, three_day_trace):
        days = split_by_day(three_day_trace, 2)
        assert [len(d) for d in days] == [2, 1]

    def test_rejects_nonpositive_days(self, three_day_trace):
        with pytest.raises(ValueError):
            split_by_day(three_day_trace, 0)


class TestDailyBlockCounts:
    def test_counts_every_block_of_request(self):
        trace = Trace([request_at(0, blocks=4)])
        counts = daily_block_counts(trace, 1)
        assert counts[0].total() == 4
        assert all(v == 1 for v in counts[0].counts)

    def test_repeat_accesses_accumulate(self):
        trace = Trace([request_at(0, 1.0), request_at(0, 2.0)])
        counts = daily_block_counts(trace, 1)
        assert all(v == 2 for v in counts[0].counts)

    def test_days_are_independent(self, three_day_trace):
        counts = daily_block_counts(three_day_trace, 3)
        assert [table.total() for table in counts] == [4, 4, 1]


class TestTotalsAndSplits:
    def test_daily_access_totals(self, three_day_trace):
        assert daily_access_totals(three_day_trace, 3) == [4, 4, 1]

    def test_read_write_split(self, three_day_trace):
        splits = daily_read_write_split(three_day_trace, 3)
        assert splits[0] == (4, 0)
        assert splits[1] == (0, 4)
        assert splits[2] == (1, 0)


class TestIterDayRequests:
    def test_yields_only_that_day(self, three_day_trace):
        day1 = list(iter_day_requests(three_day_trace, 1))
        assert len(day1) == 1
        assert day1[0].is_write


class TestPerServerDailyCounts:
    def test_separates_servers(self):
        trace = Trace(
            sorted(
                [request_at(0, server=1), request_at(0, 5.0, server=2)],
                key=lambda r: r.issue_time,
            )
        )
        result = per_server_daily_counts(trace, 1)
        assert set(result) == {1, 2}
        for server_id, counters in result.items():
            for address in counters[0].addresses.tolist():
                assert address >> 48 == server_id
