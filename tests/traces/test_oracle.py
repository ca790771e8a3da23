"""The object-model oracle's per-day walks (``tests/oracle.py``).

The columns' per-day tables are checked against these walks elsewhere;
here the walks themselves are checked on traces small enough to count
by hand.
"""

import pytest

from repro.ensemble.topology import per_server_daily_counts_from_ensemble
from repro.traces.model import IOKind, IORequest, Trace
from repro.util.intervals import SECONDS_PER_DAY
from tests.oracle import daily_block_counts, per_server_daily_counts


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

    def test_ensemble_split_matches_the_walk(self, tiny_trace):
        # Figure 3 splits the ensemble's per-day tables by server.
        split = per_server_daily_counts_from_ensemble(
            tiny_trace.daily_block_counts(8)
        )
        assert split == per_server_daily_counts(tiny_trace.to_trace(), 8)
