"""Trace summarization."""

import pytest

from repro.analysis.summary import summarize_trace, summary_rows
from repro.traces.model import IOKind, IORequest
from tests.oracle import columns_of


def req(server=0, blocks=4, kind=IOKind.READ, issue=0.0, aligned=True):
    return IORequest(
        issue_time=issue,
        completion_time=issue + 0.01,
        server_id=server,
        volume_id=0,
        block_offset=0,
        block_count=blocks,
        kind=kind,
        aligned_4k=aligned,
    )


class TestSummarizeTrace:
    def test_empty_trace(self):
        summary = summarize_trace(columns_of([]))
        assert summary.requests == 0
        assert summary.days == 0
        assert summary.read_fraction == 0.0

    def test_counts(self):
        trace = columns_of([req(blocks=4), req(blocks=8, kind=IOKind.WRITE)])
        summary = summarize_trace(trace)
        assert summary.requests == 2
        assert summary.block_accesses == 12
        assert summary.bytes_accessed == 12 * 512
        assert summary.read_fraction == pytest.approx(4 / 12)

    def test_per_server_split(self):
        trace = columns_of([req(server=1), req(server=2), req(server=1)])
        summary = summarize_trace(trace)
        assert [s.server_id for s in summary.servers] == [1, 2]
        assert summary.servers[0].requests == 2

    def test_alignment_fraction(self):
        trace = columns_of([req(aligned=True), req(aligned=False)])
        assert summarize_trace(trace).aligned_fraction == 0.5

    def test_days_from_last_issue(self):
        trace = columns_of([req(issue=0.0), req(issue=2 * 86400 + 5)])
        assert summarize_trace(trace).days == 3

    def test_size_histogram(self):
        trace = columns_of([req(blocks=1), req(blocks=3), req(blocks=16),
                       req(blocks=100)])
        histogram = summarize_trace(trace).request_size_histogram
        assert histogram == {"<=1": 1, "2-4": 1, "9-16": 1, ">64": 1}

    def test_synthetic_trace_summary(self, tiny_trace):
        summary = summarize_trace(tiny_trace)
        assert len(summary.servers) == 13
        assert 0.5 < summary.read_fraction < 0.85
        assert 0.88 < summary.aligned_fraction < 0.98
        assert summary.accesses_per_request > 4

    def test_rows_shape(self, tiny_trace):
        summary = summarize_trace(tiny_trace)
        rows = summary_rows(summary)
        assert len(rows) == 13
        assert sum(row[3] for row in rows) == pytest.approx(1.0, abs=0.02)
