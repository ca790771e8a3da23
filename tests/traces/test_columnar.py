"""Columnar trace representation: losslessness, operations, serialization."""

import numpy as np
import pytest

from repro.traces.columnar import (
    ColumnarTrace,
    NPZ_FORMAT_VERSION,
    as_columnar,
    as_object_trace,
)
from repro.traces.model import IOKind, IORequest, Trace, pack_address
from repro.traces.streams import daily_block_counts
from repro.util.intervals import SECONDS_PER_DAY


def req(issue, server=0, volume=0, offset=0, blocks=2, kind=IOKind.READ,
        aligned=True):
    return IORequest(
        issue_time=issue,
        completion_time=issue + 0.01,
        server_id=server,
        volume_id=volume,
        block_offset=offset,
        block_count=blocks,
        kind=kind,
        aligned_4k=aligned,
    )


@pytest.fixture
def mixed_trace():
    return Trace(
        [
            req(0.5, server=0, volume=0, offset=0, blocks=3),
            req(1.25, server=1, volume=2, offset=100, blocks=1,
                kind=IOKind.WRITE, aligned=False),
            req(SECONDS_PER_DAY + 2.0, server=0, volume=1, offset=7,
                blocks=8),
            req(2 * SECONDS_PER_DAY + 0.125, server=2, volume=0,
                offset=4096, blocks=2, kind=IOKind.WRITE),
        ],
        description="mixed",
    )


class TestRoundTrip:
    def test_lossless_round_trip(self, mixed_trace):
        columns = ColumnarTrace.from_trace(mixed_trace)
        back = columns.to_trace()
        assert back.requests == mixed_trace.requests
        assert back.description == mixed_trace.description

    def test_round_trip_from_columns(self, mixed_trace):
        columns = ColumnarTrace.from_trace(mixed_trace)
        again = ColumnarTrace.from_trace(columns.to_trace())
        assert columns.equals(again)

    def test_coercion_helpers(self, mixed_trace):
        columns = as_columnar(mixed_trace)
        assert isinstance(columns, ColumnarTrace)
        assert as_columnar(columns) is columns
        assert as_object_trace(mixed_trace) is mixed_trace
        assert as_object_trace(columns).requests == mixed_trace.requests

    def test_shared_summary_protocol(self, mixed_trace):
        columns = ColumnarTrace.from_trace(mixed_trace)
        assert len(columns) == len(mixed_trace)
        assert columns.total_blocks() == mixed_trace.total_blocks()
        assert columns.duration == mixed_trace.duration

    def test_synthetic_trace_round_trips(self, tiny_trace):
        columns = ColumnarTrace.from_trace(tiny_trace)
        back = columns.to_trace()
        assert back.requests == tiny_trace.requests


class TestDerivedColumns:
    def test_server_and_volume_ids(self, mixed_trace):
        columns = ColumnarTrace.from_trace(mixed_trace)
        assert columns.server_ids.tolist() == [0, 1, 0, 2]
        assert columns.volume_ids.tolist() == [0, 2, 1, 0]

    def test_issue_days_match_scalar_reference(self, mixed_trace):
        columns = ColumnarTrace.from_trace(mixed_trace)
        expected = [int(r.issue_time // SECONDS_PER_DAY)
                    for r in mixed_trace.requests]
        assert columns.issue_days().tolist() == expected

    def test_issue_days_agree_with_python_at_day_boundaries(self):
        # Regression: timestamps at (or within an ulp of) a day multiple
        # must bucket exactly as Python's ``int(t // 86400)`` does —
        # numpy's floor_divide can land one ulp on the wrong side, and
        # the engines' bit-identical guarantee rides on both pipelines
        # agreeing.  These times exercise the boundary-recomputation
        # branch in ``bucket_indices``.
        day = float(SECONDS_PER_DAY)
        times = [
            0.0,
            np.nextafter(day, 0.0),        # just below the boundary
            day,                            # exactly on it
            np.nextafter(day, np.inf),      # just above it
            2 * day - 1e-10,                # inside the margin, below
            2 * day,
            2 * day + 1e-10,                # inside the margin, above
            3 * day,
        ]
        trace = Trace([req(t) for t in times])
        columns = ColumnarTrace.from_trace(trace)
        expected = [int(float(t) // SECONDS_PER_DAY) for t in times]
        assert columns.issue_days().tolist() == expected

    def test_daily_block_counts_straddling_boundaries_match_reference(
        self,
    ):
        day = float(SECONDS_PER_DAY)
        times = [0.0, np.nextafter(day, 0.0), day, np.nextafter(day, np.inf),
                 2 * day, 2 * day + 1e-10]
        trace = Trace([req(t, blocks=i + 1) for i, t in enumerate(times)])
        columns = ColumnarTrace.from_trace(trace)
        assert columns.daily_block_counts(4) == daily_block_counts(trace, 4)

    def test_expand_block_addresses(self):
        trace = Trace([req(0.0, offset=10, blocks=3), req(1.0, offset=50, blocks=2)])
        columns = ColumnarTrace.from_trace(trace)
        base1 = pack_address(0, 0, 10)
        base2 = pack_address(0, 0, 50)
        assert columns.expand_block_addresses().tolist() == [
            base1, base1 + 1, base1 + 2, base2, base2 + 1,
        ]

    def test_daily_block_counts_match_reference(self, tiny_trace):
        columns = ColumnarTrace.from_trace(tiny_trace)
        reference = daily_block_counts(tiny_trace, 8)
        vectorized = columns.daily_block_counts(8)
        assert vectorized == reference

    def test_daily_block_counts_rejects_bad_days(self, mixed_trace):
        with pytest.raises(ValueError):
            ColumnarTrace.from_trace(mixed_trace).daily_block_counts(0)


class TestStructuralOps:
    def test_filter_matches_object_filter(self, mixed_trace):
        columns = ColumnarTrace.from_trace(mixed_trace)
        filtered = columns.filter(server_id=0)
        assert filtered.to_trace().requests == mixed_trace.filter(
            server_id=0
        ).requests
        both = columns.filter(server_id=0, volume_id=1)
        assert len(both) == 1

    def test_sorted_by_issue_is_stable(self):
        # Two simultaneous requests must keep their input order.
        shuffled = Trace([req(5.0, offset=1), req(0.0), req(5.0, offset=2)])
        columns = ColumnarTrace.from_trace(shuffled).sorted_by_issue()
        columns.validate()
        offsets = [r.block_offset for r in columns.to_trace().requests]
        assert offsets == [0, 1, 2]

    @pytest.mark.parametrize("distinct", [5, 10**6, None])
    def test_sorted_by_issue_matches_a_stable_sort(self, distinct):
        # Many rows: ties (few distinct times), no ties, and NaNs.
        rng = np.random.default_rng(4)
        n = 5000
        issue = rng.random(n) if distinct is None else rng.integers(0, distinct, n) * 1.0
        if distinct is None:
            issue[rng.integers(0, n, 40)] = np.nan
        columns = ColumnarTrace(
            issue_time=issue,
            completion_time=issue,
            address=np.arange(n),
            block_count=np.ones(n),
            is_write=np.zeros(n, dtype=bool),
            aligned_4k=np.ones(n, dtype=bool),
        )
        order = np.argsort(issue, kind="stable")
        assert np.array_equal(columns.sorted_by_issue().address, order)

    def test_validate_flags_disorder(self):
        columns = ColumnarTrace.from_trace(Trace([req(5.0), req(1.0)]))
        with pytest.raises(ValueError):
            columns.validate()

    def test_validate_names_the_first_bad_row(self):
        # Row 2 runs backwards and row 1 has no blocks: row 1 is named.
        columns = ColumnarTrace(
            issue_time=[0.0, 3.0, 2.0, 4.0],
            completion_time=[0.0, 3.0, 1.0, 4.0],
            address=np.arange(4),
            block_count=[1, 0, 1, -1],
            is_write=np.zeros(4, dtype=bool),
            aligned_4k=np.zeros(4, dtype=bool),
        )
        with pytest.raises(ValueError, match=r"^request 1: block_count"):
            columns.validate()
        columns.block_count[1] = 1
        with pytest.raises(ValueError, match=r"^request 2: out of issue-time"):
            columns.validate()
        columns.issue_time[2] = 3.5
        with pytest.raises(ValueError, match=r"^request 2: completion_time"):
            columns.validate()
        columns.completion_time[2] = 3.5
        with pytest.raises(ValueError, match=r"^request 3: block_count"):
            columns.validate()

    def test_concatenate_and_empty(self, mixed_trace):
        columns = ColumnarTrace.from_trace(mixed_trace)
        joined = ColumnarTrace.concatenate([columns, columns])
        assert len(joined) == 2 * len(columns)
        assert len(ColumnarTrace.concatenate([])) == 0
        assert ColumnarTrace.empty().total_blocks() == 0

    def test_mismatched_column_lengths_rejected(self):
        with pytest.raises(ValueError):
            ColumnarTrace(
                issue_time=np.zeros(2),
                completion_time=np.zeros(2),
                address=np.zeros(2, dtype=np.int64),
                block_count=np.ones(3, dtype=np.int32),
                is_write=np.zeros(2, dtype=bool),
                aligned_4k=np.ones(2, dtype=bool),
            )


class TestSerialization:
    def test_npz_round_trip(self, mixed_trace, tmp_path):
        columns = ColumnarTrace.from_trace(mixed_trace)
        path = tmp_path / "trace.npz"
        columns.save_npz(path)
        loaded = ColumnarTrace.load_npz(path)
        assert loaded.equals(columns)
        assert loaded.description == columns.description

    def test_version_mismatch_rejected(self, mixed_trace, tmp_path):
        path = tmp_path / "trace.npz"
        ColumnarTrace.from_trace(mixed_trace).save_npz(path)
        with np.load(path) as payload:
            arrays = dict(payload)
        arrays["format_version"] = np.int64(NPZ_FORMAT_VERSION + 1)
        np.savez(path, **arrays)
        with pytest.raises(ValueError):
            ColumnarTrace.load_npz(path)
