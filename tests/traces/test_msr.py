"""MSR-Cambridge CSV trace I/O round-tripping."""

import tracemalloc

import numpy as np
import pytest

from repro.traces import SyntheticTraceConfig, read_msr_csv, write_msr_csv
from repro.traces.model import IOKind, IORequest
from repro.traces.msr import TICKS_PER_SECOND
from repro.traces.synthetic import EnsembleTraceGenerator
from tests.oracle import columns_of


def requests(path, **kwargs):
    """The rows :func:`read_msr_csv` reads, as request objects."""
    return read_msr_csv(path, **kwargs).to_trace().requests


@pytest.fixture
def sample_csv(tmp_path):
    path = tmp_path / "trace.csv"
    rows = [
        # ts(ticks), host, disk, type, offset(bytes), size(bytes), response(ticks)
        f"{10 * TICKS_PER_SECOND},web0,0,Read,8192,4096,{TICKS_PER_SECOND // 100}",
        f"{11 * TICKS_PER_SECOND},web0,1,Write,512,1024,{TICKS_PER_SECOND // 50}",
        f"{12 * TICKS_PER_SECOND},db1,0,Read,0,513,{TICKS_PER_SECOND // 100}",
    ]
    path.write_text("\n".join(rows) + "\n")
    return path


class TestReadMsrCsv:
    def test_reads_all_rows(self, sample_csv):
        assert len(read_msr_csv(sample_csv)) == 3

    def test_time_rebased_to_first_record(self, sample_csv):
        trace = requests(sample_csv)
        assert trace[0].issue_time == 0.0
        assert trace[1].issue_time == pytest.approx(1.0)

    def test_hostnames_numbered_in_order(self, sample_csv):
        trace = requests(sample_csv)
        assert trace[0].server_id == 0  # web0
        assert trace[2].server_id == 1  # db1

    def test_explicit_server_ids(self, sample_csv):
        trace = requests(sample_csv, server_ids={"db1": 7})
        assert trace[2].server_id == 7

    def test_offset_and_size_in_blocks(self, sample_csv):
        first = requests(sample_csv)[0]
        assert first.block_offset == 16  # 8192 / 512
        assert first.block_count == 8  # 4096 / 512

    def test_sub_block_size_rounds_up(self, sample_csv):
        third = requests(sample_csv)[2]
        assert third.block_count == 2  # 513 bytes -> 2 blocks

    def test_alignment_detected(self, sample_csv):
        trace = requests(sample_csv)
        assert trace[0].aligned_4k
        assert not trace[1].aligned_4k

    def test_kinds(self, sample_csv):
        trace = requests(sample_csv)
        assert trace[0].is_read
        assert trace[1].is_write

    def test_response_time(self, sample_csv):
        first = requests(sample_csv)[0]
        assert first.completion_time - first.issue_time == pytest.approx(0.01)


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        original = [
            IORequest(
                issue_time=0.0,
                completion_time=0.02,
                server_id=0,
                volume_id=2,
                block_offset=64,
                block_count=8,
                kind=IOKind.WRITE,
            ),
            IORequest(
                issue_time=5.5,
                completion_time=5.51,
                server_id=1,
                volume_id=0,
                block_offset=1,
                block_count=3,
                kind=IOKind.READ,
                aligned_4k=False,
            ),
        ]
        path = tmp_path / "out.csv"
        write_msr_csv(columns_of(original), path)
        loaded = requests(path)
        assert len(loaded) == len(original)
        for a, b in zip(original, loaded):
            assert a.block_offset == b.block_offset
            assert a.block_count == b.block_count
            assert a.kind == b.kind
            assert a.issue_time == pytest.approx(b.issue_time, abs=1e-6)
            assert a.completion_time == pytest.approx(b.completion_time, abs=1e-6)


#: The writer's host names, back to the server ids they name.
SERVER_IDS = {f"srv{server}": server for server in range(256)}


class TestOrderAndMemory:
    def test_rows_are_stable_sorted_by_issue(self, tmp_path):
        path = tmp_path / "unsorted.csv"
        rows = [
            f"{12 * TICKS_PER_SECOND},a,0,Read,0,512,0",
            f"{10 * TICKS_PER_SECOND},a,0,Read,512,512,0",
            f"{11 * TICKS_PER_SECOND},a,0,Read,1024,512,0",
            f"{11 * TICKS_PER_SECOND},a,0,Read,1536,512,0",
        ]
        path.write_text("\n".join(rows) + "\n")
        loaded = requests(path)
        # Time zero is the first record's timestamp, wherever it sorts.
        assert [r.issue_time for r in loaded] == [-2.0, -1.0, -1.0, 0.0]
        assert [r.block_offset for r in loaded] == [1, 2, 3, 0]

    def test_a_size_past_the_block_count_column_names_its_line(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text(f"1,a,0,Read,0,512,0\n2,a,0,Read,0,{1 << 50},0\n")
        with pytest.raises(ValueError, match="^line 2: "):
            read_msr_csv(path)

    def test_a_week_reads_in_at_most_100_bytes_a_row(self, tmp_path):
        """Rows go into typed buffers, not lists of boxed values (which
        took ~200 bytes a row)."""
        week = EnsembleTraceGenerator(
            SyntheticTraceConfig(scale=5e-5, days=7)
        ).generate_columnar()
        path = tmp_path / "week.csv"
        write_msr_csv(week, path)
        tracemalloc.start()
        try:
            loaded = read_msr_csv(path, server_ids=SERVER_IDS)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded) == len(week) > 100_000
        assert peak <= 100 * len(loaded)
        for name in ("address", "block_count", "is_write"):
            assert np.array_equal(getattr(loaded, name), getattr(week, name))
        assert np.allclose(loaded.issue_time, week.issue_time - week.issue_time[0],
                           rtol=0, atol=1e-6)
