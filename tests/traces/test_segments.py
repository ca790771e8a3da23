"""Segment stores: round-trips, manifest validation, shard views."""

import json
import os
import pickle
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces import segments as segments_module
from repro.traces import tiny_config
from repro.traces.columnar import BlockCounts, ColumnarTrace
from repro.traces.model import pack_address
from repro.traces.segments import (
    MANIFEST_NAME,
    SEGMENT_MANIFEST_VERSION,
    SegmentError,
    SegmentStore,
    SegmentWriter,
    ShardView,
    segment_columnar,
    shard_of_servers,
)
from repro.traces.store import config_fingerprint, load_or_generate_segments
from repro.traces.synthetic import EnsembleTraceGenerator

ROWS_PER_SEGMENT = 5000
CHUNK_ROWS = 3000


@pytest.fixture(scope="module")
def seg_config():
    return tiny_config(days=3)


@pytest.fixture(scope="module")
def seg_columns(seg_config):
    return EnsembleTraceGenerator(seg_config).generate_columnar()


@pytest.fixture(scope="module")
def seg_store(tmp_path_factory, seg_columns):
    directory = tmp_path_factory.mktemp("segments") / "store"
    return segment_columnar(
        seg_columns, directory, rows_per_segment=ROWS_PER_SEGMENT
    )


def _concatenate_chunks(chunks):
    return ColumnarTrace.concatenate([c for _base, c in chunks])


class TestRoundTrip:
    def test_load_all_equals_source(self, seg_store, seg_columns):
        assert seg_store.load_all().equals(seg_columns)

    def test_bounded_segments(self, seg_store, seg_columns):
        assert seg_store.num_segments > 1
        assert all(s.rows <= ROWS_PER_SEGMENT for s in seg_store.segments)
        assert len(seg_store) == len(seg_columns)

    def test_fingerprint_matches_columnar_fingerprint(
        self, seg_store, seg_columns
    ):
        from repro.sim.engine import _trace_fingerprint

        assert seg_store.fingerprint() == _trace_fingerprint(seg_columns)

    def test_generator_streams_identical_store(
        self, tmp_path, seg_config, seg_columns
    ):
        streamed = EnsembleTraceGenerator(seg_config).generate_segments(
            tmp_path / "streamed", rows_per_segment=ROWS_PER_SEGMENT
        )
        assert streamed.load_all().equals(seg_columns)


class TestChunkIteration:
    def test_chunks_cover_the_trace_in_order(self, seg_store, seg_columns):
        chunks = list(seg_store.iter_chunks(CHUNK_ROWS))
        position = 0
        for base, columns in chunks:
            assert base == position
            assert 0 < len(columns) <= CHUNK_ROWS
            position += len(columns)
        assert position == len(seg_columns)
        assert _concatenate_chunks(chunks).equals(seg_columns)

    def test_start_row_skips_earlier_rows(self, seg_store, seg_columns):
        start = len(seg_columns) // 2
        chunks = list(seg_store.iter_chunks(CHUNK_ROWS, start_row=start))
        first_base = chunks[0][0]
        assert first_base <= start < first_base + len(chunks[0][1])
        tail = _concatenate_chunks(chunks)
        offset = start - first_base
        np.testing.assert_array_equal(
            tail.issue_time[offset:], seg_columns.issue_time[start:]
        )

    def test_rejects_nonpositive_chunk_rows(self, seg_store):
        with pytest.raises(ValueError, match="chunk_rows"):
            list(seg_store.iter_chunks(0))


class TestManifestValidation:
    @pytest.fixture()
    def copied_store(self, tmp_path, seg_columns):
        directory = tmp_path / "copy"
        segment_columnar(
            seg_columns, directory, rows_per_segment=ROWS_PER_SEGMENT
        )
        return directory

    def _manifest(self, directory):
        return json.loads((directory / MANIFEST_NAME).read_text())

    def _rewrite(self, directory, payload):
        (directory / MANIFEST_NAME).write_text(json.dumps(payload))

    def test_unknown_manifest_version_is_refused(self, copied_store):
        payload = self._manifest(copied_store)
        payload["manifest_version"] = SEGMENT_MANIFEST_VERSION + 1
        self._rewrite(copied_store, payload)
        with pytest.raises(SegmentError, match="manifest version"):
            SegmentStore.open(copied_store)

    def test_unknown_npz_format_version_is_refused(self, copied_store):
        payload = self._manifest(copied_store)
        payload["npz_format_version"] = 999
        self._rewrite(copied_store, payload)
        with pytest.raises(SegmentError, match="npz format"):
            SegmentStore.open(copied_store)

    def test_total_rows_mismatch_is_refused(self, copied_store):
        payload = self._manifest(copied_store)
        payload["total_rows"] += 1
        self._rewrite(copied_store, payload)
        with pytest.raises(SegmentError, match="total_rows"):
            SegmentStore.open(copied_store)

    def test_truncated_segment_is_refused(self, copied_store):
        payload = self._manifest(copied_store)
        victim = copied_store / payload["segments"][0]["file"]
        victim.write_bytes(victim.read_bytes()[:-16])
        with pytest.raises(SegmentError, match="truncated"):
            SegmentStore.open(copied_store)

    def test_missing_segment_is_refused(self, copied_store):
        payload = self._manifest(copied_store)
        (copied_store / payload["segments"][-1]["file"]).unlink()
        with pytest.raises(SegmentError, match="missing segment"):
            SegmentStore.open(copied_store)

    def test_corrupt_segment_payload_fails_on_read(self, copied_store):
        store = SegmentStore.open(copied_store)
        victim = copied_store / store.segments[0].file
        size = victim.stat().st_size
        victim.write_bytes(b"\x00" * size)  # same size: open() passes
        with pytest.raises(SegmentError, match="unreadable segment"):
            store.load_segment(0)


class TestLoadOrGenerateSegments:
    def test_miss_generates_and_hit_reuses(self, tmp_path, seg_config):
        store = load_or_generate_segments(seg_config, cache_dir=tmp_path)
        assert store.config_fingerprint == config_fingerprint(seg_config)
        sentinel = store.directory / "sentinel"
        sentinel.write_text("kept on cache hit")
        again = load_or_generate_segments(seg_config, cache_dir=tmp_path)
        assert again.directory == store.directory
        assert sentinel.exists()  # no regeneration happened

    def test_corrupt_store_warns_evicts_and_regenerates(
        self, tmp_path, seg_config
    ):
        store = load_or_generate_segments(seg_config, cache_dir=tmp_path)
        (store.directory / MANIFEST_NAME).write_text("{ not json")
        with pytest.warns(RuntimeWarning, match="unusable segment store"):
            again = load_or_generate_segments(seg_config, cache_dir=tmp_path)
        assert again.load_all().equals(
            EnsembleTraceGenerator(seg_config).generate_columnar()
        )

    def test_wrong_config_fingerprint_regenerates(self, tmp_path, seg_config):
        store = load_or_generate_segments(seg_config, cache_dir=tmp_path)
        payload = json.loads((store.directory / MANIFEST_NAME).read_text())
        payload["config_fingerprint"] = "0" * 64
        (store.directory / MANIFEST_NAME).write_text(json.dumps(payload))
        with pytest.warns(RuntimeWarning, match="different .* config"):
            again = load_or_generate_segments(seg_config, cache_dir=tmp_path)
        assert again.config_fingerprint == config_fingerprint(seg_config)

    def test_explicit_directory_for_another_config_is_refused(
        self, tmp_path, seg_config
    ):
        # A directory the caller named is not the cache's to evict.
        store = load_or_generate_segments(seg_config, directory=tmp_path / "s")
        other = tiny_config(days=2)
        with pytest.raises(SegmentError, match="different trace config"):
            load_or_generate_segments(other, directory=tmp_path / "s")
        assert SegmentStore.open(store.directory).config_fingerprint == (
            config_fingerprint(seg_config)
        )

    def test_disabled_cache_without_directory_raises(
        self, seg_config, monkeypatch
    ):
        monkeypatch.setenv("SIEVESTORE_TRACE_CACHE", "off")
        with pytest.raises(ValueError, match="segment stores live on disk"):
            load_or_generate_segments(seg_config)


class TestShardOfServers:
    def test_deterministic_and_in_range(self):
        ids = np.arange(64, dtype=np.int64)
        first = shard_of_servers(ids, 4)
        second = shard_of_servers(ids, 4)
        np.testing.assert_array_equal(first, second)
        assert first.min() >= 0 and first.max() < 4

    def test_single_shard_takes_everything(self):
        ids = np.arange(64, dtype=np.int64)
        assert shard_of_servers(ids, 1).tolist() == [0] * 64

    def test_consecutive_ids_spread_across_shards(self):
        counts = np.bincount(
            shard_of_servers(np.arange(64, dtype=np.int64), 4), minlength=4
        )
        assert (counts > 0).all()

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError, match="shards"):
            shard_of_servers(np.arange(4, dtype=np.int64), 0)


class TestShardView:
    SHARDS = 4

    def test_shards_partition_the_trace(self, seg_store, seg_columns):
        views = [
            seg_store.shard(s, self.SHARDS) for s in range(self.SHARDS)
        ]
        assert sum(len(v) for v in views) == len(seg_columns)
        for view in views:
            for _base, columns in view.iter_chunks(CHUNK_ROWS):
                assigned = shard_of_servers(columns.server_ids, self.SHARDS)
                assert (assigned == view.shard).all()

    def test_shard_rows_keep_issue_order_and_local_bases(self, seg_store):
        view = seg_store.shard(1, self.SHARDS)
        position = 0
        previous_last = None
        for base, columns in view.iter_chunks(CHUNK_ROWS):
            assert base == position
            position += len(columns)
            if previous_last is not None:
                assert columns.issue_time[0] >= previous_last
            assert (np.diff(columns.issue_time) >= 0).all()
            previous_last = columns.issue_time[-1]
        assert position == len(view)

    def test_single_shard_is_the_identity(self, seg_store, seg_columns):
        view = seg_store.shard(0, 1)
        assert view.fingerprint() == seg_store.fingerprint()
        assert len(view) == len(seg_store)
        assert _concatenate_chunks(view.iter_chunks(CHUNK_ROWS)).equals(
            seg_columns
        )

    def test_matches_mask_filtered_whole_trace(self, seg_store, seg_columns):
        view = seg_store.shard(2, self.SHARDS)
        mask = shard_of_servers(seg_columns.server_ids, self.SHARDS) == 2
        expected = seg_columns.take(np.flatnonzero(mask))
        assert _concatenate_chunks(view.iter_chunks(CHUNK_ROWS)).equals(
            expected
        )

    def test_streamed_daily_counts_match_whole_shard(
        self, seg_store, seg_columns, seg_config
    ):
        view = seg_store.shard(3, self.SHARDS)
        mask = shard_of_servers(seg_columns.server_ids, self.SHARDS) == 3
        whole = seg_columns.take(np.flatnonzero(mask)).daily_block_counts(
            seg_config.days
        )
        streamed = view.daily_block_counts(
            seg_config.days, chunk_rows=CHUNK_ROWS
        )
        assert streamed == whole

    def test_start_row_is_shard_local(self, seg_store):
        view = seg_store.shard(1, self.SHARDS)
        start = len(view) // 2
        chunks = list(view.iter_chunks(CHUNK_ROWS, start_row=start))
        first_base = chunks[0][0]
        assert first_base <= start < first_base + len(chunks[0][1])

    def test_rejects_out_of_range_shard(self, seg_store):
        with pytest.raises(ValueError, match="shard"):
            ShardView(seg_store, 4, 4)
        with pytest.raises(ValueError, match="shards"):
            ShardView(seg_store, 0, 0)


class TestStreamedDailyCounts:
    def test_store_matches_whole_trace(
        self, seg_store, seg_columns, seg_config
    ):
        assert seg_store.daily_block_counts(
            seg_config.days, chunk_rows=CHUNK_ROWS
        ) == seg_columns.daily_block_counts(seg_config.days)


def _column_bytes(columns):
    return [
        (name, getattr(columns, name).dtype, getattr(columns, name).tobytes())
        for name in segments_module._COLUMNS
    ] + [columns.description]


def _count_parses(monkeypatch):
    """Count calls to the parse half of a segment load."""
    calls = []
    real = segments_module._parse_segment

    def counting(raw):
        calls.append(raw.name)
        return real(raw)

    monkeypatch.setattr(segments_module, "_parse_segment", counting)
    return calls


def _unmemoized(store):
    """A store over the same manifest that has parsed nothing yet."""
    return SegmentStore(
        store.directory, store.description, store.config_fingerprint,
        store.segments,
    )


def _outcome(store, index=0):
    try:
        return _column_bytes(store.load_segment(index))
    except SegmentError as exc:
        return str(exc)


class TestLayoutMemo:
    @pytest.fixture()
    def store(self, tmp_path, seg_columns):
        return segment_columnar(
            seg_columns, tmp_path / "memo", rows_per_segment=ROWS_PER_SEGMENT
        )

    def test_second_load_maps_without_parsing(self, store, monkeypatch):
        calls = _count_parses(monkeypatch)
        first = store.load_segment(0)
        assert len(calls) == 1
        second = store.load_segment(0)
        assert len(calls) == 1
        assert _column_bytes(second) == _column_bytes(first)
        assert _column_bytes(second) == _column_bytes(
            store.load_segment(0, mmap=False)
        )
        assert len(calls) == 1  # the unmapped load neither parses nor memoizes

    def test_two_stores_on_one_directory_do_not_share_a_memo(
        self, store, monkeypatch
    ):
        calls = _count_parses(monkeypatch)
        store.load_segment(0)
        SegmentStore.open(store.directory).load_segment(0)
        assert len(calls) == 2

    def test_shard_views_share_their_stores_memo(self, store, monkeypatch):
        calls = _count_parses(monkeypatch)
        for shard in range(4):
            list(store.shard(shard, 4).iter_chunks(CHUNK_ROWS))
        assert len(calls) == store.num_segments

    def test_a_loaded_store_still_pickles(self, store, monkeypatch):
        list(store.iter_chunks())
        clone = pickle.loads(pickle.dumps(store))
        calls = _count_parses(monkeypatch)
        assert _outcome(clone) == _outcome(store)
        assert calls == []  # the memo travelled with it

    # -- a memoized layout never outlives the bytes it was parsed from ------
    def _first_column_offsets(self, path):
        """(local header, npy header, column data, central directory)."""
        with zipfile.ZipFile(path) as archive:
            local = archive.getinfo("issue_time.npy").header_offset
            start_dir = archive.start_dir
        with open(path, "rb") as raw:
            raw.seek(local + 26)
            name_len = int.from_bytes(raw.read(2), "little")
            extra_len = int.from_bytes(raw.read(2), "little")
            npy = local + 30 + name_len + extra_len
            raw.seek(npy)
            assert np.lib.format.read_magic(raw) == (1, 0)
            np.lib.format.read_array_header_1_0(raw)
            return local, npy, raw.tell(), start_dir

    def _flip_in_place(self, path, offset):
        """Flip one byte, restoring size, mtime and inode."""
        before = path.stat()
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ 0x01]))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_size, after.st_mtime_ns, after.st_ino) == (
            before.st_size, before.st_mtime_ns, before.st_ino
        )

    def _damage(self, kind, path):
        local, npy, _, start_dir = self._first_column_offsets(path)
        raw = path.read_bytes()
        if kind == "truncated":
            path.write_bytes(raw[:-16])
        elif kind == "deleted":
            path.unlink()
        elif kind == "local-header":
            self._flip_in_place(path, local)
        elif kind == "npy-header-shape":
            # last digit of the shape: a *valid* header for other rows
            self._flip_in_place(path, raw.index(b",)", npy) - 1)
        elif kind == "central-directory":
            self._flip_in_place(path, start_dir)
        elif kind == "format-version":
            member = raw.index(b"format_version.npy")  # its local header
            self._flip_in_place(path, raw.index(b"\n", member) + 1)
        else:
            raise AssertionError(kind)

    @pytest.mark.parametrize("kind", [
        "truncated", "deleted", "local-header", "npy-header-shape",
        "central-directory", "format-version",
    ])
    def test_damaged_file_fails_as_it_does_for_a_fresh_store(
        self, store, monkeypatch, kind
    ):
        store.load_segment(0)
        self._damage(kind, store.directory / store.segments[0].file)
        expected = _outcome(_unmemoized(store))
        assert isinstance(expected, str)  # every one of these is an error
        calls = _count_parses(monkeypatch)
        assert _outcome(store) == expected
        assert len(calls) == (0 if kind == "deleted" else 1)  # never a hit
        assert isinstance(_outcome(store, 1), list)  # others unaffected

    def test_replaced_file_is_served_fresh(self, store, monkeypatch):
        old = store.load_segment(0)
        replacement = ColumnarTrace(
            issue_time=old.issue_time,
            completion_time=old.completion_time,
            address=old.address + 8,
            block_count=old.block_count,
            is_write=~old.is_write,
            aligned_4k=old.aligned_4k,
            description="replacement",
        )
        path = store.directory / store.segments[0].file
        staged = path.with_suffix(".new")
        replacement.save_npz(staged)
        os.replace(staged, path)
        calls = _count_parses(monkeypatch)
        assert _column_bytes(store.load_segment(0)) == _column_bytes(replacement)
        assert len(calls) == 1
        assert _outcome(store) == _outcome(_unmemoized(store))

    def test_flipped_data_byte_is_served_as_mapped(self, store, monkeypatch):
        """Column data was never checksummed: a hit, like a parse, maps it."""
        before = float(store.load_segment(0).issue_time[0])
        path = store.directory / store.segments[0].file
        self._flip_in_place(path, self._first_column_offsets(path)[2])
        calls = _count_parses(monkeypatch)
        after = store.load_segment(0)
        assert calls == []
        assert float(after.issue_time[0]) != before
        assert _column_bytes(after) == _outcome(_unmemoized(store))


def _rows(issue_times):
    n = len(issue_times)
    return ColumnarTrace(
        issue_time=np.asarray(issue_times, dtype=np.float64),
        completion_time=np.asarray(issue_times, dtype=np.float64) + 0.5,
        address=np.arange(n, dtype=np.int64) * 8,
        block_count=np.ones(n, dtype=np.int32),
        is_write=np.zeros(n, dtype=np.bool_),
        aligned_4k=np.ones(n, dtype=np.bool_),
    )


class TestIssueOrder:
    def test_append_refuses_a_chunk_from_the_past(self, tmp_path):
        writer = SegmentWriter(tmp_path / "store")
        writer.append(_rows([100, 101, 102, 103]))
        with pytest.raises(SegmentError, match="before the store's last"):
            writer.append(_rows([5, 6, 7, 8]))

    def test_append_refuses_unsorted_rows(self, tmp_path):
        writer = SegmentWriter(tmp_path / "store")
        with pytest.raises(SegmentError, match="issue-time order"):
            writer.append(_rows([1, 3, 2, 4]))
        with pytest.raises(SegmentError, match="issue-time order"):
            writer.append(_rows([1, 2, 3, 0]), max_rows=2)

    def test_equal_times_across_a_boundary_are_legal(self, tmp_path):
        writer = SegmentWriter(tmp_path / "store")
        writer.append(_rows([1, 2, 2]))
        writer.append(_rows([2, 2, 3]), max_rows=1)
        store = writer.finalize()
        assert store.load_all().issue_time.tolist() == [1, 2, 2, 2, 2, 3]

    def test_open_refuses_a_manifest_that_runs_backwards(self, tmp_path):
        writer = SegmentWriter(tmp_path / "store")
        writer.append(_rows([1, 2, 3]))
        writer.append(_rows([4, 5, 6]))
        writer.finalize()
        manifest = tmp_path / "store" / MANIFEST_NAME
        payload = json.loads(manifest.read_text())
        payload["segments"][1]["first_issue"] = 2.5
        manifest.write_text(json.dumps(payload))
        with pytest.raises(SegmentError, match="out of issue-time order"):
            SegmentStore.open(tmp_path / "store")


@st.composite
def _drawn_stores(draw):
    """(columns, rows_per_segment, chunk_rows): few blocks, many repeats."""
    n = draw(st.integers(1, 24))
    gaps = draw(st.lists(
        st.sampled_from([0.0, 1.0, 20000.0, 50000.0]), min_size=n, max_size=n
    ))
    issue = np.cumsum(gaps)
    servers = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    offsets = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    blocks = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    columns = ColumnarTrace(
        issue_time=issue,
        completion_time=issue + 0.25,
        address=[pack_address(s, 0, o) for s, o in zip(servers, offsets)],
        block_count=blocks,
        is_write=draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        aligned_4k=np.zeros(n, dtype=np.bool_),
    )
    rows_per_segment = draw(st.integers(1, n))
    chunk_rows = draw(st.one_of(st.none(), st.integers(1, n)))
    return columns, rows_per_segment, chunk_rows


class TestStreamedDailyCountsProperty:
    SHARDS = 3

    @settings(max_examples=60, deadline=None)
    @given(_drawn_stores())
    def test_streamed_counts_equal_the_whole_traces(self, drawn):
        columns, rows_per_segment, chunk_rows = drawn
        days = int(columns.issue_time[-1] // 86400) + 1
        with tempfile.TemporaryDirectory() as scratch:
            store = segment_columnar(
                columns, Path(scratch) / "store", rows_per_segment
            )
            whole = store.load_all()
            sources = [(store, whole)]
            for shard in range(self.SHARDS):
                mask = shard_of_servers(whole.server_ids, self.SHARDS) == shard
                sources.append((
                    store.shard(shard, self.SHARDS),
                    whole.take(np.flatnonzero(mask)),
                ))
            for source, materialized in sources:
                expected = materialized.daily_block_counts(days)
                first = source.daily_block_counts(days, chunk_rows)
                second = source.daily_block_counts(days, chunk_rows)
                assert first == expected and second == expected
                assert all(type(c) is BlockCounts for c in first)
                # Equal but independent: a caller may consume its result.
                for table in first:
                    table.counts += 1
                assert second == expected
                assert source.daily_block_counts(days, chunk_rows) == expected

    def test_a_day_spanning_chunks_is_summed(self, tmp_path):
        columns = _rows([10, 20, 30, 40])
        columns.address[:] = 8  # one block, touched by every chunk
        store = segment_columnar(columns, tmp_path / "store", 2)
        assert store.daily_block_counts(1, chunk_rows=1) == [BlockCounts([8], [4])]
        assert store.shard(0, 1).daily_block_counts(1) == [BlockCounts([8], [4])]
