"""Segment stores: round-trips, manifest validation, shard views."""

import json

import numpy as np
import pytest

from repro.traces import tiny_config
from repro.traces.columnar import ColumnarTrace
from repro.traces.segments import (
    MANIFEST_NAME,
    SEGMENT_MANIFEST_VERSION,
    SegmentError,
    SegmentStore,
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
