"""On-disk trace cache: fingerprints, directory resolution, round-trips."""

import dataclasses

import pytest

from repro.obs import runtime
from repro.traces import tiny_config
from repro.traces.segments import SegmentStore
from repro.traces.store import (
    CACHE_ENV_VAR,
    _reset_non_directory_warnings,
    config_fingerprint,
    load_or_generate_columnar,
    load_or_generate_trace,
    segments_path_for,
    trace_cache_dir,
)
from repro.traces.synthetic import EnsembleTraceGenerator


class TestFingerprint:
    def test_deterministic(self):
        assert config_fingerprint(tiny_config()) == config_fingerprint(
            tiny_config()
        )

    def test_sensitive_to_every_field(self):
        base = tiny_config()
        for change in (
            {"seed": base.seed + 1},
            {"days": base.days + 1},
            {"scale": base.scale * 2},
        ):
            assert config_fingerprint(
                dataclasses.replace(base, **change)
            ) != config_fingerprint(base)

    def test_sensitive_to_ensemble_inventory(self):
        base = tiny_config()
        trimmed = dataclasses.replace(base, servers=base.servers[:-1])
        assert config_fingerprint(trimmed) != config_fingerprint(base)


class TestDirectoryResolution:
    def test_explicit_argument_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env"))
        assert trace_cache_dir(tmp_path / "arg") == tmp_path / "arg"

    def test_env_variable_used(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        assert trace_cache_dir() == tmp_path

    @pytest.mark.parametrize("value", ["", "0", "off", "none", " OFF "])
    def test_env_opt_out_disables(self, value, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, value)
        assert trace_cache_dir() is None
        assert segments_path_for(tiny_config()) is None

    def test_default_is_cwd_relative(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        monkeypatch.chdir(tmp_path)
        assert trace_cache_dir() == tmp_path / ".sievestore-trace-cache"

    def test_env_pointing_at_a_file_disables_with_warning(
        self, tmp_path, monkeypatch
    ):
        stray = tmp_path / "stray-file"
        stray.write_text("not a directory")
        monkeypatch.setenv(CACHE_ENV_VAR, str(stray))
        _reset_non_directory_warnings()
        with pytest.warns(RuntimeWarning, match="non-directory") as caught:
            assert trace_cache_dir() is None
        assert CACHE_ENV_VAR in str(caught[0].message)
        assert str(stray) in str(caught[0].message)
        assert segments_path_for(tiny_config()) is None

    def test_non_directory_warning_fires_once_per_path(
        self, tmp_path, monkeypatch
    ):
        import warnings

        stray = tmp_path / "stray-file"
        stray.write_text("not a directory")
        monkeypatch.setenv(CACHE_ENV_VAR, str(stray))
        _reset_non_directory_warnings()
        with pytest.warns(RuntimeWarning, match="non-directory"):
            trace_cache_dir()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert trace_cache_dir() is None

    def test_non_directory_env_still_generates_the_trace(
        self, tmp_path, monkeypatch
    ):
        stray = tmp_path / "stray-file"
        stray.write_text("not a directory")
        monkeypatch.setenv(CACHE_ENV_VAR, str(stray))
        _reset_non_directory_warnings()
        with pytest.warns(RuntimeWarning, match="non-directory"):
            columns = load_or_generate_columnar(tiny_config())
        fresh = EnsembleTraceGenerator(tiny_config()).generate_columnar()
        assert columns.equals(fresh)
        assert stray.read_text() == "not a directory"  # untouched


def _first_segment(config, cache_dir):
    store = SegmentStore.open(segments_path_for(config, cache_dir))
    return store.directory / store.segments[0].file


class TestLoadOrGenerate:
    def test_miss_generates_and_populates(self, tmp_path):
        config = tiny_config()
        columns = load_or_generate_columnar(config, tmp_path)
        store = SegmentStore.open(segments_path_for(config, tmp_path))
        assert store.config_fingerprint == config_fingerprint(config)
        fresh = EnsembleTraceGenerator(config).generate_columnar()
        assert columns.equals(fresh)
        assert columns.description == fresh.description

    def test_hit_returns_identical_columns(self, tmp_path):
        config = tiny_config()
        with runtime.observability() as context:
            first = load_or_generate_columnar(config, tmp_path)
            second = load_or_generate_columnar(config, tmp_path)
        assert second.equals(first)
        lookups = context.registry.get("trace_cache_requests_total")
        assert lookups.value(outcome="hit") == 1

    def _recovers(self, config, tmp_path, first):
        """The damaged entry is warned about (by path), evicted, counted
        and regenerated into a store that reads back whole."""
        target = segments_path_for(config, tmp_path)
        with runtime.observability() as context:
            with pytest.warns(RuntimeWarning, match="evicting and regenerating") as rec:
                recovered = load_or_generate_columnar(config, tmp_path)
        assert str(target) in str(rec.list[0].message)
        assert recovered.equals(first)
        assert SegmentStore.open(target).load_all().equals(first)
        lookups = context.registry.get("trace_cache_requests_total")
        outcomes = {o: lookups.value(outcome=o) for o in ("hit", "miss", "corrupt")}
        assert outcomes == {"hit": 0, "miss": 1, "corrupt": 1}

    def test_corrupt_entry_warns_evicts_and_regenerates(self, tmp_path):
        config = tiny_config()
        first = load_or_generate_columnar(config, tmp_path)
        segment = _first_segment(config, tmp_path)
        segment.write_bytes(b"\x00" * segment.stat().st_size)  # opens fine
        self._recovers(config, tmp_path, first)

    def test_truncated_entry_warns_and_regenerates(self, tmp_path):
        # A partially-written segment (valid magic, cut short) must not
        # propagate a zip error out of the loader.
        config = tiny_config()
        first = load_or_generate_columnar(config, tmp_path)
        segment = _first_segment(config, tmp_path)
        segment.write_bytes(segment.read_bytes()[: segment.stat().st_size // 2])
        self._recovers(config, tmp_path, first)

    def test_flipped_payload_byte_warns_and_regenerates(self, tmp_path):
        # Same size, intact zip and npy headers: only the member's
        # checksum shows the damage.
        config = tiny_config()
        first = load_or_generate_columnar(config, tmp_path)
        segment = _first_segment(config, tmp_path)
        raw = bytearray(segment.read_bytes())
        raw[len(raw) // 2] ^= 0x01  # inside column data, not a header
        segment.write_bytes(bytes(raw))
        SegmentStore.open(segment.parent)  # the manifest checks all pass
        self._recovers(config, tmp_path, first)

    def test_disabled_cache_still_generates(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, "off")
        monkeypatch.chdir(tmp_path)
        columns = load_or_generate_columnar(tiny_config())
        assert len(columns) > 0
        assert not (tmp_path / ".sievestore-trace-cache").exists()

    def test_object_trace_convenience(self, tmp_path):
        config = tiny_config()
        trace = load_or_generate_trace(config, tmp_path)
        assert trace.requests == load_or_generate_columnar(
            config, tmp_path
        ).to_trace().requests

    def test_unwritable_cache_warns_but_returns_trace(self, tmp_path):
        # The cache dir path is occupied by a *file*.  An explicit
        # cache_dir gets the same warn-once-and-disable guard as the
        # environment variable: the trace must still come back, with
        # one warning explaining the non-directory path instead of a
        # confusing mkdir failure on every cache write.
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("in the way")
        config = tiny_config()
        _reset_non_directory_warnings()
        with pytest.warns(RuntimeWarning, match="non-directory"):
            columns = load_or_generate_columnar(config, blocker)
        assert len(columns) > 0
        fresh = EnsembleTraceGenerator(config).generate_columnar()
        assert columns.equals(fresh)

    def test_unwritable_cache_directory_warns_and_generates(self, tmp_path):
        # The cache directory cannot be created (its parent is a file):
        # the write fails, and the trace still comes back.
        blocker = tmp_path / "a-file"
        blocker.write_text("in the way")
        config = tiny_config()
        with pytest.warns(RuntimeWarning, match="trace cache write failed") as rec:
            columns = load_or_generate_columnar(config, blocker / "cache")
        assert str(blocker / "cache") in str(rec.list[0].message)
        assert columns.equals(EnsembleTraceGenerator(config).generate_columnar())
        assert blocker.read_text() == "in the way"
