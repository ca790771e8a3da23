"""Shard-level replay coordinator: equivalence, faults, checkpoints."""

import json
import struct

import pytest

from repro.cache.stats import CacheStats
from repro.sim.engine import simulate
from repro.sim.experiment import ExperimentContext, build_policy
from repro.sim.parallel import (
    FAULT_ENV_VAR,
    SHARD_MANIFEST_VERSION,
    run_sharded_replay,
    shard_task_names,
)
from repro.sim.serialize import (
    CHECKPOINT_MAGIC,
    save_checkpoint,
    stats_to_dict,
)
from repro.traces import tiny_config
from repro.traces.segments import segment_columnar
from repro.traces.synthetic import EnsembleTraceGenerator

ROWS_PER_SEGMENT = 4000
CHUNK_ROWS = 2500
DAYS = 3
SCALE = 1e-4
SHARDS = 4


@pytest.fixture(scope="module")
def seg_columns():
    return EnsembleTraceGenerator(tiny_config(days=DAYS)).generate_columnar()


@pytest.fixture(scope="module")
def seg_store(tmp_path_factory, seg_columns):
    directory = tmp_path_factory.mktemp("shard-replay") / "store"
    return segment_columnar(
        seg_columns, directory, rows_per_segment=ROWS_PER_SEGMENT
    )


@pytest.fixture(scope="module")
def serial_run(seg_store):
    """The reference: four shards replayed serially in-process."""
    return run_sharded_replay(
        seg_store, "sievestore-c", days=DAYS, scale=SCALE, shards=SHARDS,
        jobs=1, track_minutes=False, chunk_rows=CHUNK_ROWS,
    )


def stats_json(stats) -> str:
    return json.dumps(stats_to_dict(stats), sort_keys=True)


class TestShardedEquivalence:
    def test_single_shard_matches_unsharded_simulate(
        self, seg_store, seg_columns
    ):
        context = ExperimentContext(
            trace=seg_columns,
            days=DAYS,
            scale=SCALE,
            daily_counts=seg_columns.daily_block_counts(DAYS),
        )
        policy, capacity = build_policy("sievestore-c", context)
        unsharded = simulate(
            seg_columns, policy, capacity_blocks=capacity, days=DAYS,
            track_minutes=False, fast_path=True,
        )
        run = run_sharded_replay(
            seg_store, "sievestore-c", days=DAYS, scale=SCALE, shards=1,
            jobs=1, track_minutes=False, chunk_rows=CHUNK_ROWS,
        )
        assert run.ok
        assert stats_json(run.stats) == stats_json(unsharded.stats)

    def test_serial_shards_all_complete_and_merge(
        self, serial_run, seg_columns
    ):
        assert serial_run.ok
        assert list(serial_run.shard_stats) == shard_task_names(SHARDS)
        merged_accesses = sum(
            day.accesses for day in serial_run.stats.per_day
        )
        shard_accesses = sum(
            day.accesses
            for stats in serial_run.shard_stats.values()
            for day in stats.per_day
        )
        assert merged_accesses == shard_accesses
        # Sharding repartitions the trace but never drops requests.
        assert stats_json(serial_run.stats) == stats_json(
            CacheStats.merged(list(serial_run.shard_stats.values()))
        )

    def test_manifest_records_the_run(self, serial_run):
        manifest = serial_run.manifest
        assert manifest["schema"] == SHARD_MANIFEST_VERSION
        assert manifest["kind"] == "sharded-replay"
        assert manifest["policy"] == "sievestore-c"
        assert manifest["shards"] == SHARDS
        assert manifest["names"] == shard_task_names(SHARDS)
        assert manifest["chunk_rows"] == CHUNK_ROWS
        assert manifest["pool_broken"] is False
        assert len(manifest["tasks"]) == SHARDS
        assert all(t["outcome"] == "ok" for t in manifest["tasks"])
        assert all(t["retries"] == 0 for t in manifest["tasks"])


class TestFaultRecovery:
    def test_flaky_shard_retries_and_pool_matches_serial(
        self, seg_store, serial_run, tmp_path, monkeypatch
    ):
        marker = tmp_path / "flaky-marker"
        monkeypatch.setenv(FAULT_ENV_VAR, f"flaky:shard-2:{marker}")
        run = run_sharded_replay(
            seg_store, "sievestore-c", days=DAYS, scale=SCALE,
            shards=SHARDS, jobs=2, track_minutes=False,
            chunk_rows=CHUNK_ROWS,
        )
        assert marker.exists()  # the fault actually fired
        assert run.ok
        assert stats_json(run.stats) == stats_json(serial_run.stats)
        record = next(
            t for t in run.manifest["tasks"] if t["policy"] == "shard-2"
        )
        assert record["outcome"] == "ok"
        assert record["retries"] == 1

    def test_persistent_failure_yields_no_merged_stats(
        self, seg_store, monkeypatch
    ):
        monkeypatch.setenv(FAULT_ENV_VAR, "raise:shard-1")
        run = run_sharded_replay(
            seg_store, "sievestore-c", days=DAYS, scale=SCALE,
            shards=SHARDS, jobs=1, track_minutes=False,
            chunk_rows=CHUNK_ROWS,
        )
        assert not run.ok
        assert run.stats is None  # partial merges would be silently wrong
        assert set(run.failures) == {"shard-1"}
        assert run.failures["shard-1"].error_type == "InjectedWorkerFault"
        record = next(
            t for t in run.manifest["tasks"] if t["policy"] == "shard-1"
        )
        assert record["outcome"] == "failed"
        # The healthy shards still report their statistics.
        assert len(run.shard_stats) == SHARDS - 1


    def test_worker_crash_falls_back_to_serial_shards(
        self, seg_store, serial_run, monkeypatch
    ):
        """A dead worker breaks the pool: every uncollected shard re-runs
        in-process with statistics byte-identical to the serial run's.
        The crashed shard itself cannot recover — in-process the injected
        crash degrades to a raise — so no merged statistics are reported."""
        monkeypatch.setenv(FAULT_ENV_VAR, "crash:shard-1")
        with pytest.warns(RuntimeWarning, match="worker pool broke"):
            run = run_sharded_replay(
                seg_store, "sievestore-c", days=DAYS, scale=SCALE,
                shards=SHARDS, jobs=2, track_minutes=False,
                chunk_rows=CHUNK_ROWS,
            )
        assert run.manifest["pool_broken"] is True
        assert not run.ok and run.stats is None
        assert set(run.failures) == {"shard-1"}
        records = {t["policy"]: t for t in run.manifest["tasks"]}
        assert records["shard-1"]["executor"] == "serial-fallback"
        assert records["shard-1"]["outcome"] == "failed"
        assert records["shard-1"]["retries"] == 1
        survivors = [n for n in shard_task_names(SHARDS) if n != "shard-1"]
        assert list(run.shard_stats) == survivors
        assert "serial-fallback" in {records[n]["executor"] for n in survivors}
        for name in survivors:
            assert stats_json(run.shard_stats[name]) == stats_json(
                serial_run.shard_stats[name]
            )
        # With the reference's shard-1 the survivors merge to its total.
        merged = CacheStats.merged([
            run.shard_stats.get(name, serial_run.shard_stats[name])
            for name in shard_task_names(SHARDS)
        ])
        assert stats_json(merged) == stats_json(serial_run.stats)

    def test_hung_shard_times_out_with_failure_record(
        self, seg_store, monkeypatch
    ):
        # The hang must outlast both timeout windows (first attempt +
        # retry); the timeout leaves healthy shards room to start up.
        monkeypatch.setenv(FAULT_ENV_VAR, "hang:shard-1:10.0")
        run = run_sharded_replay(
            seg_store, "sievestore-c", days=DAYS, scale=SCALE,
            shards=2, jobs=2, track_minutes=False,
            chunk_rows=CHUNK_ROWS, task_timeout=2.0,
        )
        assert run.stats is None
        assert list(run.shard_stats) == ["shard-0"]
        assert run.failures["shard-1"].error_type == "TimeoutError"
        assert run.failures["shard-1"].retries == 1
        record = next(
            t for t in run.manifest["tasks"] if t["policy"] == "shard-1"
        )
        assert record["outcome"] == "timeout"
        assert record["error"] == "task exceeded 2.0s timeout"


class TestCheckpointResume:
    def test_coordinator_resumes_a_half_finished_shard(
        self, seg_store, serial_run, tmp_path
    ):
        """A shard checkpoint left by a killed run is picked up — the
        coordinator resumes mid-shard instead of replaying from row 0,
        and the merged statistics still match a clean run."""

        class Killed(RuntimeError):
            pass

        def killer(requests_done, _current_epoch):
            if requests_done >= 2000:
                raise Killed(f"killed at {requests_done}")

        checkpoint_dir = tmp_path / "ckpts"
        checkpoint_dir.mkdir()
        view = seg_store.shard(2, SHARDS)
        context = ExperimentContext(
            trace=view,
            days=DAYS,
            scale=SCALE / SHARDS,
            daily_counts=view.daily_block_counts(
                DAYS, chunk_rows=CHUNK_ROWS
            ),
        )
        policy, capacity = build_policy("sievestore-c", context)
        path = checkpoint_dir / "shard-2.ckpt"
        with pytest.raises(Killed):
            simulate(
                view, policy, capacity_blocks=capacity, days=DAYS,
                track_minutes=False, fast_path=True, chunk_rows=CHUNK_ROWS,
                checkpoint_path=path, checkpoint_every=1000,
                progress_every=500, progress_hook=killer,
                label="sievestore-c",
            )
        assert path.exists()
        run = run_sharded_replay(
            seg_store, "sievestore-c", days=DAYS, scale=SCALE,
            shards=SHARDS, jobs=1, track_minutes=False,
            chunk_rows=CHUNK_ROWS, checkpoint_dir=checkpoint_dir,
            checkpoint_every=1000,
        )
        assert run.ok
        assert stats_json(run.stats) == stats_json(serial_run.stats)
        record = next(
            t for t in run.manifest["tasks"] if t["policy"] == "shard-2"
        )
        assert record["checkpoint"]["path"] == str(path)

    def test_unusable_checkpoint_warns_and_restarts(
        self, seg_store, serial_run, tmp_path
    ):
        checkpoint_dir = tmp_path / "ckpts"
        checkpoint_dir.mkdir()
        (checkpoint_dir / "shard-0.ckpt").write_bytes(b"not a checkpoint")
        # A well-formed file left behind by the previous schema version.
        stale = checkpoint_dir / "shard-1.ckpt"
        save_checkpoint({"cursor": 1}, stale)
        raw = bytearray(stale.read_bytes())
        struct.pack_into(">I", raw, len(CHECKPOINT_MAGIC), 2)
        stale.write_bytes(bytes(raw))
        with pytest.warns(RuntimeWarning, match="restarting the shard") as caught:
            run = run_sharded_replay(
                seg_store, "sievestore-c", days=DAYS, scale=SCALE,
                shards=SHARDS, jobs=1, track_minutes=False,
                chunk_rows=CHUNK_ROWS, checkpoint_dir=checkpoint_dir,
            )
        messages = sorted(
            str(w.message) for w in caught if "restarting" in str(w.message)
        )
        assert len(messages) == 2
        assert "shard-0" in messages[0] and "not a SieveStore" in messages[0]
        assert "shard-1" in messages[1] and "schema version 2 " in messages[1]
        assert run.ok
        assert stats_json(run.stats) == stats_json(serial_run.stats)
