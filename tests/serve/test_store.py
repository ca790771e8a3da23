"""The sharded byte store (repro.serve.store) — including the
concurrent reader/writer torture test."""

import os
import random
import signal
import sqlite3
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import runtime
from repro.serve.backend import EnsembleBackend
from repro.serve.store import (
    _SHARD_SALT,
    DEFAULT_SHARDS,
    STAGE_ENTRIES,
    STORE_LAYOUT_VERSION,
    ShardedByteStore,
    StoreError,
)
from repro.util.hashing import stable_bucket


@pytest.fixture
def store(tmp_path):
    with ShardedByteStore(tmp_path / "store", shards=4, inline_bytes=32) as s:
        yield s


class TestBasicOperations:
    def test_get_put_roundtrip_inline(self, store):
        store.put(1, b"payload")
        assert store.get(1) == b"payload"

    def test_get_put_roundtrip_spilled(self, store):
        value = b"x" * 100  # above inline_bytes=32
        store.put(2, value)
        assert store.get(2) == value
        shard = store._shard_dir(store.shard_of(2))
        assert (shard / f"{2:016x}.val").exists()

    def test_missing_key(self, store):
        assert store.get(99) is None
        assert not store.contains(99)
        assert store.delete(99) is False

    def test_overwrite_spilled_with_inline_drops_the_file(self, store):
        store.put(3, b"y" * 100)
        path = store._shard_dir(store.shard_of(3)) / f"{3:016x}.val"
        assert path.exists()
        store.put(3, b"tiny")
        assert store.get(3) == b"tiny"
        assert not path.exists()

    def test_delete_spilled_removes_the_file(self, store):
        store.put(4, b"z" * 100)
        path = store._shard_dir(store.shard_of(4)) / f"{4:016x}.val"
        assert store.delete(4) is True
        assert not path.exists()
        assert store.get(4) is None

    def test_len_and_keys(self, store):
        for key in (1, 2, 3):
            store.put(key, b"v")
        assert len(store) == 3
        assert sorted(store.keys()) == [1, 2, 3]
        assert sum(store.shard_sizes().values()) == 3

    def test_missing_spilled_file_self_heals(self, store):
        store.put(5, b"w" * 100)
        (store._shard_dir(store.shard_of(5)) / f"{5:016x}.val").unlink()
        assert store.get(5) is None  # row dropped, key misses cleanly
        assert not store.contains(5)

    def test_non_bytes_rejected(self, store):
        with pytest.raises(TypeError, match="bytes-like"):
            store.put(1, "text")

    def test_connections_are_pooled_again_after_close(self, store):
        store.put(1, b"payload")
        store.close()
        # An emptied pool is still the pool: one connection per shard,
        # reused, and closed by the next close().
        conn = store._connection(0)
        assert store._connection(0) is conn
        assert store.get(1) == b"payload"
        store.close()
        with pytest.raises(sqlite3.ProgrammingError):
            conn.execute("SELECT 1")


class TestLayout:
    def test_shard_count_frozen_at_init(self, tmp_path):
        ShardedByteStore(tmp_path / "s", shards=4).close()
        reopened = ShardedByteStore(tmp_path / "s", shards=16)
        assert reopened.shards == 4  # recorded fanout wins
        reopened.close()

    def test_layout_version_mismatch_refused(self, tmp_path):
        ShardedByteStore(tmp_path / "s").close()
        meta = tmp_path / "s" / "store.json"
        meta.write_text(
            meta.read_text().replace(
                str(STORE_LAYOUT_VERSION), str(STORE_LAYOUT_VERSION + 1)
            )
        )
        with pytest.raises(StoreError, match="layout version"):
            ShardedByteStore(tmp_path / "s")

    def test_corrupt_metadata_refused(self, tmp_path):
        (tmp_path / "s").mkdir()
        (tmp_path / "s" / "store.json").write_text("not json")
        with pytest.raises(StoreError, match="unreadable"):
            ShardedByteStore(tmp_path / "s")

    def test_invalid_parameters(self, tmp_path):
        with pytest.raises(ValueError, match="shards"):
            ShardedByteStore(tmp_path / "a", shards=0)
        with pytest.raises(ValueError, match="inline_bytes"):
            ShardedByteStore(tmp_path / "b", inline_bytes=-1)

    def test_shard_placement_is_deterministic(self, tmp_path):
        first = ShardedByteStore(tmp_path / "s", shards=DEFAULT_SHARDS)
        second = ShardedByteStore(tmp_path / "s")
        assert all(first.shard_of(k) == second.shard_of(k) for k in range(200))
        first.close()
        second.close()

    @settings(max_examples=25, deadline=None)
    @given(
        shards=st.integers(1, 12),
        keys=st.lists(st.integers(-(2**63), 2**64), min_size=1, max_size=50),
    )
    def test_shard_of_is_the_salted_stable_bucket(self, shards, keys):
        with tempfile.TemporaryDirectory() as scratch:
            with ShardedByteStore(scratch, shards=shards) as store:
                for key in keys:
                    assert store.shard_of(key) == stable_bucket(
                        key, shards, salt=_SHARD_SALT
                    )


class TestCrossInstance:
    def test_two_instances_share_one_directory(self, tmp_path):
        a = ShardedByteStore(tmp_path / "s", shards=2, inline_bytes=16)
        b = ShardedByteStore(tmp_path / "s", shards=2, inline_bytes=16)
        a.put(1, b"from-a" * 10)
        b.put(2, b"from-b")
        # A put is visible to other instances from its shard's commit on.
        assert b.get(1) is None and not b.contains(1)
        assert a.get(2) is None
        a.flush()
        b.flush()
        assert b.get(1) == b"from-a" * 10
        assert a.get(2) == b"from-b"
        a.close()
        b.close()

    def test_close_commits_and_leaves_no_intent_log(self, tmp_path):
        with ShardedByteStore(tmp_path / "s", shards=2, inline_bytes=16) as a:
            a.put(1, b"inline")
            a.put(2, b"spilled" * 10)
            assert _intent_logs(tmp_path / "s")
        assert _intent_logs(tmp_path / "s") == []
        with ShardedByteStore(tmp_path / "s") as b:
            assert b.get(1) == b"inline"
            assert b.get(2) == b"spilled" * 10


def _intent_logs(directory):
    return sorted(directory.glob("shard-*/intent-*.log"))


def _keys_in_shard(store, index, count):
    keys = (key for key in range(10**6) if store.shard_of(key) == index)
    return [next(keys) for _ in range(count)]


def _commits(registry):
    metric = registry.get("serve_store_commits_total")
    return 0 if metric is None else metric.value()


class TestStaging:
    @pytest.mark.parametrize("value", [b"tiny", b"s" * 100], ids=["inline", "spilled"])
    def test_a_staged_key_reads_back_before_its_commit(self, store, value):
        store.put(7, value)
        assert store._stages[store.shard_of(7)]  # still staged
        assert store.get(7) == value
        assert store.contains(7) and 7 in store

    def test_delete_of_a_staged_key(self, store):
        store.put(8, b"staged")
        assert store.delete(8) is True
        assert store.get(8) is None and not store.contains(8)
        assert store.delete(8) is False

    def test_delete_of_a_staged_update_drops_the_committed_row_too(self, tmp_path):
        with ShardedByteStore(tmp_path / "s", shards=2, inline_bytes=32) as a:
            a.put(9, b"old" * 20)
            a.flush()
            a.put(9, b"new")
            assert a.delete(9) is True
            assert a.get(9) is None
            with ShardedByteStore(tmp_path / "s") as b:
                assert b.get(9) is None
            assert list((tmp_path / "s").rglob("*.val")) == []

    def test_delete_commits_the_rest_of_the_stage(self, tmp_path):
        with ShardedByteStore(tmp_path / "s", shards=1) as a:
            a.put(1, b"one")
            a.put(2, b"two")
            a.delete(1)
            with ShardedByteStore(tmp_path / "s") as b:
                assert b.get(2) == b"two"

    def test_spill_replaced_inline_in_one_stage_leaves_no_orphan(self, store):
        store.put(10, b"v" * 100)
        path = store._shard_dir(store.shard_of(10)) / f"{10:016x}.val"
        assert path.exists()
        store.put(10, b"small")
        assert not path.exists()
        store.flush()
        assert store.get(10) == b"small"
        assert list(store.directory.rglob("*.val")) == []

    @pytest.mark.parametrize("puts", [1, 63, 64, 65, 200])
    def test_puts_to_one_shard_commit_once_per_stage(self, tmp_path, puts):
        with runtime.observability() as obs:
            with ShardedByteStore(tmp_path / "s", shards=4) as store:
                keys = _keys_in_shard(store, 2, puts)
                for key in keys:
                    store.put(key, b"payload")
                store.flush()
                assert _commits(obs.registry) == -(-puts // STAGE_ENTRIES)
                assert sorted(store.keys()) == sorted(keys)
            assert _commits(obs.registry) == -(-puts // STAGE_ENTRIES)

    def test_a_key_sqlite_cannot_hold_is_refused_at_the_put(self, store):
        with pytest.raises(OverflowError, match="sqlite INTEGER"):
            store.put(2**64, b"v")
        store.put(1, b"v")
        store.flush()
        assert store.get(1) == b"v"


def _versioned(key, version, length):
    """``key‖version``, padded so its length picks inline or spilled."""
    return (b"%d:%d:" % (key, version)).ljust(length, b".")


def _crashing_writer(directory, seed, first_version, pipe):
    """Put (and now and then delete) versioned values until killed,
    reporting each operation over ``pipe`` before and after the call."""
    rng = random.Random(seed)
    version = first_version
    with ShardedByteStore(directory, shards=2, inline_bytes=64) as store:
        while True:
            key = rng.randrange(CRASH_KEYS)
            version += 1
            if rng.random() < 0.05:
                pipe.send(("delete", key, version))
                store.delete(key)
            else:
                length = 200 if rng.random() < 0.15 else 32
                pipe.send(("put", key, version))
                store.put(key, _versioned(key, version, length))
            pipe.send(("ack", key, version))


CRASH_KEYS = 300  # over 2 shards: stages fill and commit between kills


class TestCrashConsistency:
    def test_sigkill_never_leaves_a_stale_version(self, tmp_path):
        """A writer SIGKILLed at seeded points, reopened after each kill:
        every key is absent or holds its last acknowledged or in-flight
        version, every row's spill file exists, every spill file is
        named by a row, and no intent log survives the reopen."""
        import multiprocessing

        directory = tmp_path / "store"
        rng = random.Random(27)
        acked = {}  # key -> last acknowledged version (None: deleted)
        deadline = time.monotonic() + 10
        rounds = 0
        while rounds < 20 and time.monotonic() < deadline:
            receiver, sender = multiprocessing.Pipe(duplex=False)
            writer = multiprocessing.Process(
                target=_crashing_writer,
                args=(directory, rounds, rounds * 10**6, sender),
            )
            writer.start()
            sender.close()
            in_flight = None
            messages = rng.randrange(20, 1500)
            received = 0
            while True:
                if received == messages:
                    os.kill(writer.pid, signal.SIGKILL)
                    writer.join()
                try:
                    op, key, version = receiver.recv()
                except EOFError:
                    break
                received += 1
                if op == "ack":
                    acked[key] = in_flight[2]
                    in_flight = None
                else:
                    in_flight = (key, op, version if op == "put" else None)
            writer.join()
            assert writer.exitcode == -signal.SIGKILL, "writer exited on its own"
            receiver.close()
            rounds += 1

            with ShardedByteStore(directory) as store:
                assert _intent_logs(directory) == []
                named = set()
                for index in range(store.shards):
                    shard = store._shard_dir(index)
                    rows = store._connection(index).execute(
                        "SELECT key, filename FROM cache"
                    ).fetchall()
                    for key, filename in rows:
                        if filename is not None:
                            assert (shard / filename).exists(), (key, filename)
                            named.add(shard / filename)
                assert set(directory.rglob("*.val")) == named
                for key in range(CRASH_KEYS):
                    allowed = {None, acked.get(key)}
                    if in_flight is not None and in_flight[0] == key:
                        allowed.add(in_flight[2])
                    value = store.get(key)
                    version = None
                    if value is not None:
                        stored_key, version, _ = value.split(b":", 2)
                        assert int(stored_key) == key
                        version = int(version)
                        assert value == _versioned(key, version, len(value))
                    assert version in allowed, (key, version, allowed)
            assert _intent_logs(directory) == []
        assert rounds >= 10


class TestTorture:
    def test_concurrent_readers_and_writers(self, tmp_path):
        """Readers racing writers never see torn or foreign bytes.

        Every thread gets its own store instance over one directory
        (the bench's multi-client shape, minus the process boundary).
        Values are the deterministic backend payloads, so a reader can
        verify every byte it gets back; ``None`` (not yet written /
        deleted) is the only other legal outcome.
        """
        directory = tmp_path / "torture"
        backend = EnsembleBackend(payload_bytes=256, seed=11)
        keys = list(range(64))
        rounds = 30
        errors = []
        stop = threading.Event()

        def writer(offset):
            with ShardedByteStore(directory, shards=4, inline_bytes=64) as s:
                for round_no in range(rounds):
                    for key in keys[offset::2]:
                        s.put(key, backend.payload(key))
                        if (key + round_no) % 7 == 0:
                            s.delete(key)

        def reader():
            with ShardedByteStore(directory, shards=4, inline_bytes=64) as s:
                while not stop.is_set():
                    for key in keys:
                        value = s.get(key)
                        if value is not None and value != backend.payload(key):
                            errors.append((key, value))
                            return

        writers = [threading.Thread(target=writer, args=(i,)) for i in (0, 1)]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=120)
        stop.set()
        for thread in readers:
            thread.join(timeout=120)
        assert errors == []


def _open_fresh_stores(index, base, rounds, openers, arrived):
    errors = []
    for round_no in range(rounds):
        with ShardedByteStore(base / f"round-{round_no}", shards=1) as s:
            # Connections open lazily: the first put is what creates the
            # database file and switches it to WAL.  Spin, don't block —
            # a waking barrier staggers the openers past the race window.
            with arrived.get_lock():
                arrived.value += 1
            while arrived.value < (round_no + 1) * openers:
                pass
            try:
                s.put(index, b"payload-%d" % index)
            except Exception as exc:  # reported to the parent, not raised
                errors.append(f"round {round_no}: {exc!r}")
    (base / f"opener-{index}.log").write_text("\n".join(errors))


class TestFreshStoreRace:
    def test_processes_opening_one_new_store_all_succeed(self, tmp_path):
        """Openers racing to switch a brand-new shard database to WAL
        must all get through: that switch needs an exclusive lock, and
        sqlite fails it at once instead of waiting out the busy timeout
        when two openers ask for it together."""
        import multiprocessing

        openers, rounds = 4, 20
        arrived = multiprocessing.Value("i", 0)
        processes = [
            multiprocessing.Process(
                target=_open_fresh_stores,
                args=(index, tmp_path, rounds, openers, arrived),
            )
            for index in range(openers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
        assert [p.exitcode for p in processes] == [0] * openers
        for index in range(openers):
            assert (tmp_path / f"opener-{index}.log").read_text() == ""
        for round_no in range(rounds):
            with ShardedByteStore(tmp_path / f"round-{round_no}") as s:
                assert sorted(s.keys()) == list(range(openers))

    def test_wal_switch_retries_within_the_sqlite_timeout(self, tmp_path):
        """The race above, made deterministic: the loser of the lock
        retries; a database that stays locked still fails after
        ``sqlite_timeout``."""
        import sqlite3

        class Contended:
            def __init__(self, failures):
                self.failures = failures
                self.calls = 0

            def execute(self, sql):
                assert sql == "PRAGMA journal_mode = WAL"
                self.calls += 1
                if self.calls <= self.failures:
                    raise sqlite3.OperationalError("database is locked")

        store = ShardedByteStore(tmp_path / "s", sqlite_timeout=0.05)
        loser = Contended(failures=3)
        store._enable_wal(loser)
        assert loser.calls == 4
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            store._enable_wal(Contended(failures=10**9))
        store.close()
