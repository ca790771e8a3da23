"""Sqlite+file shard-fanout byte store: the serve layer's real device.

This is the first layer of the reproduction that stores *actual bytes
on an actual filesystem* instead of counting frames.  The design
follows ``python-diskcache``'s ``core.py``: sqlite rows carry the
metadata (and small values inline as BLOBs), large values spill into
sibling files, and the whole keyspace fans out over ``shards``
independent sqlite databases so concurrent writers contend on 1/Nth of
the lock space instead of one global file lock.

Layout under ``directory``::

    store.json                    # shard count + layout version (frozen at init)
    shard-000/data.sqlite         # rows: key, size, raw BLOB | filename
    shard-000/<key:016x>.val      # spilled values (atomic_write, fsynced)
    shard-000/intent-<token>.log  # keys a live instance has in flight (flock-held)
    shard-001/...

Shard selection is ``stable_bucket(key, shards, salt)`` — SplitMix64,
the same deterministic hash the IMCT uses — so any process computes the
same placement with no coordination.

Writes are group-committed.  :meth:`ShardedByteStore.put` stages its
row in the shard's in-memory stage and returns; a shard's stage commits
as one transaction when it holds :data:`STAGE_ENTRIES` rows, and on
:meth:`~ShardedByteStore.flush`, :meth:`~ShardedByteStore.close`,
:meth:`~ShardedByteStore.keys` and ``len()``.  A
:meth:`~ShardedByteStore.delete` commits its shard's stage together
with the deletion.

Concurrency contract: every :class:`ShardedByteStore` instance is safe
to share between threads (connections are per-thread via
``threading.local``; a lock per shard guards its stage), and any number
of instances/processes may operate on one directory concurrently
(sqlite WAL + busy timeout).  The instance that staged a put reads it
back at once; every other instance sees it at that shard's next commit.
Readers never see partial values: inline BLOBs are transactional,
spilled files are published with :func:`repro.util.atomic.atomic_write`
*before* the row that names them.

Crash contract: before ``put`` or ``delete`` returns, its key is in the
shard's intent log — an ``O_APPEND`` write with no fsync, which
survives process death just as a ``synchronous=NORMAL`` WAL commit
does — and the log is truncated once the shard commits.  An instance
holds an ``flock`` on each of its logs while it lives, so an opener
that can take a log's lock has found a dead instance's: it deletes that
log's keys (rows and spill files) in one transaction and unlinks the
log.  A crash therefore loses the cached copies of the keys it had in
flight (at most a stage per shard), and never leaves an old row to
serve a key whose update was still staged.  The serve layer writes
through to its backend, so a cached copy is all a crash can lose.
"""

from __future__ import annotations

import fcntl
import json
import os
import secrets
import sqlite3
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.obs import runtime
from repro.util.atomic import atomic_write
from repro.util.hashing import mix64

#: Bump when the on-disk layout changes; opening refuses other versions.
STORE_LAYOUT_VERSION = 2

#: Values at or below this many bytes live inline in sqlite; larger
#: values spill into sibling files (diskcache's min_file_size idea).
DEFAULT_INLINE_BYTES = 4096

#: Default shard fanout.
DEFAULT_SHARDS = 8

#: Staged puts a shard holds before they commit as one transaction.
STAGE_ENTRIES = 64

#: Salt decorrelating shard placement from the IMCT's slot hashing.
_SHARD_SALT = 0x5E1EC7

#: The key range a sqlite INTEGER holds.
_MIN_KEY, _MAX_KEY = -(2**63), 2**63 - 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS cache (
    key INTEGER PRIMARY KEY,
    size INTEGER NOT NULL,
    raw BLOB,
    filename TEXT
)
"""

#: A staged row: ``(size, raw, filename)``, as the table stores it.
_Row = Tuple[int, Optional[bytes], Optional[str]]


class StoreError(Exception):
    """The store directory is unusable or layout-incompatible."""


def _spill_name(key: int) -> str:
    return f"{key & (2**64 - 1):016x}.val"


class ShardedByteStore:
    """A byte store fanned out over ``shards`` sqlite databases.

    See the module docs for the layout, concurrency and crash contract.
    All keys are Python ints that fit a sqlite INTEGER (the serve layer
    uses packed block addresses); values are ``bytes``.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        shards: int = DEFAULT_SHARDS,
        inline_bytes: int = DEFAULT_INLINE_BYTES,
        sqlite_timeout: float = 60.0,
    ):
        if shards < 1:
            raise ValueError(f"shards must be positive, got {shards}")
        if inline_bytes < 0:
            raise ValueError(f"inline_bytes must be >= 0, got {inline_bytes}")
        self.directory = Path(directory)
        self.inline_bytes = inline_bytes
        self._sqlite_timeout = sqlite_timeout
        self._local = threading.local()
        self.directory.mkdir(parents=True, exist_ok=True)
        self.shards = self._adopt_layout(shards)
        #: ``mix64(salt)`` hoisted out of :meth:`shard_of`, which is then
        #: a single mix, bit-identical to ``stable_bucket(key, shards, salt)``.
        self._salted = mix64(_SHARD_SALT)
        #: Per shard: the staged rows, the lock guarding them, and this
        #: instance's intent-log descriptor (opened on first use).
        self._stages: List[Dict[int, _Row]] = [{} for _ in range(self.shards)]
        self._locks = [threading.Lock() for _ in range(self.shards)]
        self._logs: List[Optional[int]] = [None] * self.shards
        self._token = secrets.token_hex(8)
        for index in range(self.shards):
            self._shard_dir(index).mkdir(exist_ok=True)
            self._recover(index)

    # -- layout ------------------------------------------------------------
    def _adopt_layout(self, shards: int) -> int:
        """Freeze (or adopt) the directory's shard count.

        The first store to initialize a directory writes ``store.json``;
        later opens adopt the recorded fanout (re-sharding in place
        would orphan every existing row), refusing only a layout-version
        mismatch.
        """
        meta_path = self.directory / "store.json"
        if meta_path.exists():
            try:
                meta = json.loads(meta_path.read_text())
            except (OSError, ValueError) as exc:
                raise StoreError(f"unreadable store metadata {meta_path}: {exc}")
            if meta.get("layout_version") != STORE_LAYOUT_VERSION:
                raise StoreError(
                    f"store {self.directory} has layout version "
                    f"{meta.get('layout_version')!r} "
                    f"(expected {STORE_LAYOUT_VERSION})"
                )
            return int(meta["shards"])
        with atomic_write(meta_path) as handle:
            handle.write(
                json.dumps(
                    {"layout_version": STORE_LAYOUT_VERSION, "shards": shards}
                ).encode()
            )
        return shards

    def _shard_dir(self, index: int) -> Path:
        return self.directory / f"shard-{index:03d}"

    def _log_path(self, index: int) -> Path:
        return self._shard_dir(index) / f"intent-{self._token}.log"

    def shard_of(self, key: int) -> int:
        """Deterministic shard index for a key (stable across processes)."""
        return mix64(key ^ self._salted) % self.shards

    # -- connections -------------------------------------------------------
    def _connection(self, index: int) -> sqlite3.Connection:
        """This thread's connection to one shard (opened lazily)."""
        try:
            pool: Dict[int, sqlite3.Connection] = self._local.connections
        except AttributeError:
            pool = self._local.connections = {}
        conn = pool.get(index)
        if conn is None:
            conn = sqlite3.connect(
                str(self._shard_dir(index) / "data.sqlite"),
                timeout=self._sqlite_timeout,
                isolation_level=None,  # autocommit; explicit BEGIN when needed
            )
            self._enable_wal(conn)
            conn.execute("PRAGMA synchronous = NORMAL")
            conn.execute(_SCHEMA)
            pool[index] = conn
        return conn

    def _enable_wal(self, conn: sqlite3.Connection) -> None:
        """Switch a shard database to WAL, waiting out racing openers.

        The switch needs an exclusive lock.  When two openers of a
        brand-new database ask for it together, sqlite fails one of them
        at once with "database is locked" — waiting could deadlock, so
        the busy timeout is never consulted — hence the retry here, for
        as long as that timeout.
        """
        deadline = time.monotonic() + self._sqlite_timeout
        while True:
            try:
                conn.execute("PRAGMA journal_mode = WAL")
                return
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() >= deadline:
                    raise
                time.sleep(0.001)

    # -- mapping operations ------------------------------------------------
    def get(self, key: int) -> Optional[bytes]:
        """The value stored under ``key``, or ``None``.

        A row whose spilled file is missing (a crash between a delete's
        two steps) self-heals: the row is dropped and the key misses.
        """
        index = self.shard_of(key)
        staged = self._stages[index].get(key)
        if staged is not None:
            size, raw, filename = staged
            if raw is not None:
                return raw
            value = self._read_spill(index, filename, size)
            if value is None:
                self._drop_staged(index, key, staged)
            return value
        conn = self._connection(index)
        row = conn.execute(
            "SELECT size, raw, filename FROM cache WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        size, raw, filename = row
        if raw is not None:
            return bytes(raw)
        value = self._read_spill(index, filename, size)
        if value is None:
            self._heal(conn, key, filename)
        return value

    def _read_spill(self, index: int, filename: str, size: int) -> Optional[bytes]:
        """A spilled value, or ``None`` when its file is missing or torn
        (torn should be impossible under atomic_write; it reads as missing)."""
        try:
            value = (self._shard_dir(index) / filename).read_bytes()
        except OSError:
            return None
        return value if len(value) == size else None

    @staticmethod
    def _heal(conn: sqlite3.Connection, key: int, filename: str) -> None:
        """Drop a row whose spilled file is unreadable.

        Conditional on the filename so a concurrent overwrite that
        already replaced the row (e.g. spilled -> inline) is never
        collateral damage.
        """
        conn.execute(
            "DELETE FROM cache WHERE key = ? AND filename = ?",
            (key, filename),
        )

    def _drop_staged(self, index: int, key: int, staged: _Row) -> None:
        """Delete a key whose staged spill file is unreadable.

        The committed row goes too — it may hold the value the staged
        one replaced — unless another thread has re-staged the key since.
        """
        with self._locks[index]:
            if self._stages[index].get(key) is staged:
                del self._stages[index][key]
                self._commit(index, deleted=key)

    def put(self, key: int, value: bytes) -> None:
        """Store ``value`` under ``key`` (insert or overwrite).

        The row is staged: this instance reads it back at once, others
        at the shard's next commit (see the module docs).
        """
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise TypeError(f"value must be bytes-like, got {type(value).__name__}")
        value = bytes(value)
        index = self.shard_of(key)
        with self._locks[index]:
            stage = self._stages[index]
            previous = stage.get(key)
            if previous is None:
                self._log_intent(index, key)
            if len(value) <= self.inline_bytes:
                if previous is not None and previous[2] is not None:
                    # A staged spill replaced before it committed: no
                    # row will ever name its file.
                    self._unlink_quietly(self._shard_dir(index) / previous[2])
                stage[key] = (len(value), value, None)
            else:
                filename = _spill_name(key)
                # Publish the bytes before the row that names them: a
                # crash here orphans a file the intent log names, never
                # a row pointing at nothing.
                with atomic_write(self._shard_dir(index) / filename) as handle:
                    handle.write(value)
                stage[key] = (len(value), None, filename)
            if len(stage) >= STAGE_ENTRIES:
                self._commit(index)

    def delete(self, key: int) -> bool:
        """Remove ``key``; True when a value was present."""
        index = self.shard_of(key)
        with self._locks[index]:
            staged = self._stages[index].pop(key, None)
            if staged is None:
                self._log_intent(index, key)
            return self._commit(index, deleted=key) or staged is not None

    def contains(self, key: int) -> bool:
        """True when ``key`` has a stored value (no payload read)."""
        index = self.shard_of(key)
        if key in self._stages[index]:
            return True
        conn = self._connection(index)
        return (
            conn.execute(
                "SELECT 1 FROM cache WHERE key = ?", (key,)
            ).fetchone()
            is not None
        )

    __contains__ = contains

    def __len__(self) -> int:
        """Total entries across all shards."""
        return sum(self.shard_sizes().values())

    def keys(self) -> Iterator[int]:
        """All stored keys, shard by shard, ascending within a shard."""
        for index in range(self.shards):
            rows = self._committed(index).execute(
                "SELECT key FROM cache ORDER BY key"
            ).fetchall()
            for (key,) in rows:
                yield key

    def shard_sizes(self) -> Dict[int, int]:
        """Entry count per shard index (fanout diagnostics)."""
        return {
            index: self._committed(index)
            .execute("SELECT COUNT(*) FROM cache")
            .fetchone()[0]
            for index in range(self.shards)
        }

    # -- group commit ------------------------------------------------------
    def flush(self) -> None:
        """Commit every shard's staged puts."""
        for index in range(self.shards):
            self._committed(index)

    def _committed(self, index: int) -> sqlite3.Connection:
        """This thread's connection to a shard whose stage has committed."""
        with self._locks[index]:
            self._commit(index)
        return self._connection(index)

    def _commit(self, index: int, deleted: Optional[int] = None) -> bool:
        """Commit a shard's stage, and optionally delete ``deleted``, in
        one transaction; True when ``deleted`` had a committed row.

        The caller holds the shard's lock.  Files go after the rows that
        named them, and the intent log is truncated last, so a crash
        anywhere in between leaves the log naming every key whose row
        or file may be out of date.
        """
        stage = self._stages[index]
        keys = list(stage)
        if deleted is not None:
            keys.append(deleted)
        if not keys:
            return False
        conn = self._connection(index)
        with conn:  # COMMIT, or ROLLBACK on an exception
            conn.execute("BEGIN IMMEDIATE")
            committed = dict(
                conn.execute(
                    "SELECT key, filename FROM cache WHERE key IN "
                    f"({','.join('?' * len(keys))})",
                    keys,
                ).fetchall()
            )
            conn.executemany(
                "INSERT OR REPLACE INTO cache (key, size, raw, filename) "
                "VALUES (?, ?, ?, ?)",
                [(key, *row) for key, row in stage.items()],
            )
            if deleted is not None:
                conn.execute("DELETE FROM cache WHERE key = ?", (deleted,))
        shard = self._shard_dir(index)
        for key, (_, _, filename) in stage.items():
            previous = committed.get(key)
            if previous is not None and filename is None:
                # The old value was spilled and the new one is inline.
                self._unlink_quietly(shard / previous)
        if deleted is not None:
            # Named by the row just deleted, or by a staged spill the
            # caller dropped from the stage.
            self._unlink_quietly(shard / _spill_name(deleted))
        stage.clear()
        log = self._logs[index]
        if log is not None:
            os.ftruncate(log, 0)
        registry = runtime.get_registry()
        if registry is not None:
            registry.counter(
                "serve_store_commits_total",
                "Transactions the serving store committed",
            ).inc()
        return deleted in committed

    # -- intent logs -------------------------------------------------------
    def _log_intent(self, index: int, key: int) -> None:
        """Record ``key`` as in flight in this instance's log for a shard."""
        if not _MIN_KEY <= key <= _MAX_KEY:
            raise OverflowError(f"key {key} does not fit a sqlite INTEGER")
        log = self._logs[index]
        if log is None:
            log = self._logs[index] = self._open_log(index)
        os.write(log, b"%d\n" % key)

    def _open_log(self, index: int) -> int:
        """Create and lock this instance's intent log for one shard.

        An opener recovering the shard can take the new file's lock in
        the instant between its creation and our ``flock``, and unlink
        it as dead; the lock we then get is on an inode with no name
        left, and the log is created afresh.
        """
        path = self._log_path(index)
        while True:
            log = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                fcntl.flock(log, fcntl.LOCK_EX)
                if os.fstat(log).st_nlink:
                    return log
            except BaseException:
                os.close(log)
                raise
            os.close(log)

    def _recover(self, index: int) -> None:
        """Delete the keys dead instances left in flight in one shard.

        A log whose lock can be taken has no live owner.  Any of its
        keys may have a committed *old* row whose update died in the
        stage, so every one goes: rows in one transaction, then spill
        files, then the log.
        """
        for path in sorted(self._shard_dir(index).glob("intent-*.log")):
            try:
                log = os.open(path, os.O_RDONLY)
            except FileNotFoundError:
                continue  # recovered by a racing opener
            try:
                try:
                    fcntl.flock(log, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except BlockingIOError:
                    continue  # a live instance's log
                if not os.fstat(log).st_nlink:
                    continue  # a racing opener recovered it first
                keys = _read_intents(path)
                if keys:
                    conn = self._connection(index)
                    with conn:
                        conn.execute("BEGIN IMMEDIATE")
                        conn.executemany(
                            "DELETE FROM cache WHERE key = ?",
                            [(key,) for key in keys],
                        )
                    for key in keys:
                        self._unlink_quietly(self._shard_dir(index) / _spill_name(key))
                os.unlink(path)
            finally:
                os.close(log)

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Commit staged puts, close this thread's connections, and
        remove this instance's intent logs."""
        self.flush()
        pool = getattr(self._local, "connections", None)
        if pool:
            for conn in pool.values():
                conn.close()
            pool.clear()
        for index, log in enumerate(self._logs):
            if log is not None:
                self._unlink_quietly(self._log_path(index))
                os.close(log)
                self._logs[index] = None

    def __enter__(self) -> "ShardedByteStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def _unlink_quietly(path: Path) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass


def _read_intents(path: Path) -> List[int]:
    """The distinct keys an intent log names, ascending.

    Only the last line can be torn, by a write that never returned: its
    key was never staged, and deleting whatever it parses as costs at
    most one cached copy.
    """
    keys = set()
    for line in path.read_bytes().split():
        try:
            keys.add(int(line))
        except ValueError:
            pass
    return sorted(keys)
