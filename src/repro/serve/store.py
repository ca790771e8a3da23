"""Sqlite+file shard-fanout byte store: the serve layer's real device.

This is the first layer of the reproduction that stores *actual bytes
on an actual filesystem* instead of counting frames.  The design
follows ``python-diskcache``'s ``core.py``: sqlite rows carry the
metadata (and small values inline as BLOBs), large values spill into
sibling files, and the whole keyspace fans out over ``shards``
independent sqlite databases so concurrent writers contend on 1/Nth of
the lock space instead of one global file lock.

Layout under ``directory``::

    store.json                  # shard count + layout version (frozen at init)
    shard-000/data.sqlite       # rows: key, size, raw BLOB | filename
    shard-000/<key:016x>.val    # spilled values (atomic_write, fsynced)
    shard-001/...

Shard selection is ``stable_bucket(key, shards, salt)`` — SplitMix64,
the same deterministic hash the IMCT uses — so any process computes the
same placement with no coordination.

Concurrency contract: every :class:`ShardedByteStore` instance is safe
to share between threads (connections are per-thread via
``threading.local``), and any number of instances/processes may operate
on one directory concurrently (sqlite WAL + busy timeout).  Readers
never see partial values: inline BLOBs are transactional, spilled files
are published with :func:`repro.util.atomic.atomic_write` *before* the
row that names them — a crash can orphan a file, never a row.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

from repro.util.atomic import atomic_write
from repro.util.hashing import mix64

#: Bump when the on-disk layout changes; opening refuses other versions.
STORE_LAYOUT_VERSION = 1

#: Values at or below this many bytes live inline in sqlite; larger
#: values spill into sibling files (diskcache's min_file_size idea).
DEFAULT_INLINE_BYTES = 4096

#: Default shard fanout.
DEFAULT_SHARDS = 8

#: Salt decorrelating shard placement from the IMCT's slot hashing.
_SHARD_SALT = 0x5E1EC7

_SCHEMA = """
CREATE TABLE IF NOT EXISTS cache (
    key INTEGER PRIMARY KEY,
    size INTEGER NOT NULL,
    raw BLOB,
    filename TEXT
)
"""


class StoreError(Exception):
    """The store directory is unusable or layout-incompatible."""


class ShardedByteStore:
    """A byte store fanned out over ``shards`` sqlite databases.

    See the module docs for the layout and concurrency contract.  All
    keys are Python ints (the serve layer uses packed block addresses);
    values are ``bytes``.
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
        for index in range(self.shards):
            self._shard_dir(index).mkdir(exist_ok=True)

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
        conn = self._connection(index)
        row = conn.execute(
            "SELECT size, raw, filename FROM cache WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        size, raw, filename = row
        if raw is not None:
            return bytes(raw)
        path = self._shard_dir(index) / filename
        try:
            value = path.read_bytes()
        except OSError:
            self._heal(conn, key, filename)
            return None
        if len(value) != size:
            # Torn file (should be impossible under atomic_write); treat
            # exactly like a missing file.
            self._heal(conn, key, filename)
            return None
        return value

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

    def put(self, key: int, value: bytes) -> None:
        """Store ``value`` under ``key`` (insert or overwrite)."""
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise TypeError(f"value must be bytes-like, got {type(value).__name__}")
        value = bytes(value)
        index = self.shard_of(key)
        conn = self._connection(index)
        if len(value) <= self.inline_bytes:
            raw, filename = value, None
        else:
            raw, filename = None, f"{key & (2**64 - 1):016x}.val"
            # Publish the bytes before the row that names them: a crash
            # here orphans a file, never a row pointing at nothing.
            with atomic_write(self._shard_dir(index) / filename) as handle:
                handle.write(value)
        previous = conn.execute(
            "SELECT filename FROM cache WHERE key = ?", (key,)
        ).fetchone()
        conn.execute(
            "INSERT OR REPLACE INTO cache (key, size, raw, filename) "
            "VALUES (?, ?, ?, ?)",
            (key, len(value), raw, filename),
        )
        if previous is not None and previous[0] is not None and previous[0] != filename:
            # The old value was spilled and the new one is inline (or
            # under a different name): drop the stale file.
            self._unlink_quietly(self._shard_dir(index) / previous[0])

    def delete(self, key: int) -> bool:
        """Remove ``key``; True when a value was present."""
        index = self.shard_of(key)
        conn = self._connection(index)
        row = conn.execute(
            "SELECT filename FROM cache WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return False
        conn.execute("DELETE FROM cache WHERE key = ?", (key,))
        if row[0] is not None:
            self._unlink_quietly(self._shard_dir(index) / row[0])
        return True

    def contains(self, key: int) -> bool:
        """True when ``key`` has a stored value (no payload read)."""
        conn = self._connection(self.shard_of(key))
        return (
            conn.execute(
                "SELECT 1 FROM cache WHERE key = ?", (key,)
            ).fetchone()
            is not None
        )

    __contains__ = contains

    def __len__(self) -> int:
        """Total entries across all shards."""
        return sum(
            self._connection(i).execute("SELECT COUNT(*) FROM cache").fetchone()[0]
            for i in range(self.shards)
        )

    def keys(self) -> Iterator[int]:
        """All stored keys, shard by shard, ascending within a shard."""
        for index in range(self.shards):
            rows = self._connection(index).execute(
                "SELECT key FROM cache ORDER BY key"
            ).fetchall()
            for (key,) in rows:
                yield key

    def shard_sizes(self) -> Dict[int, int]:
        """Entry count per shard index (fanout diagnostics)."""
        return {
            index: self._connection(index)
            .execute("SELECT COUNT(*) FROM cache")
            .fetchone()[0]
            for index in range(self.shards)
        }

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Close this instance's (thread-local) connections."""
        pool = getattr(self._local, "connections", None)
        if pool:
            for conn in pool.values():
                conn.close()
            pool.clear()

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
