"""Result + checkpoint serialization.

Two concerns live here:

* **Results** — experiment outcomes as flat, versioned JSON.
  Simulation runs at real scales take minutes; downstream analysis
  (and the CLI's ``--json`` flag) wants the numbers without re-running.
  Everything the figure builders consume (per-day counters, per-minute
  I/O) round-trips.

* **Checkpoints** — crash-consistent snapshots of full simulation state
  (cache + policy metastate + stats + trace cursor), written atomically
  with a checksum so a SIGKILL mid-write can never leave a readable but
  corrupt file.  Resuming from a checkpoint produces final statistics
  bit-identical to the uninterrupted run (see
  :func:`repro.sim.engine.resume_simulation`).

Checkpoint file format (version 5)::

    bytes 0..7   magic  b"SSCKPT\\x00\\n"
    bytes 8..11  schema version (big-endian uint32)
    bytes 12..43 SHA-256 digest of the payload
    bytes 44..   pickle payload (a dict: the run state built by
                 engine.simulate, one layout for both engines)

Compatibility policy: the loader refuses any unknown version — a
checkpoint is a short-lived crash-recovery artifact, not an archive
format, so there is no cross-version migration.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import struct
from pathlib import Path
from typing import Union

import numpy as np

from repro.cache.stats import CacheStats, DayStats
from repro.sim.engine import SimulationResult
from repro.util.atomic import atomic_write

#: Bump on schema changes; loaders refuse unknown versions.
SCHEMA_VERSION = 1

#: Checkpoint file magic + schema version (see module docs).
CHECKPOINT_MAGIC = b"SSCKPT\x00\n"
#: Version 2: SieveStoreC/ImpreciseMissCountTable pickles gained hoisted
#: attributes (the sieve-kernel fast path), so version-1 policy payloads
#: would rehydrate without them.  Version 3: one payload layout for
#: both engines (policy / cache / stats always, the appliance beside
#: them when the object loop runs) carrying the run's ``label`` in
#: place of ``policy_name``.  Version 4: the pickled
#: ImpreciseMissCountTable is two flat buffers (count cells + last
#: subwindows) instead of one counter object per slot.  Version 5: a
#: pickled AdaptiveSieveStoreC keeps its controller's threshold in the
#: base ladder's ``_tier2_threshold`` (no ``_t2``).  Version 6: a
#: pickled IdealDailySieve holds one BlockCounts (address and count
#: arrays) per day instead of a Counter, and CacheStats pickles as int64
#: columns.  Version 7: the pickled ImpreciseMissCountTable holds count
#: cells, per-slot totals and one table clock instead of per-slot
#: last-subwindow stamps.  Version 8: the pickled BlockCache is one
#: LRU-ordered dict (no resident set, no replacement object), and the
#: run config has no ``replacement`` / ``replacement_seed`` /
#: ``batch_moves_staggered``.  Version 9: the pickled FaultInjector
#: holds the device-health state, and the pickled SieveStoreAppliance
#: no longer does (no ``health`` / ``health_observer``).  No migration
#: — checkpoints are short-lived crash-recovery artifacts.
CHECKPOINT_SCHEMA_VERSION = 9


class CheckpointError(Exception):
    """A checkpoint file is unreadable, corrupt, or incompatible."""


def stats_to_dict(stats: CacheStats) -> dict:
    """CacheStats -> plain-JSON dict.

    Fault-model fields (error/bypass counters, degraded/bypass seconds)
    are emitted only when nonzero, so fault-free output stays
    byte-identical to files written before the fault model existed.
    """
    payload = {
        "days": stats.days,
        "per_day": [
            {
                "accesses": d.accesses,
                "read_hits": d.read_hits,
                "write_hits": d.write_hits,
                "read_misses": d.read_misses,
                "write_misses": d.write_misses,
                "allocation_writes": d.allocation_writes,
                "backing_writes": d.backing_writes,
                "writebacks": d.writebacks,
            }
            for d in stats.per_day
        ],
        "per_minute": {
            str(minute): [reads, writes]
            for minute, reads, writes in zip(*(c.tolist() for c in stats.minute_columns()))
        },
    }
    for entry, day in zip(payload["per_day"], stats.per_day):
        if day.read_errors:
            entry["read_errors"] = day.read_errors
        if day.write_errors:
            entry["write_errors"] = day.write_errors
        if day.bypass_accesses:
            entry["bypass_accesses"] = day.bypass_accesses
    if stats.degraded_seconds:
        payload["degraded_seconds"] = stats.degraded_seconds
    if stats.bypass_seconds:
        payload["bypass_seconds"] = stats.bypass_seconds
    return payload


def stats_from_dict(payload: dict) -> CacheStats:
    """Inverse of :func:`stats_to_dict`."""
    stats = CacheStats(days=payload["days"])
    for index, day in enumerate(payload["per_day"]):
        stats.per_day[index] = DayStats(**day)
    minutes = payload.get("per_minute", {})
    stats.load_minutes(
        np.fromiter(map(int, minutes), np.int64, len(minutes)),
        *np.array(list(minutes.values()), dtype=np.int64).reshape(-1, 2).T,
    )
    stats.degraded_seconds = payload.get("degraded_seconds", 0.0)
    stats.bypass_seconds = payload.get("bypass_seconds", 0.0)
    stats.check_consistency()
    return stats


def result_to_dict(result: SimulationResult) -> dict:
    """SimulationResult -> plain-JSON dict (policy objects are not
    serialized — only their name and the measured statistics)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "policy_name": result.policy_name,
        "wall_seconds": result.wall_seconds,
        "engine": result.engine,
        "stats": stats_to_dict(result.stats),
    }


def result_from_dict(payload: dict) -> SimulationResult:
    """Rehydrate a result (cache/policy objects come back as None)."""
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported result schema version {version!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    return SimulationResult(
        policy_name=payload["policy_name"],
        stats=stats_from_dict(payload["stats"]),
        cache=None,
        policy=None,
        wall_seconds=payload.get("wall_seconds", 0.0),
        # Unrecorded in files written before the field existed.
        engine=payload.get("engine", "object"),
    )


def save_result(result: SimulationResult, path: Union[str, Path]) -> None:
    """Write one result to a JSON file (atomically published)."""
    encoded = json.dumps(result_to_dict(result), indent=2).encode("utf-8")
    with atomic_write(path) as handle:
        handle.write(encoded)


def load_result(path: Union[str, Path]) -> SimulationResult:
    """Read a result written by :func:`save_result`."""
    return result_from_dict(json.loads(Path(path).read_text()))


# -- crash-consistent checkpoints -------------------------------------------

def save_checkpoint(payload: dict, path: Union[str, Path]) -> None:
    """Atomically write a checkpoint (magic + version + checksum + pickle).

    The bytes land in a temporary sibling first and are fsynced before
    an ``os.replace`` into place (and the parent directory is fsynced
    after it, via :func:`repro.util.atomic.atomic_write`), so the file
    at ``path`` is always a complete, self-verifying checkpoint — a
    crash (or SIGKILL) during the write leaves the previous checkpoint
    untouched.
    """
    path = Path(path)
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    header = (
        CHECKPOINT_MAGIC
        + struct.pack(">I", CHECKPOINT_SCHEMA_VERSION)
        + hashlib.sha256(body).digest()
    )
    with atomic_write(path) as handle:
        handle.write(header)
        handle.write(body)


def load_checkpoint(path: Union[str, Path]) -> dict:
    """Read and verify a checkpoint written by :func:`save_checkpoint`.

    Raises :class:`CheckpointError` on a missing/truncated file, bad
    magic, unknown schema version, or checksum mismatch.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path}: {error}") from error
    header_len = len(CHECKPOINT_MAGIC) + 4 + hashlib.sha256().digest_size
    if len(raw) < header_len or not raw.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(f"{path} is not a SieveStore checkpoint")
    offset = len(CHECKPOINT_MAGIC)
    (version,) = struct.unpack_from(">I", raw, offset)
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint schema version {version} "
            f"(expected {CHECKPOINT_SCHEMA_VERSION})"
        )
    offset += 4
    digest = raw[offset : offset + hashlib.sha256().digest_size]
    body = raw[offset + hashlib.sha256().digest_size :]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError(f"checksum mismatch in {path} (truncated or corrupt)")
    try:
        payload = pickle.loads(body)
    except Exception as error:  # pickle raises a zoo of exception types
        raise CheckpointError(f"cannot unpickle checkpoint {path}: {error}") from error
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path}: checkpoint payload is not a dict")
    return payload
