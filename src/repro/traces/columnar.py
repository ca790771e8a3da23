"""Columnar trace representation: the simulation hot path's substrate.

The object model (:class:`~repro.traces.model.Trace` holding one
:class:`~repro.traces.model.IORequest` dataclass per request) is the
readable reference representation, but allocating half a million frozen
dataclasses — and re-deriving packed addresses, request kinds, and
per-block expansions from them request by request — dominates the cost
of replaying a trace through eight-plus allocation policies.

:class:`ColumnarTrace` stores the same information as parallel numpy
arrays, one row per request:

=================  =========  ==========================================
column             dtype      meaning
=================  =========  ==========================================
``issue_time``     float64    seconds since trace start at request issue
``completion_time`` float64   completion of the request's last block
``address``        int64      packed global address of the first block
                              (see :func:`~repro.traces.model.pack_address`)
``block_count``    int32      consecutive 512-byte blocks touched
``is_write``       bool       write (True) or read (False)
``aligned_4k``     bool       request starts/ends on 4-KB boundaries
=================  =========  ==========================================

The representation is **lossless**: :meth:`from_trace` /
:meth:`to_trace` round-trip every field bit-for-bit (times are the very
same float64 values, addresses the same packed integers), so the fast
simulation path consuming columns is checked for equality against the
object path rather than for approximate agreement.

Columnar traces also serialize to ``.npz`` in one call, which is what
the segment stores (:mod:`repro.traces.segments`, also the trace cache's
entries) and the parallel policy-suite workers share.

:class:`BlockCounts` is the columnar form of one day's popularity — the
distinct block addresses touched and how often — and the only one: every
producer (the columns, a segment store or shard view, the object walk)
returns it, and every consumer (the ideal sieve, the skew and ensemble
analyses) reads its two arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.traces.model import (
    IOKind,
    IORequest,
    Trace,
    _OFFSET_BITS,
    _OFFSET_MASK,
    _VOLUME_BITS,
    _VOLUME_MASK,
    pack_address,
)
from repro.util.atomic import atomic_write
from repro.util.intervals import SECONDS_PER_DAY, bucket_indices

#: Bump when the on-disk ``.npz`` layout changes; loaders refuse others.
NPZ_FORMAT_VERSION = 1

_SERVER_SHIFT = _VOLUME_BITS + _OFFSET_BITS


def expand_blocks(
    addresses: np.ndarray, block_counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Requests expanded to their block accesses, in issue order.

    Returns ``(blocks, offsets)``: the packed address of every block
    (a request of ``k`` blocks contributes ``k`` consecutive addresses,
    mirroring :meth:`IORequest.addresses`), and per request the position
    of its first block, one extra entry closing the last.
    """
    counts = np.asarray(block_counts).astype(np.int64)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    # One repeat: blocks[i] = (address - start) of i's request + i.
    blocks = np.repeat(addresses - offsets[:-1], counts) + np.arange(
        int(offsets[-1]), dtype=np.int64
    )
    return blocks, offsets


@dataclass(eq=False)
class BlockCounts:
    """One day's per-block access counts, as two parallel int64 columns.

    ``addresses`` holds each distinct packed block address once, in
    ascending order; ``counts[i]`` is how many 512-byte block accesses
    ``addresses[i]`` received.  Because a packed address carries its
    server in the high bits, ascending addresses group each server's
    blocks into one contiguous run.  Equality compares both columns.
    """

    addresses: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        self.addresses = np.asarray(self.addresses, dtype=np.int64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.addresses.shape != self.counts.shape:
            raise ValueError(
                f"{self.addresses.shape[0]} addresses but "
                f"{self.counts.shape[0]} counts"
            )

    @classmethod
    def empty(cls) -> "BlockCounts":
        """A table of no blocks."""
        return cls(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))

    @classmethod
    def of_accesses(cls, blocks: np.ndarray) -> "BlockCounts":
        """Count a column holding one block address per access."""
        addresses, counts = np.unique(blocks, return_counts=True)
        return cls(addresses, counts)

    @classmethod
    def from_mapping(cls, table: Mapping[int, int]) -> "BlockCounts":
        """Columns of an ``address -> count`` mapping."""
        addresses = np.fromiter(table.keys(), dtype=np.int64, count=len(table))
        counts = np.fromiter(table.values(), dtype=np.int64, count=len(table))
        order = np.argsort(addresses)
        return cls(addresses[order], counts[order])

    @classmethod
    def merge(cls, parts: Sequence["BlockCounts"]) -> "BlockCounts":
        """Sum tables of the same day counted over disjoint row ranges."""
        parts = [part for part in parts if len(part)]
        if len(parts) <= 1:
            return parts[0] if parts else cls.empty()
        addresses, inverse = np.unique(
            np.concatenate([part.addresses for part in parts]),
            return_inverse=True,
        )
        # float64 weights are exact below 2**53 accesses per block.
        counts = np.bincount(
            inverse,
            weights=np.concatenate([part.counts for part in parts]),
            minlength=len(addresses),
        )
        return cls(addresses, counts.astype(np.int64))

    def __len__(self) -> int:
        return int(self.addresses.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockCounts):
            return NotImplemented
        return bool(
            np.array_equal(self.addresses, other.addresses)
            and np.array_equal(self.counts, other.counts)
        )

    def total(self) -> int:
        """All block accesses in the table."""
        return int(self.counts.sum())

    def as_dict(self) -> Dict[int, int]:
        """The table as an ``address -> count`` dict, ascending by address."""
        return dict(zip(self.addresses.tolist(), self.counts.tolist()))

    def _rows(self, index: Union[slice, np.ndarray]) -> "BlockCounts":
        return BlockCounts(self.addresses[index], self.counts[index])

    def top(self, fraction: float, limit: Optional[int] = None) -> "BlockCounts":
        """The most-accessed ``fraction`` of the table's blocks.

        Keeps ``ceil(fraction * len(self))`` blocks (at least one of a
        non-empty table, at most ``limit``), ranked by descending count
        with ties broken by ascending address.  The result is itself a
        table, in ascending address order.
        """
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        keep = max(1, math.ceil(len(self) * fraction)) if len(self) else 0
        if limit is not None:
            keep = min(keep, limit)
        # Addresses ascend, so a stable sort on descending count breaks
        # every tie by address.
        ranked = np.argsort(-self.counts, kind="stable")[:keep]
        return self._rows(np.sort(ranked))

    @property
    def server_ids(self) -> np.ndarray:
        """Server id of each block (non-decreasing), from its address."""
        return self.addresses >> _SERVER_SHIFT

    def by_server(self) -> Dict[int, "BlockCounts"]:
        """Split into one table per server that has blocks here."""
        servers = self.server_ids
        if not len(servers):
            return {}
        starts = np.flatnonzero(np.diff(servers)) + 1
        bounds = zip([0, *starts.tolist()], [*starts.tolist(), len(servers)])
        return {
            int(servers[lo]): self._rows(slice(lo, hi)) for lo, hi in bounds
        }

    def of_servers(self, server_ids: Iterable[int]) -> "BlockCounts":
        """The blocks owned by any of ``server_ids``."""
        wanted = np.fromiter(server_ids, dtype=np.int64)
        return self._rows(np.isin(self.server_ids, wanted))


@dataclass(eq=False)
class ColumnarTrace:
    """A chronological request trace as parallel columns (see module docs).

    Rows must be sorted by ``issue_time``; :meth:`validate` checks this,
    mirroring :meth:`repro.traces.model.Trace.validate`.
    """

    issue_time: np.ndarray
    completion_time: np.ndarray
    address: np.ndarray
    block_count: np.ndarray
    is_write: np.ndarray
    aligned_4k: np.ndarray
    description: str = ""

    def __post_init__(self) -> None:
        self.issue_time = np.asarray(self.issue_time, dtype=np.float64)
        self.completion_time = np.asarray(self.completion_time, dtype=np.float64)
        self.address = np.asarray(self.address, dtype=np.int64)
        self.block_count = np.asarray(self.block_count, dtype=np.int32)
        self.is_write = np.asarray(self.is_write, dtype=np.bool_)
        self.aligned_4k = np.asarray(self.aligned_4k, dtype=np.bool_)
        n = self.issue_time.shape[0]
        for name in ("completion_time", "address", "block_count", "is_write", "aligned_4k"):
            column = getattr(self, name)
            if column.shape != (n,):
                raise ValueError(
                    f"column {name} has shape {column.shape}, expected ({n},)"
                )

    # -- basic protocol ---------------------------------------------------
    def __len__(self) -> int:
        return int(self.issue_time.shape[0])

    def total_blocks(self) -> int:
        """Total number of 512-byte block accesses in the trace."""
        return int(self.block_count.sum())

    @property
    def duration(self) -> float:
        """Seconds from trace start to the last completion, 0.0 if empty."""
        if len(self) == 0:
            return 0.0
        return float(self.completion_time.max())

    def validate(self) -> None:
        """Raise ``ValueError`` naming the first row that breaks a
        request invariant: rows in issue-time order, and each row one
        :class:`~repro.traces.model.IORequest` would accept (a positive
        ``block_count``, ``completion_time`` not before ``issue_time``)."""
        issue, completion = self.issue_time, self.completion_time
        problems = (
            (np.append(False, issue[1:] < issue[:-1]), lambda i: (
                f"out of issue-time order: {issue[i]} < {issue[i - 1]}"
            )),
            (self.block_count <= 0, lambda i: (
                f"block_count must be positive, got {self.block_count[i]}"
            )),
            (completion < issue, lambda i: (
                "completion_time precedes issue_time: "
                f"{completion[i]} < {issue[i]}"
            )),
        )
        first = [
            (int(bad.argmax()), describe) for bad, describe in problems if bad.any()
        ]
        if first:
            index, describe = min(first, key=lambda found: found[0])
            raise ValueError(f"request {index}: {describe(index)}")

    def equals(self, other: "ColumnarTrace") -> bool:
        """Exact (bitwise) equality of all columns; ignores description."""
        return (
            len(self) == len(other)
            and bool(np.array_equal(self.issue_time, other.issue_time))
            and bool(np.array_equal(self.completion_time, other.completion_time))
            and bool(np.array_equal(self.address, other.address))
            and bool(np.array_equal(self.block_count, other.block_count))
            and bool(np.array_equal(self.is_write, other.is_write))
            and bool(np.array_equal(self.aligned_4k, other.aligned_4k))
        )

    # -- derived columns --------------------------------------------------
    @property
    def server_ids(self) -> np.ndarray:
        """Per-request server id (int64), decoded from the packed address."""
        return self.address >> _SERVER_SHIFT

    @property
    def volume_ids(self) -> np.ndarray:
        """Per-request volume id (int64), decoded from the packed address."""
        return (self.address >> _OFFSET_BITS) & _VOLUME_MASK

    def issue_days(self) -> np.ndarray:
        """Zero-based calendar-day index of each request's issue time.

        Matches Python's float floor-division — the exact expression
        :func:`repro.util.intervals.day_of` uses — rather than plain
        ``numpy.floor_divide``, whose rounding can differ by one ulp
        for timestamps within half an ulp of a day boundary.  The fast
        simulation path's equality guarantee depends on the two paths
        bucketing identically, so this delegates to the shared
        vectorized primitive
        :func:`repro.util.intervals.bucket_indices`, which repairs
        boundary-adjacent entries with scalar Python arithmetic.
        """
        return bucket_indices(self.issue_time, SECONDS_PER_DAY)

    def expand_block_addresses(self) -> np.ndarray:
        """Packed address of every individual block access, in issue order.

        A request of ``k`` blocks contributes ``k`` consecutive
        addresses, mirroring :meth:`IORequest.addresses`.
        """
        return expand_blocks(self.address, self.block_count)[0]

    def daily_block_counts(self, days: int) -> List[BlockCounts]:
        """Vectorized twin of :func:`repro.traces.streams.daily_block_counts`.

        Returns identical per-day tables without the per-block Python
        loop.  Requests issued past the last requested day are dropped,
        as in the reference.
        """
        if days <= 0:
            raise ValueError(f"days must be positive, got {days}")
        tables = [BlockCounts.empty() for _ in range(days)]
        if len(self) == 0:
            return tables
        day_index = self.issue_days()
        # Rows are sorted by issue time (the class contract), so the
        # day column is non-decreasing and each day is one contiguous
        # slice: locate all day boundaries with a single binary-search
        # pass instead of rescanning every row once per day.  Unsorted
        # traces (pre-validate() inputs) keep the masking fallback.
        if bool(np.all(day_index[1:] >= day_index[:-1])):
            boundaries = np.searchsorted(
                day_index, np.arange(days + 1, dtype=np.int64), side="left"
            )
            day_slices = [
                (day, slice(int(boundaries[day]), int(boundaries[day + 1])))
                for day in range(days)
            ]
        else:
            day_slices = [(day, day_index == day) for day in range(days)]
        for day, rows in day_slices:
            bases = self.address[rows]
            if bases.size == 0:
                continue
            blocks, _ = expand_blocks(bases, self.block_count[rows])
            tables[day] = BlockCounts.of_accesses(blocks)
        return tables

    # -- structural operations --------------------------------------------
    def filter(
        self,
        server_id: Optional[int] = None,
        volume_id: Optional[int] = None,
    ) -> "ColumnarTrace":
        """Restrict to one server and/or volume (cf. :meth:`Trace.filter`)."""
        mask = np.ones(len(self), dtype=np.bool_)
        if server_id is not None:
            mask &= self.server_ids == server_id
        if volume_id is not None:
            mask &= self.volume_ids == volume_id
        suffix = []
        if server_id is not None:
            suffix.append(f"server={server_id}")
        if volume_id is not None:
            suffix.append(f"volume={volume_id}")
        return ColumnarTrace(
            issue_time=self.issue_time[mask],
            completion_time=self.completion_time[mask],
            address=self.address[mask],
            block_count=self.block_count[mask],
            is_write=self.is_write[mask],
            aligned_4k=self.aligned_4k[mask],
            description=f"{self.description} [{', '.join(suffix)}]",
        )

    def sorted_by_issue(self) -> "ColumnarTrace":
        """Stable-sort rows by issue time (ties keep their input order).

        Matches Python's stable ``sorted(key=issue_time)`` on the object
        representation, so the two pipelines order simultaneous requests
        identically.

        Distinct keys have exactly one sorting permutation, so the
        (several times faster) unstable argsort gives the stable order
        unless two issue times are equal or NaN; only then is the
        stable sort run.
        """
        order = np.argsort(self.issue_time)
        ordered = self.issue_time[order]
        if len(ordered) and (
            bool((ordered[1:] == ordered[:-1]).any()) or np.isnan(ordered[-1])
        ):
            order = np.argsort(self.issue_time, kind="stable")
        return self.take(order)

    def take(self, indices: np.ndarray) -> "ColumnarTrace":
        """Row subset/permutation by index array."""
        return ColumnarTrace(
            issue_time=self.issue_time[indices],
            completion_time=self.completion_time[indices],
            address=self.address[indices],
            block_count=self.block_count[indices],
            is_write=self.is_write[indices],
            aligned_4k=self.aligned_4k[indices],
            description=self.description,
        )

    @classmethod
    def concatenate(
        cls, parts: Sequence["ColumnarTrace"], description: str = ""
    ) -> "ColumnarTrace":
        """Concatenate row blocks in the given order (no re-sorting)."""
        if not parts:
            return cls.empty(description)
        return cls(
            issue_time=np.concatenate([p.issue_time for p in parts]),
            completion_time=np.concatenate([p.completion_time for p in parts]),
            address=np.concatenate([p.address for p in parts]),
            block_count=np.concatenate([p.block_count for p in parts]),
            is_write=np.concatenate([p.is_write for p in parts]),
            aligned_4k=np.concatenate([p.aligned_4k for p in parts]),
            description=description,
        )

    @classmethod
    def empty(cls, description: str = "") -> "ColumnarTrace":
        """A zero-request trace."""
        return cls(
            issue_time=np.zeros(0, dtype=np.float64),
            completion_time=np.zeros(0, dtype=np.float64),
            address=np.zeros(0, dtype=np.int64),
            block_count=np.zeros(0, dtype=np.int32),
            is_write=np.zeros(0, dtype=np.bool_),
            aligned_4k=np.zeros(0, dtype=np.bool_),
            description=description,
        )

    # -- conversions -------------------------------------------------------
    @classmethod
    def from_trace(cls, trace: Trace) -> "ColumnarTrace":
        """Columnarize an object trace (lossless)."""
        n = len(trace)
        issue = np.empty(n, dtype=np.float64)
        completion = np.empty(n, dtype=np.float64)
        address = np.empty(n, dtype=np.int64)
        block_count = np.empty(n, dtype=np.int32)
        is_write = np.empty(n, dtype=np.bool_)
        aligned = np.empty(n, dtype=np.bool_)
        for i, request in enumerate(trace.requests):
            issue[i] = request.issue_time
            completion[i] = request.completion_time
            address[i] = pack_address(
                request.server_id, request.volume_id, request.block_offset
            )
            block_count[i] = request.block_count
            is_write[i] = request.is_write
            aligned[i] = request.aligned_4k
        return cls(
            issue_time=issue,
            completion_time=completion,
            address=address,
            block_count=block_count,
            is_write=is_write,
            aligned_4k=aligned,
            description=trace.description,
        )

    def to_trace(self) -> Trace:
        """Materialize the object representation (lossless inverse)."""
        issue = self.issue_time.tolist()
        completion = self.completion_time.tolist()
        address = self.address.tolist()
        block_count = self.block_count.tolist()
        is_write = self.is_write.tolist()
        aligned = self.aligned_4k.tolist()
        read, write = IOKind.READ, IOKind.WRITE
        requests = [
            IORequest(
                issue_time=issue[i],
                completion_time=completion[i],
                server_id=address[i] >> _SERVER_SHIFT,
                volume_id=(address[i] >> _OFFSET_BITS) & _VOLUME_MASK,
                block_offset=address[i] & _OFFSET_MASK,
                block_count=block_count[i],
                kind=write if is_write[i] else read,
                aligned_4k=aligned[i],
            )
            for i in range(len(issue))
        ]
        return Trace(requests, description=self.description)

    # -- serialization -----------------------------------------------------
    def save_npz(self, path: Union[str, Path]) -> None:
        """Write all columns to one uncompressed ``.npz`` file.

        Published atomically: shard workers and the serving bench read
        these caches while other processes regenerate them.
        """
        with atomic_write(path) as handle:
            np.savez(
                handle,
                format_version=np.int64(NPZ_FORMAT_VERSION),
                issue_time=self.issue_time,
                completion_time=self.completion_time,
                address=self.address,
                block_count=self.block_count,
                is_write=self.is_write,
                aligned_4k=self.aligned_4k,
                description=np.array(self.description),
            )

    @classmethod
    def load_npz(cls, path: Union[str, Path]) -> "ColumnarTrace":
        """Read a trace written by :meth:`save_npz`."""
        with np.load(path, allow_pickle=False) as payload:
            version = int(payload["format_version"])
            if version != NPZ_FORMAT_VERSION:
                raise ValueError(
                    f"unsupported columnar trace format {version} "
                    f"(expected {NPZ_FORMAT_VERSION})"
                )
            return cls(
                issue_time=payload["issue_time"],
                completion_time=payload["completion_time"],
                address=payload["address"],
                block_count=payload["block_count"],
                is_write=payload["is_write"],
                aligned_4k=payload["aligned_4k"],
                description=str(payload["description"]),
            )


def as_columnar(trace: Union[Trace, ColumnarTrace]) -> ColumnarTrace:
    """Coerce either trace representation to columns."""
    if isinstance(trace, ColumnarTrace):
        return trace
    return ColumnarTrace.from_trace(trace)


def as_object_trace(trace: Union[Trace, ColumnarTrace]) -> Trace:
    """Coerce either trace representation to the object model."""
    if isinstance(trace, ColumnarTrace):
        return trace.to_trace()
    return trace
