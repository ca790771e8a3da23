"""Core trace data model: block addresses, I/O requests, block accesses.

A trace is a chronological sequence of :class:`IORequest` records, each
describing a multi-block read or write issued by one server against one
of its volumes — the same shape as the MSR Cambridge block traces the
paper analyses (requests to block devices *below* the buffer cache).

Every data path reads the columnar form
(:class:`~repro.traces.columnar.ColumnarTrace`); this object form is the
readable reference the tests check the columns against, materialized
only by :meth:`~repro.traces.columnar.ColumnarTrace.to_trace`.

Block addresses are global: ``BlockAddress`` packs (server, volume,
block-offset) into a single integer so the ensemble-level cache and the
sieves can treat the whole ensemble as one address space, while the
per-server analyses can still recover the origin of every block.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

from repro.util.units import BLOCK_BYTES

#: Bits reserved for the per-volume block offset inside a packed address.
_OFFSET_BITS = 40
#: Bits reserved for the volume id.
_VOLUME_BITS = 8
_OFFSET_MASK = (1 << _OFFSET_BITS) - 1
_VOLUME_MASK = (1 << _VOLUME_BITS) - 1

#: Largest representable per-volume block offset.
MAX_BLOCK_OFFSET = _OFFSET_MASK
#: Largest representable volume id within a server.
MAX_VOLUME_ID = _VOLUME_MASK


class IOKind(enum.Enum):
    """Direction of an I/O request."""

    READ = "read"
    WRITE = "write"

    @property
    def is_read(self) -> bool:
        """Whether this kind is a read."""
        return self is IOKind.READ

    @property
    def is_write(self) -> bool:
        return self is IOKind.WRITE


def pack_address(server_id: int, volume_id: int, block_offset: int) -> int:
    """Pack (server, volume, offset) into one global block address.

    The packing is injective for ``volume_id <= MAX_VOLUME_ID`` and
    ``block_offset <= MAX_BLOCK_OFFSET``; addresses from different
    servers or volumes never collide.
    """
    if server_id < 0:
        raise ValueError(f"server_id must be non-negative, got {server_id}")
    if not 0 <= volume_id <= MAX_VOLUME_ID:
        raise ValueError(f"volume_id out of range: {volume_id}")
    if not 0 <= block_offset <= MAX_BLOCK_OFFSET:
        raise ValueError(f"block_offset out of range: {block_offset}")
    return (
        (server_id << (_VOLUME_BITS + _OFFSET_BITS))
        | (volume_id << _OFFSET_BITS)
        | block_offset
    )


def unpack_address(address: int) -> Tuple[int, int, int]:
    """Invert :func:`pack_address`; returns (server_id, volume_id, offset)."""
    if address < 0:
        raise ValueError(f"address must be non-negative, got {address}")
    offset = address & _OFFSET_MASK
    volume = (address >> _OFFSET_BITS) & _VOLUME_MASK
    server = address >> (_VOLUME_BITS + _OFFSET_BITS)
    return server, volume, offset


def server_of_address(address: int) -> int:
    """Server id that owns a packed block address."""
    return address >> (_VOLUME_BITS + _OFFSET_BITS)


def volume_of_address(address: int) -> int:
    """Volume id (within its server) that owns a packed block address."""
    return (address >> _OFFSET_BITS) & _VOLUME_MASK


@dataclass(frozen=True)
class IORequest:
    """One multi-block I/O request as recorded in the trace.

    Attributes:
        issue_time: seconds since trace start when the request was issued.
        completion_time: seconds since trace start when the last block of
            the request completed at the underlying storage.  Allocation
            decisions that depend on fetched data (Section 4) are
            scheduled off this value.
        server_id: index of the issuing server in the ensemble.
        volume_id: index of the target volume within that server.
        block_offset: first 512-byte block of the request within the volume.
        block_count: number of consecutive 512-byte blocks touched.
        kind: read or write.
        aligned_4k: whether the request starts and ends on 4-KB unit
            boundaries.  About 6% of the paper's accesses were not.
    """

    issue_time: float
    completion_time: float
    server_id: int
    volume_id: int
    block_offset: int
    block_count: int
    kind: IOKind
    aligned_4k: bool = True

    def __post_init__(self) -> None:
        if self.block_count <= 0:
            raise ValueError(f"block_count must be positive, got {self.block_count}")
        if self.completion_time < self.issue_time:
            raise ValueError(
                "completion_time precedes issue_time: "
                f"{self.completion_time} < {self.issue_time}"
            )
        if self.block_offset < 0:
            raise ValueError(f"block_offset must be non-negative, got {self.block_offset}")

    @property
    def byte_count(self) -> int:
        """Size of the request in bytes."""
        return self.block_count * BLOCK_BYTES

    @property
    def is_read(self) -> bool:
        return self.kind.is_read

    @property
    def is_write(self) -> bool:
        return self.kind.is_write

    @property
    def first_address(self) -> int:
        """Packed global address of the request's first block; the rest
        follow consecutively."""
        return pack_address(self.server_id, self.volume_id, self.block_offset)

    def addresses(self) -> Iterator[int]:
        """Yield the packed global address of every block the request touches."""
        base = self.first_address
        for i in range(self.block_count):
            yield base + i

    def block_accesses(self) -> Iterator["BlockAccess"]:
        """Expand the request into per-block accesses.

        Completion times of individual blocks are linearly interpolated
        between the request's issue and completion times, mirroring the
        paper's methodology: "We used linear interpolation to infer
        completion times for individual blocks in cases of large,
        multi-block requests" (Section 4).
        """
        base = self.first_address
        n = self.block_count
        span = self.completion_time - self.issue_time
        for i in range(n):
            fraction = (i + 1) / n
            yield BlockAccess(
                time=self.issue_time,
                completion_time=self.issue_time + span * fraction,
                address=base + i,
                kind=self.kind,
            )


@dataclass(frozen=True)
class BlockAccess:
    """A single 512-byte block touched by a request.

    This is the unit at which all hit/miss/allocation statistics are
    counted (Section 4 counts "I/O blocks/accesses assuming 512-byte
    blocks for accuracy").
    """

    time: float
    completion_time: float
    address: int
    kind: IOKind

    @property
    def is_read(self) -> bool:
        return self.kind.is_read

    @property
    def is_write(self) -> bool:
        return self.kind.is_write

    @property
    def server_id(self) -> int:
        return server_of_address(self.address)

    @property
    def volume_id(self) -> int:
        return volume_of_address(self.address)


@dataclass
class Trace:
    """A chronological sequence of I/O requests plus summary metadata.

    ``requests`` must be sorted by issue time; :meth:`validate` checks
    this.  Traces can be large, so most consumers iterate rather than
    index.
    """

    requests: List[IORequest] = field(default_factory=list)
    description: str = ""

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[IORequest]:
        return iter(self.requests)

    def validate(self) -> None:
        """Raise ``ValueError`` if requests are not in issue-time order."""
        previous = float("-inf")
        for index, request in enumerate(self.requests):
            if request.issue_time < previous:
                raise ValueError(
                    f"request {index} out of order: "
                    f"{request.issue_time} < {previous}"
                )
            previous = request.issue_time

    def block_accesses(self) -> Iterator[BlockAccess]:
        """Expand every request into per-block accesses, in issue order."""
        for request in self.requests:
            yield from request.block_accesses()

    @property
    def duration(self) -> float:
        """Seconds from trace start to the last completion, 0.0 if empty."""
        if not self.requests:
            return 0.0
        return max(r.completion_time for r in self.requests)

    def total_blocks(self) -> int:
        """Total number of 512-byte block accesses in the trace."""
        return sum(r.block_count for r in self.requests)
