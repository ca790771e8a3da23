"""Out-of-core segment store: a trace as bounded ``.npz`` row ranges.

The ROADMAP's full-scale week replay (~434M requests) cannot hold the
trace in RAM as monolithic columns — and does not need to: both engines
consume requests strictly in issue order, so the trace can live on disk
as a sequence of bounded **segments** and stream through the simulator
one chunk at a time.

A segment store is a directory:

* ``segment-00000.npz``, ``segment-00001.npz``, … — each an ordinary
  :meth:`~repro.traces.columnar.ColumnarTrace.save_npz` file holding
  one contiguous, issue-ordered row range (the synthetic generator
  writes one-or-more segments per trace day);
* ``manifest.json`` — the versioned index, written last and atomically,
  recording per segment its row count, first/last issue time, and byte
  size.  Loaders refuse unknown ``manifest_version`` values, and both
  the manifest schema and the per-segment entry are registered in the
  SVL005 schema registry.

Reading is **memmap-backed**: ``numpy.savez`` stores members
uncompressed (``ZIP_STORED``), so each column is a contiguous ``.npy``
byte range inside the zip and can be mapped directly with
``numpy.memmap`` at the member's data offset — no segment is ever
materialized wholesale just to be sliced.  :meth:`SegmentStore.iter_chunks`
yields ``(base_row, columns)`` pieces bounded by a row budget; peak
resident memory is proportional to the chunk budget, not the trace.

Integrity: the manifest records each segment's byte size and issue-time
range (truncation and out-of-order segments are caught at open time
without reading data), the zip structure and the embedded
``format_version`` are checked per segment — parsed once per store, then
re-verified on every load by a digest of the parsed bytes — and any
unreadable segment raises :class:`SegmentError` — the trace cache
(:mod:`repro.traces.store`) evicts the whole directory and regenerates.
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.traces.columnar import NPZ_FORMAT_VERSION, BlockCounts, ColumnarTrace
from repro.util.atomic import atomic_write, atomic_write_path

#: Bump when the manifest layout changes; loaders refuse other values.
SEGMENT_MANIFEST_VERSION = 1

#: The manifest's file name inside a segment-store directory.
MANIFEST_NAME = "manifest.json"

#: Default bounded-chunk row budget for iteration and segment splitting.
DEFAULT_CHUNK_ROWS = 1 << 18

#: Column members of a segment ``.npz``, in trace-column order.
_COLUMNS = (
    "issue_time",
    "completion_time",
    "address",
    "block_count",
    "is_write",
    "aligned_4k",
)

#: A parsed segment: per column ``(name, dtype, rows, data offset)``.
_Layout = Tuple[Tuple[str, np.dtype, int, int], ...]


class SegmentError(Exception):
    """A segment store is missing, unversioned, truncated, or corrupt."""


@dataclass(frozen=True)
class SegmentInfo:
    """One manifest entry: a contiguous issue-ordered row range on disk."""

    file: str
    rows: int
    first_issue: float
    last_issue: float
    bytes: int


def _manifest_payload(
    description: str,
    segments: Sequence[SegmentInfo],
    config_fingerprint: Optional[str],
) -> Dict[str, object]:
    """The manifest dict (schema ``segment-manifest`` in SVL005)."""
    return {
        "manifest_version": SEGMENT_MANIFEST_VERSION,
        "npz_format_version": NPZ_FORMAT_VERSION,
        "description": description,
        "config_fingerprint": config_fingerprint,
        "total_rows": int(sum(s.rows for s in segments)),
        "segments": [asdict(s) for s in segments],
    }


class SegmentWriter:
    """Append-only builder of a segment store directory.

    ``append`` publishes each segment atomically as it is produced (the
    generator streams one day at a time through here without ever
    holding the week); ``finalize`` writes the manifest last, also
    atomically — a crashed writer leaves no manifest, so readers never
    see a half-built store.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        description: str = "",
        config_fingerprint: Optional[str] = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.description = description
        self.config_fingerprint = config_fingerprint
        self._segments: List[SegmentInfo] = []
        self._finalized = False

    def append(
        self, columns: ColumnarTrace, max_rows: Optional[int] = None
    ) -> None:
        """Write ``columns`` as one segment (or several of ``<= max_rows``).

        Rows must continue the store's issue-time order (equal times
        are fine) — anything else raises :class:`SegmentError`; zero-row
        chunks are skipped.  Appending after :meth:`finalize` is an
        error.
        """
        if self._finalized:
            raise SegmentError("segment store already finalized")
        if len(columns) == 0:
            return
        if max_rows is not None and max_rows <= 0:
            raise ValueError(f"max_rows must be positive, got {max_rows}")
        issue = columns.issue_time
        if self._segments and issue[0] < self._segments[-1].last_issue:
            raise SegmentError(
                f"chunk starts at issue time {issue[0]}, before the store's "
                f"last ({self._segments[-1].last_issue})"
            )
        try:
            columns.validate()
        except ValueError as exc:
            raise SegmentError(f"chunk refused: {exc}") from exc
        step = max_rows or len(columns)
        for start in range(0, len(columns), step):
            piece = _slice_columns(columns, start, min(start + step, len(columns)))
            name = f"segment-{len(self._segments):05d}.npz"
            path = self.directory / name
            with atomic_write_path(path) as tmp_path:
                piece.save_npz(tmp_path)
            self._segments.append(
                SegmentInfo(
                    file=name,
                    rows=len(piece),
                    first_issue=float(piece.issue_time[0]),
                    last_issue=float(piece.issue_time[-1]),
                    bytes=path.stat().st_size,
                )
            )

    def finalize(self) -> "SegmentStore":
        """Write the manifest and return the opened store."""
        payload = _manifest_payload(
            self.description, self._segments, self.config_fingerprint
        )
        with atomic_write(self.directory / MANIFEST_NAME) as handle:
            handle.write(json.dumps(payload, indent=2, sort_keys=True).encode())
        self._finalized = True
        return SegmentStore.open(self.directory)


class ChunkSource:
    """Marker base for out-of-core trace sources the engines can stream.

    A chunk source yields ``(base_row, columns)`` pieces of one logical
    trace via ``iter_chunks(chunk_rows, start_row)`` and identifies
    itself with the checkpoint-compatible ``fingerprint()`` triple.
    The simulation engine accepts any chunk source where it accepts an
    in-RAM trace; :class:`SegmentStore` (the whole trace) and
    :class:`ShardView` (one shard of it) are the two implementations.
    """


class SegmentStore(ChunkSource):
    """A validated, read-only view of a segment-store directory."""

    def __init__(
        self,
        directory: Path,
        description: str,
        config_fingerprint: Optional[str],
        segments: Sequence[SegmentInfo],
    ) -> None:
        self.directory = directory
        self.description = description
        self.config_fingerprint = config_fingerprint
        self.segments: Tuple[SegmentInfo, ...] = tuple(segments)
        #: Per segment index, its last parse sealed with a digest of the
        #: bytes read: ``(description, layout, seal)`` — no map, no handle.
        self._layouts: Dict[int, Tuple[str, _Layout, bytes]] = {}

    @classmethod
    def open(cls, directory: Union[str, Path]) -> "SegmentStore":
        """Open and validate a store; raises :class:`SegmentError`.

        Validation is cheap by design: the manifest must parse with the
        expected versions, and every listed segment file must exist
        with exactly its recorded byte size (catching truncation before
        any data is read) and continue the issue-time order of the one
        before it.  Per-row corruption surfaces later, when
        :meth:`load_segment` parses the zip structure.
        """
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        try:
            payload = json.loads(manifest_path.read_text())
        except (OSError, ValueError) as exc:
            raise SegmentError(
                f"unreadable segment manifest {manifest_path}: {exc}"
            ) from exc
        version = payload.get("manifest_version")
        if version != SEGMENT_MANIFEST_VERSION:
            raise SegmentError(
                f"unsupported segment manifest version {version!r} "
                f"(expected {SEGMENT_MANIFEST_VERSION}) in {manifest_path}"
            )
        if payload.get("npz_format_version") != NPZ_FORMAT_VERSION:
            raise SegmentError(
                f"segment store {directory} uses npz format "
                f"{payload.get('npz_format_version')!r} "
                f"(expected {NPZ_FORMAT_VERSION})"
            )
        try:
            segments = [SegmentInfo(**entry) for entry in payload["segments"]]
            description = str(payload["description"])
            fingerprint = payload["config_fingerprint"]
            total_rows = int(payload["total_rows"])
        except (KeyError, TypeError) as exc:
            raise SegmentError(
                f"malformed segment manifest {manifest_path}: {exc}"
            ) from exc
        if total_rows != sum(s.rows for s in segments):
            raise SegmentError(
                f"segment manifest {manifest_path} total_rows disagrees "
                "with its per-segment row counts"
            )
        previous_last = float("-inf")
        for segment in segments:
            if not previous_last <= segment.first_issue <= segment.last_issue:
                raise SegmentError(
                    f"segment manifest {manifest_path} lists {segment.file} "
                    "out of issue-time order"
                )
            previous_last = segment.last_issue
            path = directory / segment.file
            try:
                size = path.stat().st_size
            except OSError as exc:
                raise SegmentError(f"missing segment {path}: {exc}") from exc
            if size != segment.bytes:
                raise SegmentError(
                    f"segment {path} is {size} bytes, manifest says "
                    f"{segment.bytes} (truncated or overwritten)"
                )
        return cls(directory, description, fingerprint, segments)

    # -- basic protocol ---------------------------------------------------
    def __len__(self) -> int:
        return sum(s.rows for s in self.segments)

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    def fingerprint(self) -> Dict[str, object]:
        """Identity triple matching the engine's columnar fingerprint.

        Same shape and values as the in-RAM trace's checkpoint
        fingerprint, so a checkpoint written against the whole trace
        resumes against its segmented form and vice versa.
        """
        total = len(self)
        return {
            "requests": total,
            "first_issue": self.segments[0].first_issue if total else None,
            "last_issue": self.segments[-1].last_issue if total else None,
        }

    # -- data access ------------------------------------------------------
    def load_segment(self, index: int, *, mmap: bool = True) -> ColumnarTrace:
        """Columns of one segment, memmap-backed when possible.

        Raises :class:`SegmentError` when the segment cannot be read
        (bad zip, wrong format version, row-count mismatch).
        """
        entry = self.segments[index]
        path = self.directory / entry.file
        try:
            columns = self._map_segment(index, path) if mmap else None
            if columns is None:
                columns = ColumnarTrace.load_npz(path)
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
            raise SegmentError(
                f"unreadable segment {path} ({type(exc).__name__}: {exc})"
            ) from exc
        if len(columns) != entry.rows:
            raise SegmentError(
                f"segment {path} holds {len(columns)} rows, manifest "
                f"says {entry.rows}"
            )
        _note_segment_open(entry.rows)
        return columns

    def _map_segment(self, index: int, path: Path) -> Optional[ColumnarTrace]:
        """View a segment's columns in one fresh map of the whole file.

        The file is parsed on the store's first load of it and whenever
        its :func:`_seal`, retaken from the new map on every load, is not
        the remembered one: a hit has re-verified byte for byte all a
        parse reads, and a replaced, truncated or header-damaged file can
        only miss.  Column data was never checksummed and is served as
        mapped.  Returns None for a compressed segment (never remembered).
        """
        with open(path, "rb") as raw:
            mapped = np.memmap(raw, dtype=np.uint8, mode="r")
            memo = self._layouts.get(index)
            if memo is None or _seal(mapped, memo[1]) != memo[2]:
                parsed = _parse_segment(raw)
                if parsed is None:
                    return None
                memo = self._layouts[index] = (*parsed, _seal(mapped, parsed[1]))
        description, layout, _ = memo
        return ColumnarTrace(description=description, **{
            name: np.frombuffer(mapped, dtype=dtype, count=rows, offset=offset)
            for name, dtype, rows, offset in layout
        })

    def iter_chunks(
        self,
        chunk_rows: Optional[int] = None,
        start_row: int = 0,
    ) -> Iterator[Tuple[int, ColumnarTrace]]:
        """Yield ``(base_row, columns)`` pieces of at most ``chunk_rows``.

        Chunks never span segments, cover rows ``start_row..`` in issue
        order, and are memmap-backed views — resident memory stays
        bounded by the chunk budget regardless of trace size.  Segments
        entirely below ``start_row`` are skipped without being opened
        (how a resumed run fast-forwards to its checkpoint cursor).
        """
        if chunk_rows is not None and chunk_rows <= 0:
            raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
        budget = chunk_rows or DEFAULT_CHUNK_ROWS
        base = 0
        for index, entry in enumerate(self.segments):
            if base + entry.rows <= start_row:
                base += entry.rows
                continue
            columns = self.load_segment(index)
            local = max(0, start_row - base)
            for lo in range(local, entry.rows, budget):
                hi = min(lo + budget, entry.rows)
                yield base + lo, _slice_columns(columns, lo, hi)
            base += entry.rows

    def load_all(self) -> ColumnarTrace:
        """The whole trace in RAM, read unmapped: every member's zip CRC is
        checked, so a damaged column byte raises :class:`SegmentError`
        where the mapped reads of :meth:`iter_chunks` would serve it."""
        parts = [self.load_segment(i, mmap=False) for i in range(self.num_segments)]
        return ColumnarTrace.concatenate(parts, description=self.description)

    def daily_block_counts(
        self, days: int, chunk_rows: Optional[int] = None
    ) -> List[BlockCounts]:
        """Per-day per-block access counts, streamed chunk by chunk.

        Identical to
        :meth:`~repro.traces.columnar.ColumnarTrace.daily_block_counts`
        on the materialized trace — the computation is a pure per-row
        aggregation, so per-chunk tables sum to the whole-trace tables —
        without ever holding more than one chunk's columns.
        """
        return _streamed_daily_counts(self.iter_chunks(chunk_rows), days)

    def shard(self, shard: int, shards: int) -> "ShardView":
        """One server-hash shard of this store (see :class:`ShardView`)."""
        return ShardView(self, shard, shards)


def shard_of_servers(server_ids: np.ndarray, shards: int) -> np.ndarray:
    """Deterministic shard index per server id (vectorized).

    Servers hash to shards via the splitmix64 finalizer (wrapping
    uint64 arithmetic), so the assignment is a pure function of
    ``(server_id, shards)`` — independent of segment layout, chunk
    budget, worker count, and platform — and stays balanced even when
    server ids are consecutive small integers.
    """
    if shards < 1:
        raise ValueError(f"shards must be positive, got {shards}")
    z = server_ids.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z % np.uint64(shards)).astype(np.int64)


class ShardView(ChunkSource):
    """One server-hash shard of a segment store, as a chunk source.

    The ensemble partitions by **server**: every request of a server —
    and, because addresses pack ``server | volume | offset``, every
    block it touches — belongs to exactly one shard, so each shard is a
    closed subsystem that can replay through its own policy and cache
    slice with no cross-shard traffic.  Rows keep their issue order;
    shard-local row numbering makes checkpoints/resume work per shard.

    With ``shards=1`` the view is the identity: same rows, same
    fingerprint, bit-identical simulation results to the plain store.
    """

    def __init__(self, store: SegmentStore, shard: int, shards: int) -> None:
        if shards < 1:
            raise ValueError(f"shards must be positive, got {shards}")
        if not 0 <= shard < shards:
            raise ValueError(f"shard must be in [0, {shards}), got {shard}")
        self.store = store
        self.shard = shard
        self.shards = shards
        self._scan: Optional[Tuple[int, Optional[float], Optional[float]]] = None

    def _mask(self, columns: ColumnarTrace) -> np.ndarray:
        return shard_of_servers(columns.server_ids, self.shards) == self.shard

    def iter_chunks(
        self,
        chunk_rows: Optional[int] = None,
        start_row: int = 0,
    ) -> Iterator[Tuple[int, ColumnarTrace]]:
        """Yield this shard's rows as ``(shard_local_base, columns)``.

        Row numbering counts only the shard's own rows (the engine's
        checkpoint cursor for a shard run is shard-local).  Chunks the
        shard does not appear in are filtered by the memmap-backed
        server-id column without materializing the other columns.
        """
        if self.shards == 1:
            yield from self.store.iter_chunks(chunk_rows, start_row)
            return
        base = 0
        for _, columns in self.store.iter_chunks(chunk_rows):
            mask = self._mask(columns)
            rows = int(np.count_nonzero(mask))
            if rows == 0:
                continue
            if base + rows <= start_row:
                base += rows
                continue
            yield base, columns.take(np.flatnonzero(mask))
            base += rows

    def __len__(self) -> int:
        return self._scan_totals()[0]

    def fingerprint(self) -> Dict[str, object]:
        """Checkpoint identity of this shard's request stream."""
        total, first, last = self._scan_totals()
        return {"requests": total, "first_issue": first, "last_issue": last}

    def _scan_totals(self) -> Tuple[int, Optional[float], Optional[float]]:
        """(rows, first_issue, last_issue) of the shard; one cached pass
        touching only the server-id and issue-time columns."""
        if self._scan is None:
            if self.shards == 1:
                fp = self.store.fingerprint()
                self._scan = (
                    int(fp["requests"]), fp["first_issue"], fp["last_issue"]
                )
                return self._scan
            total = 0
            first: Optional[float] = None
            last: Optional[float] = None
            for _, columns in self.store.iter_chunks():
                hits = np.flatnonzero(self._mask(columns))
                if hits.size == 0:
                    continue
                total += int(hits.size)
                if first is None:
                    first = float(columns.issue_time[hits[0]])
                last = float(columns.issue_time[hits[-1]])
            self._scan = (total, first, last)
        return self._scan

    def daily_block_counts(
        self, days: int, chunk_rows: Optional[int] = None
    ) -> List[BlockCounts]:
        """The shard's per-day per-block access counts (streamed; the
        ideal policy's oracle for a shard run)."""
        return _streamed_daily_counts(self.iter_chunks(chunk_rows), days)


def _note_segment_open(rows: int) -> None:
    """Count one segment-file open when observability is on.

    Streamed pipelines open each segment once per pass; the counter pair
    (opens, rows) makes re-read amplification — a shard view scanning
    every segment per shard, a retry re-streaming a store — visible in
    run telemetry without any hot-loop cost when observability is off.
    """
    from repro.obs import runtime as obs_runtime

    registry = obs_runtime.get_registry()
    if registry is None:
        return
    registry.counter(
        "segment_opens_total",
        "Segment files opened by streamed trace pipelines",
    ).inc()
    registry.counter(
        "segment_rows_read_total",
        "Trace rows made addressable by segment opens",
    ).inc(rows)


def _streamed_daily_counts(
    chunks: Iterable[Tuple[int, ColumnarTrace]], days: int
) -> List[BlockCounts]:
    """Count each chunk's days, then sum the days that span chunks."""
    parts: List[List[BlockCounts]] = [[] for _ in range(days)]
    for _, columns in chunks:
        for day, counts in enumerate(columns.daily_block_counts(days)):
            if len(counts):
                parts[day].append(counts)
    return [BlockCounts.merge(day_parts) for day_parts in parts]


def write_segments(
    chunks: Iterable[ColumnarTrace],
    directory: Union[str, Path],
    description: str = "",
    rows_per_segment: Optional[int] = None,
    config_fingerprint: Optional[str] = None,
) -> SegmentStore:
    """Stream issue-ordered chunks into a new segment store."""
    writer = SegmentWriter(directory, description, config_fingerprint)
    for chunk in chunks:
        writer.append(chunk, max_rows=rows_per_segment)
    return writer.finalize()


def segment_columnar(
    columns: ColumnarTrace,
    directory: Union[str, Path],
    rows_per_segment: Optional[int] = None,
    config_fingerprint: Optional[str] = None,
) -> SegmentStore:
    """Shard an in-RAM trace into a segment store (bounded row ranges)."""
    return write_segments(
        [columns],
        directory,
        description=columns.description,
        rows_per_segment=rows_per_segment or DEFAULT_CHUNK_ROWS,
        config_fingerprint=config_fingerprint,
    )


def _slice_columns(columns: ColumnarTrace, lo: int, hi: int) -> ColumnarTrace:
    """A contiguous row-range view (no copy for ndarray/memmap columns)."""
    return ColumnarTrace(
        issue_time=columns.issue_time[lo:hi],
        completion_time=columns.completion_time[lo:hi],
        address=columns.address[lo:hi],
        block_count=columns.block_count[lo:hi],
        is_write=columns.is_write[lo:hi],
        aligned_4k=columns.aligned_4k[lo:hi],
        description=columns.description,
    )


def _parse_segment(raw) -> Optional[Tuple[str, _Layout]]:
    """Parse an open segment file: ``(description, column layout)``.

    ``numpy.savez`` stores members with ``ZIP_STORED``, so each member
    is its raw ``.npy`` bytes at a known offset: check the column's
    local header and parse the npy header there, which leaves the offset
    its data is viewed at.  Returns None when any member is compressed
    (fall back to a full load); raises the usual zip/format exceptions
    on corruption, which :meth:`SegmentStore.load_segment` converts to
    :class:`SegmentError`.
    """
    layout = []
    with zipfile.ZipFile(raw) as archive:
        # Tiny members are read (and CRC-checked) outright; this also
        # validates the embedded format version exactly like load_npz.
        version = int(np.load(io.BytesIO(archive.read("format_version.npy"))))
        if version != NPZ_FORMAT_VERSION:
            raise ValueError(
                f"unsupported columnar trace format {version} "
                f"(expected {NPZ_FORMAT_VERSION})"
            )
        description = str(np.load(io.BytesIO(archive.read("description.npy"))))
        for name in _COLUMNS:
            info = archive.getinfo(f"{name}.npy")
            if info.compress_type != zipfile.ZIP_STORED:
                return None
            raw.seek(info.header_offset)
            local_header = raw.read(30)
            if len(local_header) != 30 or local_header[:4] != b"PK\x03\x04":
                raise ValueError(f"bad local zip header for {name}.npy")
            name_len = int.from_bytes(local_header[26:28], "little")
            extra_len = int.from_bytes(local_header[28:30], "little")
            raw.seek(info.header_offset + 30 + name_len + extra_len)
            magic = np.lib.format.read_magic(raw)
            if magic == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(raw)
            elif magic == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(raw)
            else:
                return None
            if fortran or len(shape) != 1:
                raise ValueError(f"unexpected npy layout for {name}.npy")
            layout.append((name, dtype, shape[0], raw.tell()))
    return description, tuple(layout)


def _seal(mapped: np.ndarray, layout: _Layout) -> bytes:
    """Digest of every byte of a mapped segment outside its column data:
    all a parse reads (local zip headers, npy headers, the two small
    members, the central directory), so one seal means one layout."""
    view = memoryview(mapped)
    digest = hashlib.blake2b(len(view).to_bytes(8, "little"), digest_size=16)
    start = 0
    for _, dtype, rows, offset in sorted(layout, key=lambda column: column[3]):
        digest.update(view[start:offset])
        start = offset + rows * dtype.itemsize
    digest.update(view[start:])
    return digest.digest()
