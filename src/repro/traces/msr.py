"""MSR-Cambridge-format trace I/O.

The paper's traces come from Narayanan et al.'s week-long block traces,
distributed as CSV with the schema::

    Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime

where ``Timestamp`` is a Windows filetime (100-ns ticks), ``Offset`` and
``Size`` are bytes, and ``ResponseTime`` is in 100-ns ticks.  This module
reads that format into a :class:`~repro.traces.columnar.ColumnarTrace`
(and writes columns back out in the same format) so the reproduction
can be driven by the real traces when they are available.
"""

from __future__ import annotations

import csv
import io
from array import array
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.traces.columnar import ColumnarTrace
from repro.traces.model import (
    MAX_BLOCK_OFFSET,
    MAX_VOLUME_ID,
    pack_address,
    unpack_address,
)
from repro.util.atomic import atomic_write
from repro.util.units import BLOCK_BYTES, IO_UNIT_BYTES

#: 100-ns ticks per second (Windows filetime resolution).
TICKS_PER_SECOND = 10_000_000

#: Per column (issue, completion, address, block count, write, aligned),
#: the typed buffer's code and the dtype it is read as.
_COLUMN_CODES = ("d", "d", "q", "i", "b", "b")
_COLUMN_DTYPES = (np.float64, np.float64, np.int64, np.int32, np.bool_, np.bool_)


def _is_4k_aligned(offset_bytes: int, size_bytes: int) -> bool:
    return offset_bytes % IO_UNIT_BYTES == 0 and size_bytes % IO_UNIT_BYTES == 0


def read_msr_csv(
    path: Union[str, Path],
    server_ids: Optional[Dict[str, int]] = None,
    epoch_ticks: Optional[int] = None,
) -> ColumnarTrace:
    """Read an MSR-Cambridge CSV trace file into columns.

    Args:
        path: the CSV file.
        server_ids: optional mapping from hostname to server id; if
            omitted, hostnames are numbered in order of first appearance.
        epoch_ticks: tick value treated as trace time zero.  Defaults to
            the first record's timestamp.

    Returns:
        a chronological :class:`ColumnarTrace` (rows stable-sorted by
        issue time).

    Raises:
        ValueError: ``line N: ...`` for the first row that is short, not
            numeric, too large for its column, or names a block no packed
            address can hold (a negative offset, a volume id past
            ``MAX_VOLUME_ID``), or that the CSV parser refuses.
    """
    path = Path(path)
    hostname_ids: Dict[str, int] = dict(server_ids or {})
    # Typed buffers, ~30 bytes a row (Python lists of boxed values took
    # ~200), handed to numpy without a copy; the sort's copy is the peak.
    columns = tuple(array(code) for code in _COLUMN_CODES)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            for row in reader:
                if row and not row[0].startswith("#"):
                    epoch_ticks = _read_row(row, hostname_ids, epoch_ticks, columns)
        except (ValueError, OverflowError, csv.Error) as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None
    return ColumnarTrace(
        *(np.frombuffer(column, dtype) for column, dtype in zip(columns, _COLUMN_DTYPES)),
        description=f"MSR trace from {path.name}",
    ).sorted_by_issue()


def _read_row(
    row: List[str],
    hostname_ids: Dict[str, int],
    epoch_ticks: Optional[int],
    columns: Tuple[array, ...],
) -> int:
    """Append one CSV record to ``columns``; returns the trace epoch."""
    if len(row) < 7:
        raise ValueError(f"expected 7 fields, got {len(row)}")
    ticks, hostname, disk, kind, offset, size, response = row[:7]
    ticks_i = int(ticks)
    if epoch_ticks is None:
        epoch_ticks = ticks_i
    offset_bytes = int(offset)
    size_bytes = max(int(size), 1)
    volume_id = int(disk)
    block_offset = offset_bytes // BLOCK_BYTES
    block_count = -(-(offset_bytes % BLOCK_BYTES + size_bytes) // BLOCK_BYTES)
    if not 0 <= block_offset <= MAX_BLOCK_OFFSET:
        raise ValueError(f"offset out of range: {offset_bytes}")
    if not 0 <= volume_id <= MAX_VOLUME_ID:
        raise ValueError(f"volume id out of range: {volume_id}")
    if block_count <= 0:
        raise ValueError(f"block count must be positive, got {block_count}")
    issue = (ticks_i - epoch_ticks) / TICKS_PER_SECOND
    completion = issue + int(response) / TICKS_PER_SECOND
    if hostname not in hostname_ids:
        hostname_ids[hostname] = len(hostname_ids)
    for column, value in zip(columns, (
        issue,
        max(completion, issue),
        pack_address(hostname_ids[hostname], volume_id, block_offset),
        block_count,
        kind.strip().lower() != "read",
        _is_4k_aligned(offset_bytes, size_bytes),
    )):
        column.append(value)
    return epoch_ticks


def write_msr_csv(
    trace: ColumnarTrace,
    path: Union[str, Path],
    hostnames: Optional[Dict[int, str]] = None,
) -> None:
    """Write a trace in MSR-Cambridge CSV format.

    Round-trips with :func:`read_msr_csv` up to timestamp quantization
    (100-ns ticks).
    """
    path = Path(path)
    names = hostnames or {}
    with atomic_write(path) as handle:
        # Text layer over the atomic binary handle; detach (not close)
        # at the end so atomic_write can still flush/fsync the file.
        wrapper = io.TextIOWrapper(handle, encoding="utf-8", newline="")
        writer = csv.writer(wrapper)
        for issue, completion, address, blocks, is_write in zip(
            trace.issue_time.tolist(),
            trace.completion_time.tolist(),
            trace.address.tolist(),
            trace.block_count.tolist(),
            trace.is_write.tolist(),
        ):
            server, volume, block_offset = unpack_address(address)
            writer.writerow(
                [
                    int(round(issue * TICKS_PER_SECOND)),
                    names.get(server, f"srv{server}"),
                    volume,
                    "Write" if is_write else "Read",
                    block_offset * BLOCK_BYTES,
                    blocks * BLOCK_BYTES,
                    int(round((completion - issue) * TICKS_PER_SECOND)),
                ]
            )
        wrapper.flush()
        wrapper.detach()
