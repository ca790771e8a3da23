"""In-memory spans recorded from the benchmark's own files.

A span is ``name, start, end, parent, run_id`` (``perf_counter``
seconds); spans nest by call order, so a span opened while another is
open is its child.  A layer's *self time* is its spans' duration minus
the part their direct children cover.  Spans stay in memory and are
dumped as JSON when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List


class Tracer:
    """Records nested spans for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Dict[str, object]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, object]]:
        record: Dict[str, object] = {
            "id": len(self.spans),
            "name": name,
            "start": 0.0,
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "run_id": self.run_id,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        """Summed duration of every closed span called ``name``."""
        return sum(
            span["end"] - span["start"]
            for span in self.spans
            if span["name"] == name and span["end"] is not None
        )

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span["name"] == name)

    def self_time(self, name: str) -> float:
        """``total(name)`` minus the time its direct children cover."""
        owners = {span["id"] for span in self.spans if span["name"] == name}
        children = sum(
            span["end"] - span["start"]
            for span in self.spans
            if span["parent"] in owners and span["end"] is not None
        )
        return self.total(name) - children

    def dump(self) -> List[Dict[str, object]]:
        """The spans as plain JSON-able dicts (closed spans only)."""
        return [dict(span) for span in self.spans if span["end"] is not None]

