"""The repo's performance benchmark (see ``README.md`` beside this file).

Six named workloads over the replay and serving paths, measured from
outside the program by timing calls into each module's public
functions.  ``BENCHMARK.json`` at the repo root names the metrics; the
driver entry point is ``run.py`` and the all-workloads command is
``PYTHONPATH=src python -m benchmarks.perf``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

#: Repo root (``benchmarks/perf/__init__.py`` is two levels below it).
REPO_ROOT = Path(__file__).resolve().parents[2]


def ensure_repro_importable() -> None:
    """Put ``src/`` on ``sys.path`` (and ``PYTHONPATH``, for workers).

    The driver runs ``python3 benchmarks/perf/run.py`` with no
    ``PYTHONPATH``; worker processes the program starts must find
    ``repro`` too, whatever their start method.
    """
    src = REPO_ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(
            f"benchmarks.perf: {src}/repro not found — the benchmark measures "
            "the repo's own sources and cannot run without them"
        )
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    existing = os.environ.get("PYTHONPATH", "")
    if str(src) not in existing.split(os.pathsep):
        os.environ["PYTHONPATH"] = (
            str(src) + (os.pathsep + existing if existing else "")
        )
