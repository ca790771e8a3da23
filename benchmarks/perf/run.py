"""Driver entry point: ``python3 benchmarks/perf/run.py --workload NAME ...``.

Runs with no ``PYTHONPATH``: puts the repo root and ``src/`` on the
import path, then hands over to :mod:`benchmarks.perf.cli`.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    # This directory is sys.path[0] when run as a script; its modules
    # are reached as ``benchmarks.perf.*`` instead.
    sys.path[:] = [entry for entry in sys.path if Path(entry or ".").resolve() != here]
    sys.path.insert(0, str(here.parents[1]))

    from benchmarks.perf import ensure_repro_importable

    ensure_repro_importable()

    from benchmarks.perf.cli import main

    sys.exit(main())
