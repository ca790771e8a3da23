"""``PYTHONPATH=src python -m benchmarks.perf`` — run every workload."""

import sys

from benchmarks.perf import ensure_repro_importable

if __name__ == "__main__":
    ensure_repro_importable()

    from benchmarks.perf.cli import main

    sys.exit(main())
