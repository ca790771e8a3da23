"""Table 1 — trace summary of the storage ensemble.

Prints the reproduced Table 1 (server inventory) alongside the measured
summary of the generated synthetic trace (requests, block accesses,
daily footprint), and benchmarks trace generation itself.
"""


import numpy as np

from repro.analysis.report import render_table
from repro.traces import EnsembleTraceGenerator, table1_rows, tiny_config
from repro.util.units import BLOCK_BYTES, GIB
from benchmarks.conftest import DAYS


def test_table1_inventory(benchmark, bench_columnar, bench_context, bench_config):
    rows = benchmark(table1_rows)
    print()
    print(
        render_table(
            ["Key", "Name", "Volumes", "Spindles", "Size (GB)"],
            [[r["key"], r["name"], r["volumes"], r["spindles"], r["size_gb"]] for r in rows],
            title="Table 1: Trace Summary (paper inventory)",
        )
    )
    counts = bench_context.daily_counts
    requests = np.bincount(bench_columnar.issue_days(), minlength=DAYS)
    print(
        render_table(
            ["day", "requests(k)", "block accesses(k)", "unique blocks(k)",
             "footprint (paper-scale GB)"],
            [
                [
                    day,
                    round(int(requests[day]) / 1e3, 1),
                    round(counts[day].total() / 1e3, 1),
                    round(len(counts[day]) / 1e3, 1),
                    round(len(counts[day]) * BLOCK_BYTES / GIB / bench_config.scale),
                ]
                for day in range(DAYS)
            ],
            title="\nMeasured synthetic-ensemble summary "
            f"(scale={bench_config.scale:g})",
        )
    )

    # Shape checks: 13 servers / 36 volumes / 6449 GB as published, and
    # a paper-plausible daily footprint (335-1190 GB at full scale).
    assert rows[-1] == {
        "key": "Total", "name": "", "volumes": 36, "spindles": 179, "size_gb": 6449,
    }
    full_scale_gb = [
        len(counts[d]) * BLOCK_BYTES / GIB / bench_config.scale for d in range(1, DAYS)
    ]
    assert all(150 < gb < 1600 for gb in full_scale_gb)


def test_trace_generation_throughput(benchmark):
    """Benchmark the generator itself on a tiny preset."""
    config = tiny_config(seed=7)

    def generate():
        return EnsembleTraceGenerator(config).generate_columnar().total_blocks()

    blocks = benchmark(generate)
    assert blocks > 10_000
