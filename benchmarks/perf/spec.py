"""What the benchmark measures: workload sizes and the end-to-end table.

``BENCHMARK.json`` at the repo root is the single declaration of every
metric's name, unit and direction.  Its ``end_to_end`` list holds the
four figures the driver gates (its contract wants each of them from
every workload, never 0, with a relative bound); the other five of the
issue's nine end-to-end metrics — serve-only latencies and exact
simulated statistics — are declared in its ``per_layer`` list.  This
module adds only what that file cannot say: the bound ``compare``
judges each of the nine by, and the workloads it is judged on.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from benchmarks.perf import REPO_ROOT

BENCHMARK_PATH = REPO_ROOT / "BENCHMARK.json"

REPLAY_WORKLOADS = ("sieve-stream", "aod-stream", "sharded-pipeline", "faulted-replay")
SERVE_WORKLOADS = ("serve-sieved", "serve-unsieved")
WORKLOADS = REPLAY_WORKLOADS + SERVE_WORKLOADS

#: Calendar days replayed: the paper's 8, except ``faulted-replay``,
#: which stops after day 4 — its fault plan's last window closes at day
#: 4.5, and the object engine is slow enough (~0.35M blocks/s) that at
#: 8 days the nine inputs would not get two repetitions each in a run.
DAYS: Dict[str, int] = {name: 8 for name in WORKLOADS}
DAYS["faulted-replay"] = 5

#: Trace scale per workload, sized so one repetition takes 0.1-0.5 s on
#: a 2-core box — far below the issue's 3e-4 / 1e-4 (5-15 s per
#: repetition), for two measured reasons.  The driver's total-time cap
#: (4 + 22 runs per workload, all inside 3420 s) leaves ~25 s per run
#: including set-up.  And one trace is not a steady input at any scale
#: that fits (see :data:`INPUTS`), so a run needs an ensemble of them,
#: each repeated.  The replay's time shares hold across scales: the
#: ``daily_block_counts`` pass is 10-20 % of a ``sieve-stream`` replay at
#: 1e-5 and at 1e-4 alike.
SCALES: Dict[str, float] = {
    "sieve-stream": 1e-5,
    "aod-stream": 1e-5,
    "sharded-pipeline": 1e-5,
    "faulted-replay": 1e-5,
    "serve-sieved": 5e-6,
    "serve-unsieved": 5e-6,
}

#: Independent traces per run.  One trace's replay rate depends on
#: which few very hot extents its seed happened to draw — at 1e-5 two
#: seeds differ by 10-20 %, and at 1e-4 ten seeds still ranged 1.17-1.54M
#: blocks/s on ``sieve-stream`` — so the median over an ensemble of
#: traces is what repeats from seed to seed.
INPUTS = 9

#: Every input is set up this often per run; ``setup_s`` is the sum
#: over the ensemble of each input's median round.
SETUP_ROUNDS = 3

#: The warm-up repetition replays one trace this many times the scale
#: of the timed inputs, in the still-empty process: ``peak_rss_mb`` is
#: the high-water mark it leaves.  At the timed scale a trace is under
#: 1 MB and the figure would be the interpreter's and numpy's own
#: ~45 MiB whatever the program did; at 7x the replay adds a quarter
#: (serve) to two thirds (``sieve-stream``) of it, so a change to what
#: a replay holds in memory shows.  Seven,
#: not five or ten: the generator's request count is steady from seed to
#: seed at 7e-5 and 3.5e-5 (inter-quartile spread 7-8 % of the median)
#: but bimodal at 5e-5 and 2.5e-5 (47 % and 107 %: a rounding threshold
#: in its very-hot-extent draw), and the memory figure moves with it;
#: at ten the slower workloads' warm-up alone takes 6-9 s.
WARMUP_SCALE_FACTOR = 7

#: Timed repetitions per input: at least this many, then round-robin
#: until ``--seconds`` of measurement have elapsed.
MIN_REPETITIONS = 2

#: Closed-loop client processes of the serve workloads (= nproc here).
SERVE_CLIENTS = 2

#: Shards / worker processes of ``sharded-pipeline``.
PIPELINE_SHARDS = 4
PIPELINE_JOBS = 2


@dataclass(frozen=True)
class Metric:
    """One declared metric: how to read it and how far it may move."""

    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: share of the base median ``compare`` lets it worsen by (0 =
    #: exact); ``None`` for a per-layer metric, which is never gated.
    bound: Optional[float] = None
    #: workloads it is printed and compared on (empty = all).
    workloads: Tuple[str, ...] = ()

    def applies_to(self, workload: str) -> bool:
        return not self.workloads or workload in self.workloads


#: The nine end-to-end metrics: ``name -> (compare bound, workloads)``.
#: These are the issue's bounds, not the driver's: ``BENCHMARK.json``
#: carries 0.25 for its four, because the driver refuses a benchmark
#: whose run-to-run spread exceeds the declared bound and this sandbox's
#: spread is 4-17 % (README, "Steadiness").  ``compare`` keeps the
#: tighter bound and answers ``unresolved`` where the runs cannot
#: resolve it.  Every workload reports both rates to the driver; each
#: is judged where it is the natural unit.
END_TO_END: Dict[str, Tuple[float, Tuple[str, ...]]] = {
    "setup_s": (0.15, ()),
    "blocks_per_s": (0.10, REPLAY_WORKLOADS),
    "ops_per_s": (0.10, SERVE_WORKLOADS),
    "peak_rss_mb": (0.10, ()),
    "read_p50_us": (0.10, SERVE_WORKLOADS),
    "write_p50_us": (0.10, SERVE_WORKLOADS),
    "hit_ratio": (0.0, ()),
    "allocation_writes": (0.0, ()),
    "failed_share": (0.0, ()),
}


def quartiles(values: List[float]) -> Tuple[float, float]:
    """``(q1, q3)`` as ``statistics.quantiles(n=4)`` gives them (the driver's rule)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def load_benchmark() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(BENCHMARK_PATH.read_text())


def driver_end_to_end() -> List[str]:
    """Names of the metrics the driver reads from an untraced run."""
    return [m["name"] for m in load_benchmark()["end_to_end"]]


def end_to_end_metrics() -> List[Metric]:
    """All nine end-to-end metrics, in :data:`END_TO_END` order."""
    bench = load_benchmark()
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    return [
        Metric(name, declared[name]["unit"], declared[name]["better"], bound, workloads)
        for name, (bound, workloads) in END_TO_END.items()
    ]


def per_layer_metrics() -> List[Metric]:
    return [
        Metric(m["name"], m["unit"], m["better"])
        for m in load_benchmark()["per_layer"]
    ]


def input_seed(seed: int, index: int) -> int:
    """Generator seed of the ensemble's ``index``-th trace.

    Input 0 is ``--seed`` itself; the stride keeps the ensembles of
    neighbouring ``--seed`` values disjoint.
    """
    return seed + index * 1_000_003


def trace_config(workload: str, seed: int, scale_factor: int = 1):
    """The ``SyntheticTraceConfig`` one input of ``workload`` is made from."""
    from repro.traces.synthetic import SyntheticTraceConfig

    # footprint_sigma=0 holds every day's footprint at the paper's mean
    # (685 GB/day x scale) instead of drawing it lognormally per seed:
    # it halves the seed-to-seed spread of the trace's size (request
    # count IQR 24% -> 13% of the median at 1e-5), so the work per run
    # is comparable across seeds.
    return SyntheticTraceConfig(
        scale=SCALES[workload] * scale_factor, days=DAYS[workload], seed=seed,
        footprint_sigma=0.0,
    )


def default_seed() -> int:
    from repro.traces.synthetic import SyntheticTraceConfig

    return SyntheticTraceConfig().seed
