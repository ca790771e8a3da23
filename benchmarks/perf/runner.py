"""Measure one workload in this process: warm-up, set-up, timed repetitions.

The run starts with one warm-up repetition on a trace
:data:`~benchmarks.perf.spec.WARMUP_SCALE_FACTOR` times the timed
scale; the process's memory high-water mark right after it is
``peak_rss_mb``.  The timed input is an *ensemble* of
:data:`~benchmarks.perf.spec.INPUTS` independent traces drawn from
``--seed``; timed repetitions cycle over them until ``seconds`` of
measurement have elapsed, each with the box's speed probed on either
side (:meth:`~benchmarks.perf.workloads.Workload.timed_repetition`).
Each input's figure is the **median** of its repetitions and the run's
value the **median over inputs** — see :func:`summarize`.  With
``trace`` on, half the budget goes to untraced repetitions (the base of
``bench.trace_overhead_ratio``) and the rest to one traced repetition
plus the layer probes of :mod:`benchmarks.perf.layers`, on the first
input.

Run as ``python -m benchmarks.perf.runner`` this module is the suite's
hand-off to its per-workload subprocesses: :func:`measure`'s arguments
as one JSON object on stdin, the full result record as the last line of
stdout.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from itertools import cycle
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.perf import machine, spec, workloads
from benchmarks.perf.spans import Tracer
from benchmarks.perf.workloads import Repetition

DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: Root of the per-run private work directories: inside the checkout,
#: gitignored, and gone again when the last run using it ends.
WORK_ROOT = Path(__file__).with_name(".work")


def load_digests() -> Dict[str, Dict[str, Dict[str, object]]]:
    """Pinned statistics digests.

    ``{seed: {workload: {"inputs": [sha256 per input], "warm_up": sha256}}}``.
    """
    return json.loads(DIGESTS_PATH.read_text())


def summarize(per_input: List[List[float]], metric: spec.Metric,
              combine=statistics.median) -> Dict[str, object]:
    """One metric's value from every repetition of every input.

    Each input's figure is the **median** of its repetitions and the
    run's value the **median over the ensemble's inputs** (``combine``;
    ``sum`` for ``setup_s``): two traces from different seeds differ by
    10-30 % in replay rate (a handful of very hot extents dominate),
    and the median over independent traces is what repeats from seed
    to seed.  Simulated statistics repeat exactly: every raw value of
    an input coincides for them.
    """
    figures = [statistics.median(values) for values in per_input]
    pooled = [value for values in per_input for value in values]
    q1, q3 = spec.quartiles(pooled)
    return {
        "value": combine(figures),
        "unit": metric.unit,
        "per_input": figures,
        "median": statistics.median(pooled),
        "min": min(pooled),
        "q1": q1,
        "q3": q3,
        "reps": len(pooled),
        "values_per_input": per_input,
    }


def peak_rss_mib() -> float:
    """Peak resident set of this process plus its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # Linux reports KiB


def _check_digests(pinned: Optional[dict], per_input: List[List[Repetition]],
                   warm_up: Optional[Repetition]) -> List[str]:
    """Mark every repetition whose statistics digest is not the expected one.

    Expected is the pinned digest of that (seed, workload, input) when
    there is one, else the input's first repetition: for any seed, all
    repetitions of an input must agree with each other.  ``warm_up`` is
    the repetition on the larger trace (``None`` when the warm-up ran on
    input 0's own trace and is already among its repetitions); alone of
    its kind, it can only be checked against a pin.
    """
    problems = []
    groups = [
        (f"input {index}", repetitions,
         pinned["inputs"][index] if pinned else repetitions[0].digest)
        for index, repetitions in enumerate(per_input)
    ]
    if warm_up is not None and pinned:
        groups.append(("warm-up", [warm_up], pinned["warm_up"]))
    origin = "pinned digest" if pinned else "first repetition"
    for label, repetitions, expected in groups:
        for repetition in repetitions:
            if repetition.digest != expected:
                repetition.failed += 1
                problems.append(
                    f"{label}: statistics digest {repetition.digest[:12]} "
                    f"!= {origin} {expected[:12]}"
                )
    return problems


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False, pin: bool = False) -> Dict[str, object]:
    """Run workload ``name`` and return the full result record.

    ``smoke`` cuts the run to one input, one set-up and one repetition;
    ``pin`` ignores the digests pinned for ``seed`` (the run is the one
    that will replace them), so repetitions need only agree with each other.
    """
    record = machine.machine_record()
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Nothing may touch the repo-root trace cache.
    os.environ["SIEVESTORE_TRACE_CACHE"] = str(work / "trace-cache")
    try:
        return _measure(name, seed, seconds, trace, work, smoke, pin, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run's directory is still in it
            pass


def _measure(name, seed, seconds, trace, work, smoke, pin, record) -> Dict[str, object]:
    calibration = machine.calibration(1 if smoke else machine.ROUNDS)

    # Warm-up: imports and lazy set-up finish before timing, and — on a
    # trace large enough that the program's memory outweighs the
    # interpreter's — the process's high-water mark is taken while it
    # has held nothing but this one input.  The traced run reports no
    # memory figure and the smoke run checks plumbing: both warm up on
    # input 0's own trace.
    factor = 1 if smoke or trace else spec.WARMUP_SCALE_FACTOR
    warm = workloads.build(name, seed, work / "warm-up", factor)
    warm.setup()
    warm_up = warm.repetition()
    peak_rss = peak_rss_mib()
    del warm
    shutil.rmtree(work / "warm-up", ignore_errors=True)

    # The traced run breaks one input down by layer: the first.
    inputs = [
        workloads.build(name, spec.input_seed(seed, index), work / f"input-{index}")
        for index in range(1 if smoke or trace else spec.INPUTS)
    ]
    # Set-up always runs in this process, so it is quoted in reference
    # seconds like the in-process repetitions.
    setup_walls: List[List[float]] = [[] for _ in inputs]
    setup_raw: List[List[float]] = [[] for _ in inputs]
    for _ in range(1 if smoke else spec.SETUP_ROUNDS):
        for walls, raw_walls, workload in zip(setup_walls, setup_raw, inputs):
            _, wall, speed = machine.probed(workload.setup)
            walls.append(wall * speed)
            raw_walls.append(wall)

    per_input: List[List[Repetition]] = [[] for _ in inputs]
    budget = 0.0 if smoke else (seconds / 2 if trace else seconds)
    rounds = 1 if smoke else spec.MIN_REPETITIONS
    measuring = time.perf_counter()
    for index in cycle(range(len(inputs))):
        enough = all(len(reps) >= rounds for reps in per_input)
        if enough and time.perf_counter() - measuring >= budget:
            break
        per_input[index].append(inputs[index].timed_repetition())
    timed = [list(reps) for reps in per_input]

    spans = None
    layer_metrics: Dict[str, float] = {}
    if trace:
        from benchmarks.perf import layers

        tracer = Tracer(run_id=f"{name}-seed{seed}")
        untraced_wall = statistics.median(r.wall for r in timed[0])
        traced, layer_metrics = layers.traced_run(inputs[0], tracer, untraced_wall)
        layer_metrics.update(calibration)
        per_input[0].append(traced)
        spans = tracer.dump()

    if factor == 1:
        # The same trace as input 0: one more repetition of it.
        per_input[0].append(warm_up)
    pinned = None if pin else load_digests().get(str(seed), {}).get(name)
    problems = _check_digests(pinned, per_input, warm_up if factor != 1 else None)
    checked = [repetition for reps in per_input for repetition in reps]
    if factor != 1:
        checked.append(warm_up)
    for repetition in checked:
        problems.extend(repetition.problems)
    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked)

    # Rates are per reference second (README, "Reference seconds"): a
    # repetition's wall times the box's speed while it ran — its own
    # adjacent probes' where the work ran in this process, the median
    # of all the run's probes where it ran in workers those cannot see.
    run_speed = statistics.median(r.speed for reps in timed for r in reps)
    reference_walls = [
        [r.wall * (r.speed if inputs[0].in_process else run_speed) for r in reps]
        for reps in timed
    ]

    # Every end-to-end figure comes from here, whichever mode reports it.
    last = [reps[-1] for reps in timed]
    accesses = sum(r.blocks for r in last)
    observed = {
        "setup_s": setup_walls,
        "blocks_per_s": [[reps[0].blocks / wall for wall in walls]
                         for reps, walls in zip(timed, reference_walls)],
        "ops_per_s": [[reps[0].requests / wall for wall in walls]
                      for reps, walls in zip(timed, reference_walls)],
        "peak_rss_mb": [[peak_rss]],
        # Latencies are measured inside the serve clients: fanned-out work.
        "read_p50_us": [[r.latency_us["read"] * run_speed for r in reps] for reps in timed
                        if "read" in reps[0].latency_us],
        "write_p50_us": [[r.latency_us["write"] * run_speed for r in reps] for reps in timed
                         if "write" in reps[0].latency_us],
        # Whole-ensemble simulated statistics (exact per seed).
        "hit_ratio": [[sum(r.hit_ratio * r.blocks for r in last) / accesses]],
        "allocation_writes": [[sum(r.allocation_writes for r in last)]],
        "failed_share": [[failed / attempted]],
    }
    metrics: Dict[str, Dict[str, object]] = {
        # set-up's cost is the whole ensemble's: summed over the inputs
        metric.name: summarize(
            observed[metric.name], metric,
            combine=sum if metric.name == "setup_s" else statistics.median,
        )
        for metric in spec.end_to_end_metrics()
        if observed[metric.name]
    }
    if trace:
        # The traced run reports the per-layer list: the layer figures,
        # plus the end-to-end ones declared there (0 where a workload
        # has none, as for every layer it does not touch).
        declared = spec.per_layer_metrics()
        unknown = sorted(set(layer_metrics) - {m.name for m in declared})
        if unknown:
            raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
        end_to_end = {key: summary["value"] for key, summary in metrics.items()}
        metrics = {
            m.name: {
                "value": layer_metrics.get(m.name, end_to_end.get(m.name, 0)),
                "unit": m.unit,
            }
            for m in declared
        }

    digests = {
        "inputs": [reps[0].digest for reps in per_input],
        "warm_up": warm_up.digest,
    }
    result: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digests": digests,
        "digest": hashlib.sha256("".join(digests["inputs"]).encode()).hexdigest(),
        "repetitions": sum(len(reps) for reps in timed),
        "requests": sum(reps[-1].requests for reps in timed),
        "blocks": sum(reps[-1].blocks for reps in timed),
        "metrics": metrics,
        "raw": {
            "setup_walls": setup_raw,
            "walls": [[r.wall for r in reps] for reps in timed],
            "speeds": [[r.speed for r in reps] for reps in timed],
            "blocks": [reps[-1].blocks for reps in timed],
            "requests": [reps[-1].requests for reps in timed],
        },
        "machine": record,
        "calibration": calibration,
    }
    if spans is not None:
        result["spans"] = spans
    return result


def contract_line(result: Dict[str, object]) -> str:
    """The driver's one-line JSON: the declared metrics of this mode only."""
    metrics = result["metrics"]
    names = list(metrics) if result["trace"] else spec.driver_end_to_end()
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
            for name in names
        },
    })


if __name__ == "__main__":
    print(json.dumps(measure(**json.load(sys.stdin))))
