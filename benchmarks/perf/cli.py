"""Command line of the benchmark.

Three modes:

* ``--workload NAME --seed N --seconds S --trace 0|1`` — the driver's
  contract: measure one workload in this process and print, as the
  last line of stdout, one JSON object with ``correct``, ``attempted``,
  ``failed`` and the declared metrics of that mode.
* no ``--workload`` — the suite: every workload in turn, each in a
  fresh subprocess (so peak RSS is per workload and never more than
  the workload's own processes are busy), every end-to-end metric
  printed with unit, direction and ``compare`` bound, one result JSON
  written.  ``--traced`` adds the per-layer run, ``--sets`` repeats the
  whole suite, ``--smoke`` cuts every run to one repetition for the
  smoke test.
* ``compare A.json B.json`` — see :mod:`benchmarks.perf.compare`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from benchmarks.perf import runner, spec
from benchmarks.perf.compare import compare

RESULT_SCHEMA = 2
RESULTS_DIR = Path(__file__).with_name("results")
DEFAULT_OUTPUT = RESULTS_DIR / "BENCH_local.json"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=spec.WORKLOADS,
                        help="measure this one workload in-process (driver mode)")
    parser.add_argument("--seed", type=int, default=None,
                        help="trace seed (default: SyntheticTraceConfig.seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 1 = the per-layer traced run")
    parser.add_argument("--traced", action="store_true",
                        help="suite: add one per-layer traced run per workload")
    parser.add_argument("--sets", type=int, default=1,
                        help="suite: how many full sets of runs to make")
    parser.add_argument("--output", type=Path, default=None,
                        help=f"suite: result file (default {DEFAULT_OUTPUT.name} under results/; "
                             "smoke runs write only when this is given)")
    parser.add_argument("--pin", action="store_true",
                        help="suite: record this seed's statistics digests in digests.json")
    parser.add_argument("--smoke", action="store_true",
                        help="suite: one input, one set-up, one repetition; "
                             "results are non-comparable")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        return _compare_main(argv[1:])
    args = _parser().parse_args(argv)
    if args.seed is None:
        args.seed = spec.default_seed()
    if args.seconds is None:
        args.seconds = float(spec.load_benchmark()["run_seconds"])
    if args.workload:
        return _run_one(args)
    return _run_suite(args)


def _compare_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf compare")
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    return compare(args.a, args.b)


# -- driver mode ---------------------------------------------------------------

def _run_one(args) -> int:
    result = runner.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in result["problems"]:
        print(f"FAILED {args.workload}: {problem}", file=sys.stderr)
    print(runner.contract_line(result))
    return 0 if result["correct"] else 1


# -- suite mode ----------------------------------------------------------------

def _spawn(workload: str, args, trace: bool) -> dict:
    """Measure ``workload`` in a fresh subprocess; return its result record."""
    request = {
        "name": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": trace, "smoke": args.smoke, "pin": args.pin,
    }
    finished = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf.runner"], input=json.dumps(request),
        stdout=subprocess.PIPE, text=True, cwd=spec.REPO_ROOT,
    )
    if finished.returncode != 0:
        raise SystemExit(f"{workload}: run exited {finished.returncode} without a result")
    return json.loads(finished.stdout.splitlines()[-1])


def _print_workload(result: dict, metrics: List[spec.Metric]) -> None:
    name = result["workload"]
    status = "ok" if result["correct"] else "FAILED"
    print(f"\n{name}  ({result['requests']} requests / {result['blocks']} blocks, "
          f"R={result['repetitions']}, outputs {status}, digest {result['digest'][:12]})")
    for metric in metrics:
        summary = result["metrics"].get(metric.name)
        if summary is None or not metric.applies_to(name):
            continue
        bound = "exact" if metric.bound == 0 else f"bound {metric.bound:g}"
        spread = ""
        if summary["reps"] > 1:
            spread = (f"[all repetitions: min {summary['min']:.6g}  q1 {summary['q1']:.6g}  "
                      f"median {summary['median']:.6g}  q3 {summary['q3']:.6g}  "
                      f"R={summary['reps']}]")
        print(f"  {metric.name:<18} {summary['value']:>16.6g} {metric.unit:<9}"
              f"{metric.better:<7} {bound:<11} {spread}".rstrip())


def _print_layers(result: dict) -> None:
    print(f"\n{result['workload']}  per-layer (traced run, {len(result['spans'])} spans)")
    for metric in spec.per_layer_metrics():
        value = result["metrics"][metric.name]["value"]
        if value:
            print(f"  {metric.name:<42} {value:>16.6g} {metric.unit}")


def _run_suite(args) -> int:
    output = args.output or (None if args.smoke else DEFAULT_OUTPUT)
    if args.smoke and output is not None and RESULTS_DIR in output.resolve().parents:
        raise SystemExit("smoke results are non-comparable and may not go under results/")

    metrics = spec.end_to_end_metrics()
    sets = []
    all_correct = True
    for index in range(args.sets):
        print(f"== set {index}: seed {args.seed}, {args.seconds:g} s per run"
              f"{', SMOKE (non-comparable)' if args.smoke else ''} ==")
        records: Dict[str, dict] = {}
        for workload in spec.WORKLOADS:
            result = _spawn(workload, args, False)
            _print_workload(result, metrics)
            all_correct &= result["correct"]
            records[workload] = result
        sets.append({"set": index, "workloads": records})
    traced: Dict[str, dict] = {}
    if args.traced:
        print("\n== traced run ==")
        for workload in spec.WORKLOADS:
            result = _spawn(workload, args, True)
            _print_layers(result)
            all_correct &= result["correct"]
            traced[workload] = result

    if args.pin:
        if args.smoke or not all_correct:
            raise SystemExit("--pin needs a correct, full-size run")
        digests = runner.load_digests()
        digests[str(args.seed)] = {
            workload: record["digests"] for workload, record in sets[0]["workloads"].items()
        }
        runner.DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(f"\npinned digests for seed {args.seed} in {runner.DIGESTS_PATH}")
    if output is not None:
        first = sets[0]["workloads"][spec.WORKLOADS[0]]
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(json.dumps({
            "schema": RESULT_SCHEMA,
            "benchmark": "benchmarks.perf",
            "comparable": not args.smoke,
            "seed": args.seed,
            "seconds": args.seconds,
            "machine": first["machine"],
            "calibration": first["calibration"],
            "sets": sets,
            "traced": traced,
        }) + "\n")
        print(f"\nwrote {output}")
    print("\nall outputs correct" if all_correct else "\nFAILED: some outputs were wrong")
    return 0 if all_correct else 1
