"""Command-line interface: ``python -m repro <command>``.

Gives downstream users the library's main workflows without writing
Python:

* ``simulate``  — run one allocation configuration over a synthetic
  ensemble trace (or an MSR-Cambridge CSV) and print the per-day
  capture/allocation-write report;
* ``skew``      — the Figure-2 popularity analysis of a trace;
* ``drives``    — the Figures-8/9 drive-occupancy and coverage analysis
  for one configuration;
* ``table2``    — print the paper's Table 2 for a given hit rate and
  read fraction.

All commands are deterministic for a given ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.report import render_table
from repro.analysis.skew import access_count_quantiles
from repro.analysis.tables import table2_rows
from repro.sim import (
    ExperimentContext,
    PolicyFailure,
    context_for_trace,
    run_policy,
)
from repro.sim.experiment import FIGURE5_POLICIES, run_policy_suite
from repro.ssd.device import INTEL_X25E
from repro.ssd.occupancy import coverage_table, occupancy_from_stats
from repro.traces import (
    ColumnarTrace,
    SyntheticTraceConfig,
    read_msr_csv,
)
from repro.traces.store import load_or_generate_columnar
from repro.util.atomic import atomic_write, write_json_atomic


def _positive_float(text: str) -> float:
    """argparse type: a strictly positive float (clean exit-2 otherwise)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"must be > 0, got {text}"
        )
    return value


def _positive_int(text: str) -> int:
    """argparse type: a strictly positive integer (clean exit-2 otherwise)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _nonnegative_float(text: str) -> float:
    """argparse type: a float >= 0 (clean exit-2 otherwise)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type: an integer >= 0 (clean exit-2 otherwise)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SieveStore (ISCA 2010) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace_options(p):
        p.add_argument(
            "--scale", type=float, default=2e-5,
            help="linear workload scale for the synthetic trace",
        )
        p.add_argument("--days", type=int, default=8)
        p.add_argument("--seed", type=int, default=20100619)
        p.add_argument(
            "--msr-csv", metavar="FILE", default=None,
            help="replay an MSR-Cambridge CSV instead of synthesizing",
        )
        p.add_argument(
            "--no-trace-cache", action="store_true",
            help="regenerate the synthetic trace instead of using the "
            "on-disk trace cache (see SIEVESTORE_TRACE_CACHE)",
        )

    sim = sub.add_parser("simulate", help="run cache configurations")
    add_trace_options(sim)
    sim.add_argument(
        "--policy", choices=sorted(FIGURE5_POLICIES),
        action="append", dest="policies", metavar="POLICY",
        help="configuration to simulate; repeat for several "
        "(default: sievestore-c)",
    )
    sim.add_argument(
        "--jobs", type=_nonnegative_int, default=1, metavar="N",
        help="run the policies across N worker processes sharing one "
        "serialized columnar trace (0 = all cores)",
    )
    sim.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the result (stats + policy name) as JSON; "
        "with several policies, FILE gains a per-policy suffix",
    )
    sim.add_argument(
        "--manifest", metavar="FILE", default=None,
        help="write the run manifest as JSON: per-policy engine used, "
        "wall seconds, retries, worker pid, and outcome",
    )
    sim.add_argument(
        "--task-timeout", type=_positive_float, default=None,
        metavar="SECONDS",
        help="per-policy task timeout for --jobs runs (one retry, then "
        "a structured failure record; default: wait forever)",
    )
    sim.add_argument(
        "--epoch-seconds", type=_positive_float, default=None,
        metavar="SECONDS",
        help="epoch length for the discrete policies (default: one day)",
    )
    sim.add_argument(
        "--fault-plan", metavar="FILE", default=None,
        help="inject device faults from a JSON fault plan "
        "(see repro.faults.FaultPlan)",
    )
    sim.add_argument(
        "--checkpoint", metavar="FILE", default=None,
        help="periodically write a crash-consistent checkpoint of the "
        "simulation state (single policy, --jobs 1 only)",
    )
    sim.add_argument(
        "--checkpoint-every", type=_positive_int, default=None,
        metavar="N",
        help="requests between checkpoints (default: 100000)",
    )
    sim.add_argument(
        "--resume", metavar="FILE", default=None,
        help="resume a checkpointed run to completion (the trace is "
        "regenerated from the checkpoint's stored trace arguments; "
        "other trace/policy options are ignored)",
    )
    sim.add_argument(
        "--resume-engine", choices=("fast", "object"), default=None,
        help="resume on a different engine than the one that wrote the "
        "checkpoint (fast<->object conversion; final statistics stay "
        "bit-identical)",
    )
    sim.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="collect run telemetry and write it at exit: Prometheus "
        "text exposition for .prom/.txt suffixes, JSON otherwise",
    )
    sim.add_argument(
        "--events-out", metavar="FILE", default=None,
        help="append run/checkpoint/health telemetry events to a "
        "JSON-lines log (resumed runs append to the same log)",
    )
    sim.add_argument(
        "--progress", type=_positive_float, default=None,
        metavar="SECONDS",
        help="print a progress heartbeat to stderr at least this many "
        "seconds apart (day, blocks/sec, ETA; parallel --jobs runs "
        "report one line per finished task instead)",
    )
    sim.add_argument(
        "--segments", action="store_true",
        help="stream the synthetic trace out-of-core from an on-disk "
        "segment store (bounded memory; single --policy, --jobs 1)",
    )
    sim.add_argument(
        "--segments-dir", metavar="DIR", default=None,
        help="segment-store directory (implies --segments; default: "
        "the trace cache keyed by the trace config)",
    )
    sim.add_argument(
        "--rows-per-segment", type=_positive_int, default=None,
        metavar="N",
        help="row cap per segment file when generating the store",
    )
    sim.add_argument(
        "--chunk-rows", type=_positive_int, default=None, metavar="N",
        help="row budget per streamed chunk for --segments runs "
        "(default: 262144; chunks never span segments)",
    )

    shard = sub.add_parser(
        "shard-replay",
        help="one policy, the trace partitioned across shard workers",
        description=(
            "Partition the ensemble by server id into closed shards, "
            "replay one policy over every shard in parallel worker "
            "processes that stream segment files from disk (the parent "
            "never pickles trace rows), and merge the per-shard "
            "statistics.  Each shard models an independent appliance "
            "provisioned at scale/shards; --shards 1 is bit-identical "
            "to an unsharded simulate run.  Exits 1 when any shard "
            "fails after its retry."
        ),
    )
    add_trace_options(shard)
    shard.add_argument(
        "--policy", choices=sorted(FIGURE5_POLICIES), default="sievestore-c",
        help="configuration replayed on every shard "
        "(default: sievestore-c)",
    )
    shard.add_argument(
        "--shards", type=_positive_int, default=4, metavar="N",
        help="number of server-disjoint trace partitions (default: 4)",
    )
    shard.add_argument(
        "--jobs", type=_nonnegative_int, default=0, metavar="N",
        help="worker processes (0 = all cores; 1 = serial in-process, "
        "byte-identical to the pooled run)",
    )
    shard.add_argument(
        "--chunk-rows", type=_positive_int, default=None, metavar="N",
        help="row budget per streamed chunk (default: 262144)",
    )
    shard.add_argument(
        "--segments-dir", metavar="DIR", default=None,
        help="segment-store directory (default: the trace cache keyed "
        "by the trace config)",
    )
    shard.add_argument(
        "--rows-per-segment", type=_positive_int, default=None,
        metavar="N",
        help="row cap per segment file when generating the store",
    )
    shard.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="write per-shard crash-consistent checkpoints to "
        "DIR/shard-N.ckpt; a retried or rerun shard resumes from its "
        "checkpoint instead of starting over",
    )
    shard.add_argument(
        "--checkpoint-every", type=_positive_int, default=None,
        metavar="N",
        help="requests between checkpoints (default: 100000; a "
        "checkpoint also lands after every streamed chunk)",
    )
    shard.add_argument(
        "--task-timeout", type=_positive_float, default=None,
        metavar="SECONDS",
        help="per-shard timeout (one retry, then a structured failure "
        "record; default: wait forever)",
    )
    shard.add_argument(
        "--manifest", metavar="FILE", default=None,
        help="write the sharded-replay manifest as JSON: per-shard "
        "engine, wall seconds, retries, worker pid, and outcome",
    )
    shard.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the merged statistics as JSON",
    )
    shard.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="collect run telemetry and write it at exit: Prometheus "
        "text exposition for .prom/.txt suffixes, JSON otherwise",
    )
    shard.add_argument(
        "--progress", action="store_true",
        help="print one progress line per finished shard to stderr",
    )

    skew = sub.add_parser("skew", help="Figure-2 popularity analysis")
    add_trace_options(skew)

    summarize = sub.add_parser(
        "summarize", help="traffic inventory of a trace (Table-1 style)"
    )
    add_trace_options(summarize)

    validate = sub.add_parser(
        "validate",
        help="check a trace against the paper's O1/O2 statistics",
    )
    add_trace_options(validate)

    drives = sub.add_parser("drives", help="drive occupancy / coverage")
    add_trace_options(drives)
    drives.add_argument(
        "--policy", choices=sorted(FIGURE5_POLICIES), default="sievestore-c"
    )
    drives.add_argument(
        "--window-minutes", type=int, default=30,
        help="occupancy aggregation window (widen for small scales)",
    )

    serve = sub.add_parser(
        "serve-bench",
        help="live disk-backed serving bench (repro.serve)",
        description=(
            "Replay a trace through N concurrent client processes "
            "against one shared sqlite+file byte store, admission gated "
            "by the continuous sieve, and report per-operation "
            "median/p90/p99/max latency plus allocation-write savings "
            "against an unsieved baseline pass.  Exits 1 when the "
            "baseline pass runs and the sieve fails to keep allocation "
            "writes strictly below it."
        ),
    )
    add_trace_options(serve)
    serve.add_argument(
        "--clients", type=_positive_int, default=4, metavar="N",
        help="concurrent client processes replaying address-hashed "
        "trace shards (default: 4)",
    )
    from repro.core.admission import GATE_KINDS

    serve.add_argument(
        "--gate", choices=sorted(GATE_KINDS), default="sieve",
        help="admission gate for the measured pass (default: sieve)",
    )
    serve.add_argument(
        "--miss-latency", type=_nonnegative_float, default=0.0005,
        metavar="SECONDS",
        help="simulated ensemble access penalty per backend operation "
        "(default: 0.5ms)",
    )
    serve.add_argument(
        "--payload-bytes", type=_positive_int, default=4096,
        metavar="BYTES", help="value size served per address",
    )
    serve.add_argument(
        "--store-shards", type=_positive_int, default=8, metavar="N",
        help="sqlite shard fanout of the byte store",
    )
    serve.add_argument(
        "--t1", type=_nonnegative_int, default=None,
        help="sieve IMCT promotion threshold (default: the paper's 9)",
    )
    serve.add_argument(
        "--t2", type=_nonnegative_int, default=None,
        help="sieve MCT admission threshold (default: the paper's 4)",
    )
    serve.add_argument(
        "--store-dir", metavar="DIR", default=None,
        help="working directory for stores and trace shards (kept "
        "afterwards; default: a temporary directory, removed at exit)",
    )
    serve.add_argument(
        "--no-baseline", action="store_true",
        help="skip the unsieved comparison pass (no savings report)",
    )
    serve.add_argument(
        "--serial", action="store_true",
        help="run the clients in-process instead of a process pool",
    )
    serve.add_argument(
        "--fault-plan", metavar="FILE", default=None,
        help="inject device faults from a JSON fault plan; health is "
        "evaluated at trace issue times, so transitions land "
        "deterministically mid-replay",
    )
    serve.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the report (latency, stats, savings) as JSON",
    )
    serve.add_argument(
        "--manifest", metavar="FILE", default=None,
        help="write per-client execution records as JSON",
    )
    serve.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="collect serve telemetry across all clients and write it "
        "at exit (Prometheus text for .prom/.txt, JSON otherwise)",
    )

    table2 = sub.add_parser("table2", help="print the paper's Table 2")
    table2.add_argument("--hit-rate", type=float, default=0.35)
    table2.add_argument("--read-fraction", type=float, default=0.75)

    check = sub.add_parser(
        "check",
        help="run the sievelint static invariant checker",
        description=(
            "AST-based invariant checker (sievelint): determinism, "
            "worker-safety, and zero-overhead contracts."
        ),
    )
    from repro.staticcheck.cli import configure_parser as _configure_check

    _configure_check(check)
    return parser


def _load_trace(args):
    """Returns ``(columns, days)``: the trace as a ``ColumnarTrace``.

    Synthetic traces go through the on-disk trace cache (a segment
    store keyed by a config content hash) unless ``--no-trace-cache``
    or the ``SIEVESTORE_TRACE_CACHE`` environment variable disables it.
    """
    if args.msr_csv:
        return ColumnarTrace.from_trace(read_msr_csv(args.msr_csv)), args.days
    config = SyntheticTraceConfig(
        scale=args.scale, days=args.days, seed=args.seed
    )
    if args.no_trace_cache:
        from repro.traces.synthetic import EnsembleTraceGenerator

        columns = EnsembleTraceGenerator(config).generate_columnar()
    else:
        columns = load_or_generate_columnar(config)
    return columns, config.days


def _print_day_table(stats, title: str) -> None:
    """Per-day capture and allocation writes, with an ``all`` row."""
    rows = [
        [day, d.accesses, round(d.hit_ratio, 3), d.allocation_writes]
        for day, d in enumerate(stats.per_day)
    ]
    total = stats.total
    rows.append(
        ["all", total.accesses, round(total.hit_ratio, 3),
         total.allocation_writes]
    )
    print(render_table(
        ["day", "block accesses", "capture", "allocation-writes"],
        rows,
        title=title,
    ))


def _print_simulation_report(name: str, result, requests: int) -> None:
    _print_day_table(result.stats, f"{name} over {requests:,} requests")
    total = result.stats.total
    blocks_per_sec = (
        total.accesses / result.wall_seconds if result.wall_seconds > 0 else 0.0
    )
    print(
        f"simulated in {result.wall_seconds:.2f}s "
        f"({blocks_per_sec:,.0f} blocks/sec)"
    )
    stats = result.stats
    if (stats.degraded_seconds or stats.bypass_seconds
            or total.read_errors or total.write_errors):
        print(
            f"device health: degraded {stats.degraded_seconds:,.0f}s, "
            f"bypass {stats.bypass_seconds:,.0f}s, "
            f"read errors {total.read_errors:,}, "
            f"write errors {total.write_errors:,}, "
            f"bypassed accesses {total.bypass_accesses:,}"
        )
    print()


def _print_outcome_table(results) -> None:
    """Per-policy outcome summary from the run manifest."""
    rows = [
        [
            task["policy"],
            task["outcome"],
            task["engine"] or "-",
            round(task["wall_seconds"], 2),
            task["retries"],
            task["executor"],
        ]
        for task in results.manifest["tasks"]
    ]
    print(render_table(
        ["policy", "outcome", "engine", "wall s", "retries", "executor"],
        rows,
        title="Suite outcomes"
        + (" (worker pool broke; serial fallback used)"
           if results.manifest["pool_broken"] else ""),
    ))
    print()


def _artifact_path_problem(flag: str, path: str) -> Optional[str]:
    """Why ``path`` cannot receive an output file, or ``None`` if it can."""
    import os

    if os.path.isdir(path):
        return f"{flag} path {path} is a directory, not a file"
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        return f"{flag} directory {parent} does not exist"
    if not os.access(parent, os.W_OK):
        return f"{flag} directory {parent} is not writable"
    return None


def _validate_simulate_flags(args) -> Optional[int]:
    """Reject invalid flag combinations up front (exit 2), instead of
    silently ignoring them or tracebacking after a long run."""
    if args.checkpoint_every is not None and not args.checkpoint:
        print(
            "error: --checkpoint-every requires --checkpoint (a resumed "
            "run keeps the cadence stored in its checkpoint)",
            file=sys.stderr,
        )
        return 2
    several = args.policies and len(dict.fromkeys(args.policies)) > 1
    segmented = args.segments or args.segments_dir is not None
    if not segmented:
        for flag, value in (
            ("--chunk-rows", args.chunk_rows),
            ("--rows-per-segment", args.rows_per_segment),
        ):
            if value is not None:
                print(
                    f"error: {flag} requires --segments (or "
                    "--segments-dir)",
                    file=sys.stderr,
                )
                return 2
    elif not args.resume:
        if args.msr_csv:
            print(
                "error: --segments streams a synthetic trace from a "
                "segment store; it cannot be combined with --msr-csv",
                file=sys.stderr,
            )
            return 2
        if args.jobs != 1:
            print(
                "error: --segments requires --jobs 1 (use the "
                "shard-replay command for parallel out-of-core replay)",
                file=sys.stderr,
            )
            return 2
        if several:
            print(
                "error: --segments runs a single --policy per "
                "invocation",
                file=sys.stderr,
            )
            return 2
    if args.checkpoint and not args.resume and (several or args.jobs != 1):
        print(
            "error: --checkpoint requires a single --policy and --jobs 1",
            file=sys.stderr,
        )
        return 2
    for flag, path in (
        ("--metrics-out", args.metrics_out),
        ("--events-out", args.events_out),
    ):
        if not path:
            continue
        problem = _artifact_path_problem(flag, path)
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 2
    return None


#: Requests between progress-hook invocations; the heartbeat throttles
#: itself by wall time, so this only bounds check frequency.
_PROGRESS_CHECK_EVERY = 1000


def _heartbeat(
    interval: Optional[float],
    trace,
    days: int,
    epoch_seconds: Optional[float],
    chunk_rows: Optional[int] = None,
) -> dict:
    """A run's ``progress_every`` / ``progress_hook`` arguments: day,
    blocks/sec and ETA to stderr at least ``interval`` seconds apart
    (none when ``interval`` is None).  ``trace`` is the replayed
    columns or chunk source, whose blocks are counted up front."""
    if interval is None:
        return {}
    import time as _time_mod

    from repro.traces.segments import ChunkSource

    total_requests = len(trace)
    if isinstance(trace, ChunkSource):
        total_blocks = sum(
            columns.total_blocks()
            for _base, columns in trace.iter_chunks(chunk_rows)
        )
    else:
        total_blocks = trace.total_blocks()
    epoch_seconds = epoch_seconds or 86400.0
    start = _time_mod.perf_counter()
    state = {"last": start}

    def hook(requests_done: int, current_epoch: int) -> None:
        now = _time_mod.perf_counter()
        if now - state["last"] < interval:
            return
        state["last"] = now
        elapsed = now - start
        fraction = requests_done / total_requests if total_requests else 1.0
        blocks_done = int(total_blocks * fraction)
        rate = blocks_done / elapsed if elapsed > 0 else 0.0
        eta = (
            (1.0 - fraction) * elapsed / fraction if fraction > 0 else 0.0
        )
        day = int(max(current_epoch, 0) * epoch_seconds // 86400)
        print(
            f"[progress] day {min(day, days - 1) + 1}/{days}  "
            f"{requests_done:,}/{total_requests:,} requests  "
            f"{rate:,.0f} blocks/sec  eta {eta:,.0f}s",
            file=sys.stderr,
            flush=True,
        )

    return {"progress_every": _PROGRESS_CHECK_EVERY, "progress_hook": hook}


def _make_task_progress(total_tasks: int):
    """Per-task progress reporter for suite runs."""
    done = {"count": 0}

    def on_task_done(record) -> None:
        done["count"] += 1
        print(
            f"[progress] {record.policy}: {record.outcome} "
            f"({done['count']}/{total_tasks} tasks, "
            f"{record.wall_seconds:.1f}s, "
            f"engine {record.engine or '-'})",
            file=sys.stderr,
            flush=True,
        )

    return on_task_done


def _write_metrics(path: Optional[str]) -> None:
    """Export the active registry to ``path`` (format by suffix)."""
    if not path:
        return
    from repro.obs import runtime as obs_runtime
    from repro.obs.export import to_json, to_prometheus

    registry = obs_runtime.get_registry()
    if registry is None:  # pragma: no cover - guarded by the caller
        return
    snapshot = registry.snapshot()
    if path.endswith((".prom", ".txt")):
        text = to_prometheus(snapshot)
    else:
        text = to_json(snapshot)
    with atomic_write(path) as handle:
        handle.write(text.encode("utf-8"))
    print(f"metrics written to {path}")


def _load_fault_plan(args):
    """Returns ``(plan_or_None, exit_code_or_None)``."""
    if not args.fault_plan:
        return None, None
    from repro.faults import FaultPlan

    try:
        return FaultPlan.load_json(args.fault_plan), None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(
            f"error: cannot load fault plan {args.fault_plan}: {exc}",
            file=sys.stderr,
        )
        return None, 2


def _save_result_json(result, path: str) -> None:
    from repro.sim.serialize import save_result

    save_result(result, path)
    print(f"result written to {path}")


def _segment_store_for(args):
    """Open/generate the config's segment store; ``(store, exit_code)``."""
    from repro.traces.segments import SegmentError
    from repro.traces.store import load_or_generate_segments

    if args.no_trace_cache and args.segments_dir is None:
        print(
            "error: segment stores live on disk; pass --segments-dir "
            "when the trace cache is disabled (--no-trace-cache)",
            file=sys.stderr,
        )
        return None, 2
    config = SyntheticTraceConfig(
        scale=args.scale, days=args.days, seed=args.seed
    )
    try:
        store = load_or_generate_segments(
            config,
            directory=args.segments_dir,
            rows_per_segment=args.rows_per_segment,
        )
    except (ValueError, OSError, SegmentError) as exc:
        print(f"error: cannot open segment store: {exc}", file=sys.stderr)
        return None, 2
    return store, None


def _cmd_resume(args) -> int:
    """``simulate --resume``: finish a checkpointed run."""
    import os

    from repro.sim.serialize import CheckpointError, load_checkpoint

    if not os.path.exists(args.resume):
        print(
            f"error: --resume path {args.resume} does not exist",
            file=sys.stderr,
        )
        return 2
    from repro.sim import resume_simulation

    try:
        payload = load_checkpoint(args.resume)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    context = payload.get("context") or {}
    trace_args = context.get("trace")
    if trace_args is None:
        print(
            "error: checkpoint carries no trace context; resume via "
            "repro.sim.resume_simulation with the original trace",
            file=sys.stderr,
        )
        return 2
    chunk_rows = trace_args.pop("chunk_rows", None)
    streamed = trace_args.pop("segments", False)
    if streamed:
        # The checkpointed run streamed a segment store; resume does too.
        resume_trace, code = _segment_store_for(
            argparse.Namespace(**trace_args)
        )
        if code is not None:
            return code
    else:
        resume_trace, _days = _load_trace(argparse.Namespace(**trace_args))
    config = payload["config"]
    try:
        result = resume_simulation(
            args.resume,
            resume_trace,
            checkpoint_path=args.checkpoint,
            engine=args.resume_engine,
            chunk_rows=chunk_rows,
            **_heartbeat(
                args.progress, resume_trace, config["days"],
                config["epoch_seconds"], chunk_rows,
            ),
        )
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_simulation_report(result.policy_name, result, len(resume_trace))
    if args.json:
        _save_result_json(result, args.json)
    return 0


def _cmd_simulate(args) -> int:
    """Validate flags, switch observability, dispatch the simulate run."""
    code = _validate_simulate_flags(args)
    if code is not None:
        return code
    if not (args.metrics_out or args.events_out):
        return _run_simulate(args)
    from repro.obs import runtime as obs_runtime

    obs_runtime.enable(events_path=args.events_out)
    try:
        code = _run_simulate(args)
        _write_metrics(args.metrics_out)
        return code
    finally:
        obs_runtime.disable()


def _simulate_single(args, name: str, fault_plan, streamed: bool) -> int:
    """One checkpointed or streamed run: a single policy, ``--jobs 1``.

    A failed run is reported as the suite reports one: a ``FAILED``
    line on stderr and exit 1.
    """
    trace_args = {
        "msr_csv": args.msr_csv,
        "scale": args.scale,
        "days": args.days,
        "seed": args.seed,
        "no_trace_cache": args.no_trace_cache,
    }
    if streamed:
        trace, code = _segment_store_for(args)
        if code is not None:
            return code
        trace_args.update(
            segments=True,
            segments_dir=args.segments_dir,
            rows_per_segment=args.rows_per_segment,
            chunk_rows=args.chunk_rows,
        )
    else:
        trace, _days = _load_trace(args)
    ctx = ExperimentContext(trace=trace, days=args.days, scale=args.scale)
    try:
        result = run_policy(
            name, ctx, track_minutes=False,
            fault_plan=fault_plan, epoch_seconds=args.epoch_seconds,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            checkpoint_context={
                "trace": trace_args,
                "policy": name,
                "fault_plan": (
                    fault_plan.to_dict() if fault_plan is not None else None
                ),
            },
            chunk_rows=args.chunk_rows,
            **_heartbeat(
                args.progress, trace, args.days, args.epoch_seconds,
                args.chunk_rows,
            ),
        )
    except Exception as exc:
        failure = PolicyFailure(name, type(exc).__name__, str(exc), 0)
        print(f"FAILED {failure}", file=sys.stderr)
        return 1
    _print_simulation_report(name, result, len(trace))
    if args.json:
        _save_result_json(result, args.json)
    return 0


def _run_simulate(args) -> int:
    if args.resume:
        return _cmd_resume(args)
    fault_plan, code = _load_fault_plan(args)
    if code is not None:
        return code
    names = list(dict.fromkeys(args.policies or ["sievestore-c"]))
    streamed = args.segments or args.segments_dir is not None
    if streamed or args.checkpoint:
        return _simulate_single(args, names[0], fault_plan, streamed)
    columns, days = _load_trace(args)
    ctx = context_for_trace(columns, days=days, scale=args.scale)
    jobs = None if args.jobs == 0 else args.jobs
    on_task_done = (
        _make_task_progress(len(names)) if args.progress is not None else None
    )
    results = run_policy_suite(
        ctx, names, track_minutes=False, jobs=jobs,
        task_timeout=args.task_timeout,
        fault_plan=fault_plan, epoch_seconds=args.epoch_seconds,
        on_task_done=on_task_done,
        **_heartbeat(
            args.progress if jobs == 1 else None, columns, days,
            args.epoch_seconds,
        ),
    )
    for name in names:
        if name in results:
            _print_simulation_report(name, results[name], len(columns))
    if jobs != 1 or results.failures:
        _print_outcome_table(results)
    for failure in results.failures.values():
        print(f"FAILED {failure}", file=sys.stderr)
    if args.manifest:
        try:
            results.save_manifest(args.manifest)
        except OSError as exc:
            # The reports above already printed; don't trade them for
            # a traceback over an unwritable path.
            print(f"error: cannot write manifest {args.manifest}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"run manifest written to {args.manifest}")
    if args.json:
        from repro.sim.serialize import save_result

        completed = [name for name in names if name in results]
        if len(names) == 1 and completed:
            save_result(results[names[0]], args.json)
            print(f"result written to {args.json}")
        elif len(names) > 1:
            import os

            root, ext = os.path.splitext(args.json)
            for name in completed:
                path = f"{root}-{name}{ext or '.json'}"
                save_result(results[name], path)
                print(f"result written to {path}")
    return 1 if results.failures else 0


def _validate_shard_replay_flags(args) -> Optional[int]:
    """Reject invalid shard-replay flag combinations up front (exit 2)."""
    if args.msr_csv:
        print(
            "error: shard-replay streams a synthetic trace from a "
            "segment store; it cannot replay --msr-csv",
            file=sys.stderr,
        )
        return 2
    if args.checkpoint_every is not None and not args.checkpoint_dir:
        print(
            "error: --checkpoint-every requires --checkpoint-dir",
            file=sys.stderr,
        )
        return 2
    for flag, path in (
        ("--manifest", args.manifest),
        ("--json", args.json),
        ("--metrics-out", args.metrics_out),
    ):
        if not path:
            continue
        problem = _artifact_path_problem(flag, path)
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 2
    return None


def _cmd_shard_replay(args) -> int:
    """Validate flags, switch observability, dispatch the sharded replay."""
    code = _validate_shard_replay_flags(args)
    if code is not None:
        return code
    if not args.metrics_out:
        return _run_shard_replay_cmd(args)
    from repro.obs import runtime as obs_runtime

    obs_runtime.enable()
    try:
        code = _run_shard_replay_cmd(args)
        _write_metrics(args.metrics_out)
        return code
    finally:
        obs_runtime.disable()


def _run_shard_replay_cmd(args) -> int:
    from repro.sim.parallel import run_sharded_replay
    from repro.sim.serialize import stats_to_dict

    store, code = _segment_store_for(args)
    if code is not None:
        return code
    if args.checkpoint_dir:
        import os

        os.makedirs(args.checkpoint_dir, exist_ok=True)
    on_task_done = (
        _make_task_progress(args.shards) if args.progress else None
    )
    run = run_sharded_replay(
        store,
        args.policy,
        days=args.days,
        scale=args.scale,
        shards=args.shards,
        jobs=None if args.jobs == 0 else args.jobs,
        track_minutes=False,
        chunk_rows=args.chunk_rows,
        task_timeout=args.task_timeout,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        on_task_done=on_task_done,
    )
    if run.stats is not None:
        _print_day_table(
            run.stats,
            f"{args.policy} merged over {args.shards} shards "
            f"({len(store):,} requests)",
        )
        print()
    _print_outcome_table(run)
    for failure in run.failures.values():
        print(f"FAILED {failure}", file=sys.stderr)
    if args.manifest:
        try:
            run.save_manifest(args.manifest)
        except OSError as exc:
            print(f"error: cannot write manifest {args.manifest}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"run manifest written to {args.manifest}")
    if args.json and run.stats is not None:
        payload = {
            "policy": args.policy,
            "shards": args.shards,
            "stats": stats_to_dict(run.stats),
        }
        write_json_atomic(args.json, payload)
        print(f"merged stats written to {args.json}")
    return 0 if run.ok else 1


def _validate_serve_bench_flags(args) -> Optional[int]:
    """Reject invalid serve-bench flag combinations up front (exit 2)."""
    if args.gate == "unsieved" and not args.no_baseline:
        print(
            "error: --gate unsieved duplicates the baseline pass; "
            "add --no-baseline",
            file=sys.stderr,
        )
        return 2
    for flag, path in (
        ("--json", args.json),
        ("--manifest", args.manifest),
        ("--metrics-out", args.metrics_out),
    ):
        if not path:
            continue
        problem = _artifact_path_problem(flag, path)
        if problem is not None:
            print(f"error: {problem}", file=sys.stderr)
            return 2
    return None


def _format_ms(seconds: float) -> str:
    return f"{seconds * 1000:.3f}ms"


def _print_latency_table(report) -> None:
    print(
        f"  {'op':<6} {'count':>8} {'median':>11} {'p90':>11} "
        f"{'p99':>11} {'max':>11}"
    )
    for op in sorted(report.latency):
        summary = report.latency[op]
        if summary is None:
            print(f"  {op:<6} {0:>8} {'-':>11} {'-':>11} {'-':>11} {'-':>11}")
            continue
        print(
            f"  {op:<6} {summary.count:>8} {_format_ms(summary.median):>11} "
            f"{_format_ms(summary.p90):>11} {_format_ms(summary.p99):>11} "
            f"{_format_ms(summary.max):>11}"
        )


def _print_serve_stats(stats) -> None:
    print(
        f"  hits={stats.hits} misses={stats.misses} "
        f"bypassed={stats.bypassed} read_faults={stats.read_faults} "
        f"write_faults={stats.write_faults}"
    )
    if stats.health_transitions:
        transitions = ", ".join(
            f"{key} x{count}"
            for key, count in sorted(stats.health_transitions.items())
        )
        print(f"  health transitions: {transitions}")


def _cmd_serve_bench(args) -> int:
    """Validate flags, switch observability, dispatch the serve bench."""
    code = _validate_serve_bench_flags(args)
    if code is not None:
        return code
    if not args.metrics_out:
        return _run_serve_bench_cmd(args, collect_metrics=False)
    from repro.obs import runtime as obs_runtime

    obs_runtime.enable()
    try:
        code = _run_serve_bench_cmd(args, collect_metrics=True)
        _write_metrics(args.metrics_out)
        return code
    finally:
        obs_runtime.disable()


def _run_serve_bench_cmd(args, collect_metrics: bool) -> int:
    import contextlib
    import tempfile
    from pathlib import Path

    from repro.serve import BenchOptions, run_serve_bench, run_sieve_comparison

    fault_plan, code = _load_fault_plan(args)
    if code is not None:
        return code
    columns, _days = _load_trace(args)
    options = BenchOptions(
        gate_kind=args.gate,
        miss_latency=args.miss_latency,
        payload_bytes=args.payload_bytes,
        store_shards=args.store_shards,
        seed=args.seed,
        t1=args.t1,
        t2=args.t2,
        fault_plan=fault_plan.to_dict() if fault_plan is not None else None,
        collect_metrics=collect_metrics,
    )
    with contextlib.ExitStack() as stack:
        if args.store_dir:
            base = Path(args.store_dir)
            base.mkdir(parents=True, exist_ok=True)
        else:
            base = Path(
                stack.enter_context(
                    tempfile.TemporaryDirectory(prefix="serve-bench-")
                )
            )
        if args.no_baseline:
            comparison = None
            report = run_serve_bench(
                columns, base / "store", base / "shards",
                clients=args.clients, options=options,
                parallel=not args.serial,
            )
        else:
            comparison = run_sieve_comparison(
                columns, base, clients=args.clients, options=options,
                parallel=not args.serial,
            )
            report = comparison["sieved"]

    print(
        f"serve-bench: gate={report.gate_kind} clients={report.clients} "
        f"requests={report.requests} wall={report.wall_seconds:.2f}s"
    )
    _print_latency_table(report)
    _print_serve_stats(report.stats)
    code = 0
    if comparison is None:
        print(f"  allocation writes: {report.allocation_writes}")
    else:
        baseline = comparison["unsieved"]
        saved = comparison["allocation_writes_saved"]
        ratio = comparison["allocation_write_ratio"]
        percent = f" ({(1 - ratio) * 100:.1f}% fewer)" if ratio is not None else ""
        print(
            f"  allocation writes: sieved={report.allocation_writes} "
            f"baseline={baseline.allocation_writes} saved={saved}{percent}"
        )
        if saved <= 0:
            print(
                "error: sieved pass did not keep allocation writes below "
                "the unsieved baseline",
                file=sys.stderr,
            )
            code = 1

    if args.json:
        payload = report.to_dict()
        if comparison is not None:
            payload = {
                "sieved": report.to_dict(),
                "baseline": comparison["unsieved"].to_dict(),
                "allocation_writes_saved": comparison["allocation_writes_saved"],
                "allocation_write_ratio": comparison["allocation_write_ratio"],
            }
        write_json_atomic(args.json, payload)
        print(f"report written to {args.json}")
    if args.manifest:
        manifest = report.manifest()
        if comparison is not None:
            manifest = {
                "version": manifest["version"],
                "kind": "serve-bench-comparison",
                "sieved": report.manifest(),
                "baseline": comparison["unsieved"].manifest(),
            }
        write_json_atomic(args.manifest, manifest)
        print(f"run manifest written to {args.manifest}")
    return code


def _cmd_summarize(args) -> int:
    from repro.analysis.summary import summarize_trace, summary_rows

    columns, _days = _load_trace(args)
    summary = summarize_trace(columns.to_trace())
    print(render_table(
        ["server", "requests", "blocks", "traffic share", "read fraction"],
        summary_rows(summary),
        title=f"{summary.requests:,} requests / "
        f"{summary.block_accesses:,} block accesses over "
        f"{summary.days} days",
    ))
    print(
        f"\nread fraction: {summary.read_fraction:.2f}   "
        f"4K-aligned: {summary.aligned_fraction:.2%}   "
        f"mean request: {summary.request_size_blocks_mean:.1f} blocks"
    )
    print("request sizes:", summary.request_size_histogram)
    return 0


def _cmd_validate(args) -> int:
    from repro.traces.validation import validate_trace

    columns, days = _load_trace(args)
    report = validate_trace(columns.to_trace(), days=days)
    print(render_table(
        ["check", "measured", "accepted band", "status"],
        report.rows(),
        title="Fidelity against the paper's published trace statistics",
    ))
    if report.passed:
        print("\nall checks passed — the paper's conclusions should transfer")
        return 0
    print(f"\n{len(report.failures())} check(s) outside the published bands")
    return 1


def _cmd_skew(args) -> int:
    columns, days = _load_trace(args)
    rows = []
    for day, table in enumerate(columns.daily_block_counts(days)):
        q = access_count_quantiles(table)
        rows.append([
            day, q["blocks"], q["accesses"], round(q["top1_share"], 3),
            round(q["fraction_le_10"], 3), round(q["fraction_single"], 3),
        ])
    print(render_table(
        ["day", "unique blocks", "accesses", "top-1% share",
         "<=10 accesses", "single-access"],
        rows,
        title="Popularity skew (Figure 2 statistics)",
    ))
    return 0


def _cmd_drives(args) -> int:
    columns, days = _load_trace(args)
    ctx = context_for_trace(columns, days=days, scale=args.scale)
    result = run_policy(args.policy, ctx, track_minutes=True)
    device = INTEL_X25E.scaled(args.scale)
    series = occupancy_from_stats(
        result.stats, device, days * 1440, window_minutes=args.window_minutes
    )
    coverage = coverage_table(series, coverages=(1.0, 0.999, 0.9))
    print(render_table(
        ["metric", "value"],
        [
            ["peak drive occupancy", round(series.max_occupancy(), 3)],
            ["windows within 1 drive", f"{series.fraction_within(1):.2%}"],
            ["drives @100% coverage", coverage[1.0]],
            ["drives @99.9% coverage", coverage[0.999]],
            ["drives @90% coverage", coverage[0.9]],
        ],
        title=f"Drive needs for {args.policy} "
        f"({device.name}, {args.window_minutes}-min windows)",
    ))
    return 0


def _cmd_table2(args) -> int:
    rows = table2_rows(hit_rate=args.hit_rate, read_fraction=args.read_fraction)
    print(render_table(
        ["policy", "hits", "misses", "alloc-writes", "SSD writes", "SSD ops"],
        [
            [r.policy, r.hits, r.misses, r.allocation_writes,
             r.ssd_writes, r.ssd_operations]
            for r in rows
        ],
        title=f"Table 2 (hit rate {args.hit_rate:.0%}, "
        f"{args.read_fraction:.0%} reads)",
    ))
    return 0


def _cmd_check(args) -> int:
    from repro.staticcheck.cli import run as run_staticcheck

    return run_staticcheck(args)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "shard-replay": _cmd_shard_replay,
    "skew": _cmd_skew,
    "summarize": _cmd_summarize,
    "validate": _cmd_validate,
    "drives": _cmd_drives,
    "serve-bench": _cmd_serve_bench,
    "table2": _cmd_table2,
    "check": _cmd_check,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
