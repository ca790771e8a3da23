"""The six workloads: set-up, one timed repetition, output checks.

Each workload owns a private work directory, builds its inputs from a
``SyntheticTraceConfig`` (the program only ever sees generated inputs),
and runs one repetition through the same public entry points a user
calls.  Timed repetitions run with tracing and ``repro.obs`` off; the
per-layer traced run lives in :mod:`benchmarks.perf.layers`.

Replay workloads are batch jobs (work per host second at a stated
input size).  Serve workloads are a closed loop of
:data:`~benchmarks.perf.spec.SERVE_CLIENTS` client processes, each
issuing its next request when the previous one returns, with
``miss_latency=0.0`` so the program — not ``time.sleep`` — is measured.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict

from repro.faults.plan import READ, WRITE, ErrorWindow, FaultPlan, OutageWindow
from repro.serve.bench import BenchOptions, partition_by_address, run_serve_bench
from repro.serve.store import ShardedByteStore
from repro.sim.experiment import context_for_trace, run_policy
from repro.sim.parallel import run_sharded_replay
from repro.sim.serialize import stats_to_dict
from repro.traces.store import load_or_generate_segments
from repro.traces.synthetic import EnsembleTraceGenerator, SyntheticTraceConfig
from repro.util.intervals import SECONDS_PER_DAY
from repro.util.units import bytes_to_blocks

from benchmarks.perf import machine, spec


@dataclass
class Repetition:
    """What one timed repetition produced."""

    #: host wall seconds of the timed call.
    wall: float
    blocks: int
    requests: int
    #: sha256 of the canonical JSON of the run's statistics.
    digest: str
    hit_ratio: float
    allocation_writes: int
    #: operations tried / failed inside this repetition (shard tasks,
    #: served requests, output checks) — feeds ``failed_share``.
    attempted: int = 1
    failed: int = 0
    #: serve workloads: per-op latency medians in microseconds.
    latency_us: Dict[str, float] = field(default_factory=dict)
    #: human-readable reasons for each failure counted above.
    problems: list = field(default_factory=list)
    #: reference probe time over the mean of the speed probes on either
    #: side of the repetition (set by ``Workload.timed_repetition``).
    speed: float = 0.0


def digest_of(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def no_span(name: str):
    """Stand-in for ``Tracer.span`` on untraced runs."""
    return nullcontext()


def fresh_dir(directory: Path) -> Path:
    """(Re)create ``directory`` empty."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


class Workload:
    """Base: a named set of inputs plus the call that is timed."""

    name = ""
    #: Whether the timed call does its work in this process.  The speed
    #: probe runs here, so only then do the probes on either side of a
    #: repetition see the CPU the work saw: against them an in-process
    #: repetition's wall correlates 0.8-0.85, a fanned-out one's 0.15-0.3.
    in_process = False

    def __init__(self, config: SyntheticTraceConfig, work: Path):
        self.config = config
        self.work = work
        #: blocks the generated trace holds — every replay must account
        #: for exactly these (checked per repetition).
        self.expected_blocks = 0
        self.expected_requests = 0
        self._rep_index = 0

    def setup(self) -> None:
        """Build the inputs (repeatable; timed as ``setup_s``)."""
        raise NotImplementedError

    def repetition(self) -> Repetition:
        raise NotImplementedError

    def timed_repetition(self) -> Repetition:
        """One repetition with the box's speed probed on either side."""
        repetition, _, repetition.speed = machine.probed(self.repetition)
        return repetition

    def rep_dir(self) -> Path:
        self._rep_index += 1
        return fresh_dir(self.work / f"rep-{self._rep_index:03d}")

    def replay_repetition(self, wall: float, stats, problems=(),
                           tasks: int = 0) -> Repetition:
        """Shared bookkeeping of the four replay workloads.

        ``tasks`` counts the shard tasks behind the statistics; a task
        that did not finish ``ok`` leaves no merged statistics, so the
        caller has already raised and every counted task succeeded.
        """
        problems = list(problems)
        total = stats.total
        if total.accesses != self.expected_blocks:
            problems.append(
                f"replayed {total.accesses} blocks, trace holds {self.expected_blocks}"
            )
        return Repetition(
            wall=wall,
            blocks=total.accesses,
            requests=self.expected_requests,
            digest=digest_of(stats_to_dict(stats)),
            hit_ratio=total.hit_ratio,
            allocation_writes=total.allocation_writes,
            attempted=1 + tasks,
            failed=1 if problems else 0,
            problems=problems,
        )


class StreamReplay(Workload):
    """Streamed fast engine in-process: one shard, one job, no fan-out."""

    policy = ""
    in_process = True

    def setup(self) -> None:
        directory = self.work / "segments"
        shutil.rmtree(directory, ignore_errors=True)
        self.store = EnsembleTraceGenerator(self.config).generate_segments(directory)
        self.expected_requests = len(self.store)
        self.expected_blocks = sum(
            int(columns.block_count.sum()) for _, columns in self.store.iter_chunks()
        )

    def repetition(self) -> Repetition:
        cfg = self.config
        started = time.perf_counter()
        run = run_sharded_replay(
            self.store, self.policy, cfg.days, cfg.scale,
            shards=1, seed=cfg.seed, jobs=1, fast_path=True,
        )
        wall = time.perf_counter() - started
        if not run.ok:
            raise RuntimeError(f"{self.name}: replay failed: {run.failures}")
        return self.replay_repetition(wall, run.stats)


class SieveStream(StreamReplay):
    name = "sieve-stream"
    policy = "sievestore-c"


class AodStream(StreamReplay):
    name = "aod-stream"
    policy = "aod-16"


class ShardedPipeline(Workload):
    """synthesize -> segment -> 4-shard/2-job replay -> merge -> report.

    Synthesis is *inside* the timed section (the cold
    ``load_or_generate_segments``); set-up generates the same trace
    independently, a day at a time as the pipeline does, and keeps only
    its size — the oracle the pipeline's block count is checked against.
    """

    name = "sharded-pipeline"
    policy = "sievestore-c"

    def setup(self) -> None:
        self.expected_requests = self.expected_blocks = 0
        for _, columns in EnsembleTraceGenerator(self.config).iter_day_columnar():
            self.expected_requests += len(columns)
            self.expected_blocks += columns.total_blocks()
        # Checkpoint a few times per shard whatever the scale.
        self.checkpoint_every = max(
            1000, self.expected_requests // (spec.PIPELINE_SHARDS * 3)
        )

    def pipeline(self, directory: Path, span=no_span):
        """The timed section; returns ``(run, stats payload)``.

        ``span`` wraps each stage (the traced run passes
        ``Tracer.span``; timed repetitions pass nothing).
        """
        cfg = self.config
        checkpoints = directory / "checkpoints"
        checkpoints.mkdir()
        with span("traces.store.cold"):
            store = load_or_generate_segments(
                cfg, cache_dir=directory / "trace-cache"
            )
        with span("sim.parallel.run"):
            run = run_sharded_replay(
                store, self.policy, cfg.days, cfg.scale,
                shards=spec.PIPELINE_SHARDS, seed=cfg.seed,
                jobs=spec.PIPELINE_JOBS, fast_path=True,
                checkpoint_dir=checkpoints,
                checkpoint_every=self.checkpoint_every,
            )
        with span("report"):
            run.save_manifest(directory / "manifest.json")
            if not run.ok:
                raise RuntimeError(f"{self.name}: shards failed: {run.failures}")
            with span("sim.serialize.stats_to_dict"):
                payload = stats_to_dict(run.stats)
            (directory / "stats.json").write_text(
                json.dumps(payload, sort_keys=True)
            )
        return run, payload

    def repetition(self) -> Repetition:
        directory = self.rep_dir()
        started = time.perf_counter()
        run, payload = self.pipeline(directory)
        wall = time.perf_counter() - started
        problems = []
        if json.loads((directory / "stats.json").read_text()) != payload:
            problems.append("stats.json does not round-trip")
        shutil.rmtree(directory, ignore_errors=True)
        return self.replay_repetition(
            wall, run.stats, problems=problems, tasks=len(run.manifest["tasks"])
        )


def fault_plan() -> FaultPlan:
    """5% read+write errors over day 2, an outage day 4.0-4.5, seed 7."""
    day = float(SECONDS_PER_DAY)  # the plan fingerprint (and its RNG) sees the type
    return FaultPlan(
        errors=(
            ErrorWindow(2 * day, 3 * day, READ, 0.05),
            ErrorWindow(2 * day, 3 * day, WRITE, 0.05),
        ),
        outages=(OutageWindow(4.0 * day, 4.5 * day),),
        seed=7,
    )


class FaultedReplay(Workload):
    """A non-empty fault plan routes the replay to the object engine."""

    name = "faulted-replay"
    policy = "sievestore-c"
    in_process = True

    def setup(self) -> None:
        cfg = self.config
        columns = EnsembleTraceGenerator(cfg).generate_columnar()
        self.context = context_for_trace(columns, cfg.days, cfg.scale, seed=cfg.seed)
        # The object engine replays Request objects; converting is input
        # preparation, not replay.
        self.context.object_trace()
        self.expected_requests = len(columns)
        self.expected_blocks = columns.total_blocks()
        self.plan = fault_plan()

    def replay(self):
        """``(wall seconds, SimulationResult)`` of one faulted replay."""
        with warnings.catch_warnings():
            # The fallback to the object engine is this workload's point.
            warnings.filterwarnings(
                "ignore", message="fast_path=True fell back", category=RuntimeWarning
            )
            started = time.perf_counter()
            result = run_policy(
                self.policy, self.context, fast_path=True, fault_plan=self.plan
            )
            return time.perf_counter() - started, result

    def repetition(self) -> Repetition:
        return self.judge(*self.replay())

    def judge(self, wall: float, result) -> Repetition:
        """The repetition record, with the fault-path checks applied."""
        total = result.stats.total
        problems = []
        if result.engine != "object":
            problems.append(f"fault plan ran on the {result.engine} engine")
        for counter in ("read_errors", "write_errors", "bypass_accesses"):
            if getattr(total, counter) == 0:
                problems.append(f"fault path went empty: {counter} == 0")
        return self.replay_repetition(wall, result.stats, problems=problems)


class ServeBench(Workload):
    """Closed loop of client processes against one shared on-disk store."""

    gate_kind = ""

    def options(self) -> BenchOptions:
        return BenchOptions(gate_kind=self.gate_kind, miss_latency=0.0)

    def setup(self) -> None:
        self.columns = EnsembleTraceGenerator(self.config).generate_columnar()
        self.expected_requests = len(self.columns)
        self.write_client_shards(self.work / "setup-shards")

    def write_client_shards(self, directory: Path) -> None:
        """The client-shard hand-off ``run_serve_bench`` redoes, untimed,
        at the start of every run: partition by address, one .npz per client."""
        fresh_dir(directory)
        for client, rows in enumerate(
            partition_by_address(self.columns, spec.SERVE_CLIENTS)
        ):
            self.columns.take(rows).save_npz(directory / f"client-{client:03d}.npz")

    def serve(self, directory: Path):
        """One closed-loop run against a fresh, empty store."""
        options = self.options()
        # Create the shard databases before the clients attach: two
        # clients racing to turn one fresh database to WAL mode can fail
        # with "database is locked" (a defect of serve.store at this
        # commit, left for a later issue), and a deployed store exists
        # before its clients do.
        with ShardedByteStore(
            directory / "store", shards=options.store_shards,
            inline_bytes=options.inline_bytes,
        ) as store:
            len(store)
        return run_serve_bench(
            self.columns, directory / "store", directory / "shards",
            clients=spec.SERVE_CLIENTS, options=options,
        )

    def repetition(self) -> Repetition:
        directory = self.rep_dir()
        report = self.serve(directory)
        shutil.rmtree(directory, ignore_errors=True)
        return self.summarize(report)

    def summarize(self, report) -> Repetition:
        stats = report.stats
        problems = []
        if report.requests != self.expected_requests:
            problems.append(
                f"served {report.requests} requests, trace holds {self.expected_requests}"
            )
        if stats.hits + stats.misses + stats.bypassed != stats.requests:
            problems.append("hits + misses + bypassed != requests")
        if any(r.executor != "pool" for r in report.client_reports):
            problems.append("client pool broke; clients ran serially")
        blocks_per_request = bytes_to_blocks(self.options().payload_bytes)
        return Repetition(
            wall=report.wall_seconds,
            blocks=report.requests * blocks_per_request,
            requests=report.requests,
            digest=digest_of(stats.to_dict()),
            hit_ratio=stats.hits / stats.requests if stats.requests else 0.0,
            allocation_writes=stats.allocation_writes,
            # Every request is an operation that may fail; a request
            # that raises aborts the run, so reaching here means none did.
            attempted=report.requests + 1,
            failed=1 if problems else 0,
            latency_us={
                op: summary.median * 1e6
                for op, summary in report.latency.items()
                if summary is not None
            },
            problems=problems,
        )


class ServeSieved(ServeBench):
    name = "serve-sieved"
    gate_kind = "sieve"


class ServeUnsieved(ServeBench):
    name = "serve-unsieved"
    gate_kind = "unsieved"


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (
        SieveStream, AodStream, ShardedPipeline, FaultedReplay,
        ServeSieved, ServeUnsieved,
    )
}


def build(name: str, seed: int, work: Path, scale_factor: int = 1) -> Workload:
    return WORKLOAD_CLASSES[name](spec.trace_config(name, seed, scale_factor), work)
