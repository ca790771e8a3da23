"""The per-layer traced run: spans around each module's public calls.

One traced repetition per workload, plus direct probes of the layers
that repetition exercises, all timed from outside the program.  A
layer is named after its module (``traces.segments``,
``core.sieve_kernel``, ``serve.store`` ...); which end-to-end metric
each layer metric should move, on which workload, is tabulated in
``README.md``.  Layers a workload does not touch report 0.

Every ``*_us`` figure and every p99 here is a *sandbox* latency (page
cache, cheap fsync), not a device's.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np

from repro.cache.stats import CacheStats
from repro.core.admission import build_admission_gate
from repro.core.sieve_kernel import SieveStoreCKernel
from repro.core.sievestore_c import SieveStoreC
from repro.faults.injector import FaultInjector
from repro.obs import runtime as obs_runtime
from repro.serve.appliance import ServingCache
from repro.serve.backend import EnsembleBackend
from repro.serve.percentiles import merge_samples, nearest_rank, summarize
from repro.serve.store import ShardedByteStore
from repro.sim.engine import simulate
from repro.sim.experiment import ExperimentContext, build_policy
from repro.sim.parallel import run_sharded_replay
from repro.sim.serialize import load_checkpoint, save_checkpoint, stats_to_dict
from repro.traces.segments import ChunkSource, SegmentStore, write_segments
from repro.traces.store import load_or_generate_segments
from repro.traces.synthetic import EnsembleTraceGenerator
from repro.util.intervals import SECONDS_PER_DAY

from benchmarks.perf import spec
from benchmarks.perf.spans import Tracer
from benchmarks.perf.workloads import (
    FaultedReplay,
    ServeBench,
    ShardedPipeline,
    StreamReplay,
    Workload,
    digest_of,
    fresh_dir,
)

#: Requests per chunk for the direct segment / kernel passes — the fast
#: engine's own precompute granularity.
CHUNK_ROWS = 1 << 16

#: Direct calls per ``serve.store`` / ``serve.backend`` probe.
STORE_PROBE_CALLS = 2000
HEALTH_PROBE_CALLS = 10_000

Metrics = Dict[str, float]


def _percentile_us(samples: List[float], fraction: float = 0.5) -> float:
    """Nearest-rank percentile of per-call seconds, in microseconds (0 if none)."""
    return nearest_rank(sorted(samples), fraction) * 1e6 if samples else 0.0


def _time_each(call: Callable, items: Iterable) -> List[float]:
    """Per-call wall seconds of ``call(item)`` over ``items``."""
    samples = []
    for item in items:
        started = time.perf_counter()
        call(item)
        samples.append(time.perf_counter() - started)
    return samples


def _tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


class TimedSource(ChunkSource):
    """A shard view that records a span per chunk it produces.

    Standing in for the view, it separates chunk-production time inside
    a replay — and the ``daily_block_counts`` pass before it — from
    engine time.
    """

    def __init__(self, inner: ChunkSource, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def iter_chunks(self, chunk_rows=None, start_row: int = 0):
        chunks = iter(self.inner.iter_chunks(chunk_rows, start_row))
        while True:
            with self.tracer.span("traces.segments.replay_chunk"):
                item = next(chunks, None)
            if item is None:
                return
            yield item

    def daily_block_counts(self, days: int, chunk_rows=None):
        with self.tracer.span("traces.segments.daily_counts"):
            return self.inner.daily_block_counts(days, chunk_rows=chunk_rows)

    def __len__(self) -> int:
        return len(self.inner)

    def fingerprint(self):
        return self.inner.fingerprint()


class TracedStore(SegmentStore):
    """A segment store whose shard views are :class:`TimedSource`s.

    ``run_sharded_replay`` takes a ``SegmentStore`` and makes its own
    shard views; handed this one (``jobs=1``, so the views stay in this
    process) it runs its real per-shard path with spans at the chunk
    boundary, so the traced breakdown cannot drift from what the timed
    repetitions execute.
    """

    tracer: Tracer

    def shard(self, shard: int, shards: int) -> TimedSource:
        return TimedSource(super().shard(shard, shards), self.tracer)


# -- trace layers ------------------------------------------------------------

def probe_synthetic(config, tracer: Tracer) -> Tuple[list, Metrics]:
    """``traces.synthetic``: the day-by-day generator, drained."""
    with tracer.span("traces.synthetic.generate"):
        days = [columns for _, columns in EnsembleTraceGenerator(config).iter_day_columnar()]
    generate_s = tracer.total("traces.synthetic.generate")
    return days, {
        "traces.synthetic.generate_s": generate_s,
        "traces.synthetic.rows_per_s": sum(map(len, days)) / generate_s,
    }


def probe_trace_layers(config, directory: Path, tracer: Tracer) -> Tuple[SegmentStore, Metrics]:
    """``traces.synthetic`` + ``traces.segments``: generate, write, read back."""
    days, metrics = probe_synthetic(config, tracer)
    with tracer.span("traces.segments.write"):
        write_segments(days, fresh_dir(directory))
    del days
    with tracer.span("traces.segments.open"):
        store = SegmentStore.open(directory)
    with tracer.span("traces.segments.iter_chunks"):
        rows = sum(len(columns) for _, columns in store.iter_chunks(CHUNK_ROWS))
    with tracer.span("traces.segments.shard_iter"):
        yielded = sum(
            len(columns)
            for _, columns in store.shard(0, spec.PIPELINE_SHARDS).iter_chunks(CHUNK_ROWS)
        )
    iter_s = tracer.total("traces.segments.iter_chunks")
    metrics.update({
        "traces.segments.write_s": tracer.total("traces.segments.write"),
        "traces.segments.open_s": tracer.total("traces.segments.open"),
        "traces.segments.iter_chunks_s": iter_s,
        "traces.segments.rows_per_s": rows / iter_s,
        "traces.segments.bytes_on_disk": _tree_bytes(directory),
        "traces.segments.shard_iter_s": tracer.total("traces.segments.shard_iter"),
        "traces.segments.shard_scan_ratio": rows / yielded if yielded else 0.0,
    })
    return store, metrics


def probe_sieve_kernel(store: SegmentStore, context: ExperimentContext, tracer: Tracer) -> Metrics:
    """``core.sieve_kernel``: build, precompute every chunk, sync back."""
    policy, _ = build_policy("sievestore-c", context)
    with tracer.span("core.sieve_kernel.from_table"):
        kernel = SieveStoreCKernel(policy)
    blocks = 0
    for _, columns in store.iter_chunks(CHUNK_ROWS):
        with tracer.span("core.sieve_kernel.precompute"):
            kernel.precompute_chunk(
                columns.address, columns.block_count, columns.issue_time
            )
        blocks += int(columns.block_count.sum())
    with tracer.span("core.sieve_kernel.sync"):
        kernel.sync()
    precompute_s = tracer.total("core.sieve_kernel.precompute")
    return {
        "core.sieve_kernel.precompute_s": precompute_s,
        "core.sieve_kernel.precompute_blocks_per_s": blocks / precompute_s,
        "core.sieve_kernel.from_table_s": tracer.total("core.sieve_kernel.from_table"),
        "core.sieve_kernel.sync_s": tracer.total("core.sieve_kernel.sync"),
        "core.sieve_kernel.chunks": tracer.count("core.sieve_kernel.precompute"),
    }


def sieve_funnel(policy) -> Metrics:
    """``core.sievestore_c``: what the sieve did with each miss (exact)."""
    misses = (
        policy.imct_rejections + policy.promotions
        + policy.mct_rejections + policy.admissions
    )
    state = policy.metastate_entries()
    return {
        "core.sieve.misses": misses,
        "core.sieve.imct_rejections": policy.imct_rejections,
        "core.sieve.admissions": policy.admissions,
        "core.sieve.metastate_entries": state["imct_slots"] + state["mct_peak_entries"],
        "core.sieve.admit_ratio": policy.admissions / misses if misses else 0.0,
    }


def _shard_context(source: ChunkSource, config, daily_counts) -> ExperimentContext:
    return ExperimentContext(
        trace=source, days=config.days, scale=config.scale,
        daily_counts=daily_counts, seed=config.seed,
    )


# -- replay workloads ----------------------------------------------------------

def trace_stream(workload: StreamReplay, tracer: Tracer, untraced_wall: float):
    """``sieve-stream`` / ``aod-stream``: the streamed fast engine."""
    config = workload.config
    store, metrics = probe_trace_layers(config, workload.work / "traced-segments", tracer)
    traced_store = TracedStore.open(store.directory)
    traced_store.tracer = tracer
    # The timed repetition's own call, on a store that records spans.
    with tracer.span("sim.fast_engine.replay") as replay:
        run = run_sharded_replay(
            traced_store, workload.policy, config.days, config.scale,
            shards=1, seed=config.seed, jobs=1, fast_path=True,
        )
    if not run.ok:
        raise RuntimeError(f"{workload.name}: traced replay failed: {run.failures}")
    engine = run.manifest["tasks"][0]["engine"]
    if engine != "fast":
        raise RuntimeError(f"{workload.name}: ran on the {engine} engine")
    repetition = workload.replay_repetition(replay["end"] - replay["start"], run.stats)
    if workload.policy == "sievestore-c":
        context = _shard_context(store, config, [])
        metrics.update(probe_sieve_kernel(store, context, tracer))
        metrics.update(probe_sieve_funnel(workload, store, context, repetition))
        with obs_runtime.observability():
            observed = workload.repetition()
        metrics["obs.metrics_on_ratio"] = observed.wall / untraced_wall
    replay_s = tracer.total("sim.fast_engine.replay")
    metrics.update({
        "traces.segments.replay_chunk_s": tracer.total("traces.segments.replay_chunk"),
        "traces.segments.daily_counts_s": tracer.total("traces.segments.daily_counts"),
        "sim.fast_engine.replay_s": replay_s,
        # Kernel precompute happens inside the engine call; its cost is
        # taken from the direct pass over the same chunks above.
        "sim.fast_engine.loop_self_s": tracer.self_time("sim.fast_engine.replay")
        - metrics.get("core.sieve_kernel.precompute_s", 0.0),
        "sim.fast_engine.ns_per_block": replay_s / repetition.blocks * 1e9,
    })
    return repetition, metrics


def probe_sieve_funnel(workload: StreamReplay, store: SegmentStore,
                       context: ExperimentContext, repetition) -> Metrics:
    """``core.sievestore_c``: the policy's own counters after a replay.

    ``run_sharded_replay`` returns statistics, not the policy object, so
    the counters come from one direct ``simulate`` of the same store —
    untimed, and required to reproduce the traced replay's statistics.
    """
    policy, capacity = build_policy(workload.policy, context)
    result = simulate(
        store, policy, capacity_blocks=capacity, days=workload.config.days,
        fast_path=True, label=workload.policy,
    )
    repetition.attempted += 1
    if digest_of(stats_to_dict(result.stats)) != repetition.digest:
        repetition.failed += 1
        repetition.problems.append("direct simulate() disagrees with run_sharded_replay")
    return sieve_funnel(result.policy)


def trace_pipeline(workload: ShardedPipeline, tracer: Tracer, untraced_wall: float):
    """``sharded-pipeline``: every stage between synthesis and the report."""
    config = workload.config
    directory = workload.rep_dir()
    with tracer.span("pipeline") as whole:
        run, _ = workload.pipeline(directory, tracer.span)
    tasks = run.manifest["tasks"]
    repetition = workload.replay_repetition(
        whole["end"] - whole["start"], run.stats, tasks=len(tasks)
    )
    with tracer.span("traces.store.warm_open"):
        load_or_generate_segments(config, cache_dir=directory / "trace-cache")

    walls = [task["wall_seconds"] for task in tasks]
    run_wall = tracer.total("sim.parallel.run")
    metrics: Metrics = {
        "traces.store.cold_s": tracer.total("traces.store.cold"),
        "traces.store.warm_open_s": tracer.total("traces.store.warm_open"),
        "sim.parallel.shard_wall_max_s": max(walls),
        "sim.parallel.shard_wall_sum_s": sum(walls),
        "sim.parallel.shard_imbalance": max(walls) / (sum(walls) / len(walls)),
        "sim.parallel.fanout_overhead_s": run_wall - sum(walls) / spec.PIPELINE_JOBS,
        "sim.parallel.retries": sum(task["retries"] for task in tasks),
        "sim.parallel.failed_tasks": sum(1 for task in tasks if task["outcome"] != "ok"),
        "sim.serialize.stats_to_dict_s": tracer.total("sim.serialize.stats_to_dict"),
    }

    shard_stats = list(run.shard_stats.values())
    with tracer.span("cache.stats.merged"):
        merged = CacheStats.merged(shard_stats)
    with tracer.span("cache.stats.check_consistency"):
        merged.check_consistency()
    metrics.update({
        "cache.stats.merged_s": tracer.total("cache.stats.merged"),
        "cache.stats.minute_rows": len(merged.minute_series()),
        "cache.stats.check_consistency_s": tracer.total("cache.stats.check_consistency"),
    })

    checkpoints = sorted((directory / "checkpoints").glob("*.ckpt"))
    with tracer.span("sim.serialize.load_checkpoint"):
        payload = load_checkpoint(checkpoints[0])
    with tracer.span("sim.serialize.save_checkpoint"):
        save_checkpoint(payload, directory / "roundtrip.ckpt")
    metrics.update({
        "sim.serialize.load_checkpoint_s": tracer.total("sim.serialize.load_checkpoint"),
        "sim.serialize.save_checkpoint_s": tracer.total("sim.serialize.save_checkpoint"),
        "sim.serialize.checkpoint_bytes": checkpoints[0].stat().st_size,
        "sim.serialize.checkpoints_written": len(checkpoints),
    })

    store, trace_metrics = probe_trace_layers(config, directory / "probe-segments", tracer)
    metrics.update(trace_metrics)
    metrics.update(probe_sieve_kernel(store, _shard_context(store, config, []), tracer))
    return repetition, metrics


def trace_faulted(workload: FaultedReplay, tracer: Tracer, untraced_wall: float):
    """``faulted-replay``: object engine + appliance health machine."""
    with tracer.span("sim.engine.replay"):
        wall, result = workload.replay()
    repetition = workload.judge(wall, result)
    total = result.stats.total
    injector = FaultInjector(workload.plan)
    span_seconds = workload.config.days * SECONDS_PER_DAY
    times = [span_seconds * i / HEALTH_PROBE_CALLS for i in range(HEALTH_PROBE_CALLS)]
    with tracer.span("faults.injector.health_at"):
        for moment in times:
            injector.health_at(moment)
    replay_s = tracer.total("sim.engine.replay")
    return repetition, {
        "sim.engine.replay_s": replay_s,
        "sim.engine.ns_per_block": replay_s / repetition.blocks * 1e9,
        "sim.engine.object_route": 1 if result.engine == "object" else 0,
        "faults.read_errors": total.read_errors,
        "faults.write_errors": total.write_errors,
        "faults.bypass_accesses": total.bypass_accesses,
        # Mean over the batch: a single call is below the clock's grain.
        "faults.injector.health_at_us":
            tracer.total("faults.injector.health_at") / HEALTH_PROBE_CALLS * 1e6,
    }


# -- serve workloads ---------------------------------------------------------

def probe_store(directory: Path, backend: EnsembleBackend, keys: List[int],
                absent: List[int]) -> Metrics:
    """``serve.store``: direct calls on a fresh store (4 KiB inline, 8 KiB spilled)."""
    inline = {key: backend.payload(key) for key in keys}
    spilled = {key: backend.payload(key) * 2 for key in absent}
    with ShardedByteStore(directory) as store:
        put_inline = _time_each(lambda key: store.put(key, inline[key]), keys)
        get_hit = _time_each(store.get, keys)
        contains = _time_each(store.contains, keys)
        get_miss = _time_each(store.get, absent)
        put_spill = _time_each(lambda key: store.put(key, spilled[key]), absent)
        get_spill = _time_each(store.get, absent)
        user_bytes = sum(map(len, inline.values())) + sum(map(len, spilled.values()))
        stored_bytes = _tree_bytes(directory)
        spill_files = sum(1 for _ in directory.rglob("*.val"))
        delete = _time_each(store.delete, absent)
    return {
        "serve.store.put_inline_us": _percentile_us(put_inline),
        "serve.store.get_hit_us": _percentile_us(get_hit),
        "serve.store.contains_us": _percentile_us(contains),
        "serve.store.get_miss_us": _percentile_us(get_miss),
        "serve.store.put_spill_us": _percentile_us(put_spill),
        "serve.store.get_spill_us": _percentile_us(get_spill),
        "serve.store.delete_us": _percentile_us(delete),
        "serve.store.bytes_per_user_byte": stored_bytes / user_bytes,
        "serve.store.spill_files": spill_files,
    }


def probe_appliance(workload: ServeBench, directory: Path):
    """``serve.appliance``: one in-process client over the whole trace.

    Each op is classified from the ``ServeStats`` deltas around it and
    its returned bytes are checked against the backend's payload.
    Returns ``(metrics, miss stream, wrong-bytes count, gate)``.
    """
    options = workload.options()
    backend = EnsembleBackend(
        miss_latency=0.0, payload_bytes=options.payload_bytes, seed=options.seed
    )
    gate = build_admission_gate(options.gate_kind, imct_slots=options.imct_slots)
    cache = ServingCache(ShardedByteStore(directory), gate, backend)
    columns = workload.columns
    samples: Dict[str, List[float]] = {
        "read_hit": [], "read_miss_rejected": [], "read_miss_admitted": [],
        "write_hit": [], "write_miss": [],
    }
    misses: List[Tuple[int, bool, float]] = []
    wrong = 0
    stats = cache.stats
    with cache:
        for issued, address, is_write in zip(
            columns.issue_time.tolist(), columns.address.tolist(),
            columns.is_write.tolist(),
        ):
            hits, admitted = stats.hits, stats.allocation_writes
            started = time.perf_counter()
            value = cache.write(address, issued) if is_write else cache.read(address, issued)
            elapsed = time.perf_counter() - started
            if value != backend.payload(address):
                wrong += 1
            if stats.hits > hits:
                outcome = "write_hit" if is_write else "read_hit"
            else:
                misses.append((address, is_write, issued))
                if is_write:
                    outcome = "write_miss"
                elif stats.allocation_writes > admitted:
                    outcome = "read_miss_admitted"
                else:
                    outcome = "read_miss_rejected"
            samples[outcome].append(elapsed)
    reads = samples["read_hit"] + samples["read_miss_rejected"] + samples["read_miss_admitted"]
    writes = samples["write_hit"] + samples["write_miss"]
    metrics = {f"serve.appliance.{name}_us": _percentile_us(values) for name, values in samples.items()}
    metrics.update({
        "serve.appliance.read_p99_us": _percentile_us(reads, 0.99),
        "serve.appliance.write_p99_us": _percentile_us(writes, 0.99),
        "serve.appliance.hits": stats.hits,
        "serve.appliance.misses": stats.misses,
        "serve.appliance.update_writes": stats.update_writes,
    })
    return metrics, misses, wrong, gate


def probe_admission(workload: ServeBench, misses: List[Tuple[int, bool, float]]) -> Metrics:
    """``core.admission``: a fresh gate's ``wants`` over the miss stream."""
    options = workload.options()
    gate = build_admission_gate(options.gate_kind, imct_slots=options.imct_slots)
    admitted = 0
    samples = []
    for address, is_write, issued in misses:
        started = time.perf_counter()
        wanted = gate.wants(address, is_write, issued)
        samples.append(time.perf_counter() - started)
        admitted += bool(wanted)
    return {
        "core.admission.wants_us": _percentile_us(samples),
        "core.admission.admit_ratio": admitted / len(misses) if misses else 0.0,
    }


def trace_serve(workload: ServeBench, tracer: Tracer, untraced_wall: float):
    """``serve-sieved`` / ``serve-unsieved``: bench fan-out, then each layer."""
    columns = workload.columns
    directory = workload.rep_dir()
    with tracer.span("serve.bench.partition"):
        workload.write_client_shards(directory / "probe-shards")
    with tracer.span("serve.bench.run"):
        report = workload.serve(directory)
    repetition = workload.summarize(report)
    client_walls = [client.wall_seconds for client in report.client_reports]
    with tracer.span("serve.percentiles.summarize"):
        for op in ("read", "write"):
            summarize(merge_samples(c.latencies[op] for c in report.client_reports))
    metrics: Metrics = {
        "serve.bench.partition_s": tracer.total("serve.bench.partition"),
        "serve.bench.client_wall_max_s": max(client_walls),
        "serve.bench.client_imbalance":
            max(client_walls) / (sum(client_walls) / len(client_walls)),
        "serve.bench.pool_overhead_s": report.wall_seconds - max(client_walls),
        "serve.percentiles.summarize_s": tracer.total("serve.percentiles.summarize"),
    }

    unique = np.unique(columns.address).tolist()
    # Real trace addresses as keys; an eighth of them at most, so a
    # small trace gets a proportionally short probe.
    calls = min(STORE_PROBE_CALLS, len(unique) // 8)
    keys, absent = unique[:calls], unique[calls:2 * calls]
    options = workload.options()
    backend = EnsembleBackend(0.0, options.payload_bytes, options.seed)
    with tracer.span("serve.store.probe"):
        metrics.update(probe_store(directory / "probe-store", backend, keys, absent))
    with tracer.span("serve.backend.read"):
        backend_reads = _time_each(backend.read, keys)
    metrics["serve.backend.read_us"] = _percentile_us(backend_reads)
    with tracer.span("serve.appliance.probe"):
        appliance_metrics, misses, wrong, gate = probe_appliance(
            workload, directory / "appliance-store"
        )
    metrics.update(appliance_metrics)
    if isinstance(gate, SieveStoreC):
        metrics.update(sieve_funnel(gate))
    with tracer.span("core.admission.probe"):
        metrics.update(probe_admission(workload, misses))
    # Every request of the single-client pass is an operation whose
    # bytes were checked.
    repetition.attempted += len(columns)
    if wrong:
        repetition.failed += wrong
        repetition.problems.append(f"{wrong} requests returned bytes != payload")
    return repetition, metrics


def traced_run(workload: Workload, tracer: Tracer, untraced_wall: float):
    """One traced repetition of ``workload`` plus its layer probes.

    Returns ``(repetition, per-layer metrics)``; the caller fills in 0
    for declared layers this workload does not touch.
    """
    if isinstance(workload, StreamReplay):
        trace = trace_stream
    elif isinstance(workload, ShardedPipeline):
        trace = trace_pipeline
    elif isinstance(workload, FaultedReplay):
        trace = trace_faulted
    else:
        trace = trace_serve
    repetition, metrics = trace(workload, tracer, untraced_wall)
    if "traces.synthetic.generate_s" not in metrics:
        metrics.update(probe_synthetic(workload.config, tracer)[1])
    metrics["bench.trace_overhead_ratio"] = repetition.wall / untraced_wall
    return repetition, metrics
