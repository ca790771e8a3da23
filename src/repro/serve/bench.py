"""Multi-client serve bench: concurrent replay against one store.

The bench answers the serving-mode question end to end: N client
processes replay disjoint shards of one trace against a **shared**
store directory, each measuring real per-operation wall latency, and
the parent merges raw samples into nearest-rank percentiles plus a
sieved-vs-unsieved allocation-write comparison.

Client sharding is **by address hash**, not by time: every address is
always handled by the same client process
(``stable_bucket(address, clients, _CLIENT_SALT)``), so each client's
private sieve gate sees the complete miss history of its addresses and
miss-counting stays exact with zero cross-process coordination.  The
store directory is shared — sqlite WAL and the shard fanout carry the
concurrency.

The worker/manifest shape follows :mod:`repro.sim.parallel`: per-client
``.npz`` shards written up front, one top-level picklable task function
per client, raw results shipped back whole (latency percentiles do not
compose from per-client summaries — see
:func:`repro.serve.percentiles.merge_samples`), a
``BrokenProcessPool`` serial fallback, and a JSON manifest recording
each client's execution.  It keeps its own small pool instead of
:mod:`repro.util.fanout`: clients mutate a shared store, so neither
"retry once" nor "re-run after a crash" means what it means for a pure
replay.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.admission import build_admission_gate, gate_allocation_writes
from repro.core.sieve_kernel import bucket_array
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs import runtime
from repro.serve.appliance import ServeStats, ServingCache
from repro.serve.backend import EnsembleBackend
from repro.serve.percentiles import LatencySummary, merge_samples, summarize
from repro.serve.store import (
    DEFAULT_INLINE_BYTES,
    DEFAULT_SHARDS,
    ShardedByteStore,
)
from repro.traces.columnar import ColumnarTrace
from repro.util.atomic import write_json_atomic
from repro.util.hashing import mix64

#: Salt decorrelating client partitioning from store-shard placement.
_CLIENT_SALT = 0xC11E27

#: Manifest schema version for serve-bench runs.
MANIFEST_VERSION = 1

#: Latency classes the bench reports.
OP_KINDS = ("read", "write")


@dataclass(frozen=True)
class BenchOptions:
    """Everything a client worker needs, in picklable plain data."""

    gate_kind: str = "sieve"
    miss_latency: float = 0.0005
    payload_bytes: int = 4096
    store_shards: int = DEFAULT_SHARDS
    inline_bytes: int = DEFAULT_INLINE_BYTES
    seed: int = 0
    #: sieve thresholds (None keeps the paper defaults t1=9, t2=4).
    t1: Optional[int] = None
    t2: Optional[int] = None
    imct_slots: int = 1 << 16
    #: fault plan as its JSON dict (picklable), or None.
    fault_plan: Optional[dict] = None
    collect_metrics: bool = False


@dataclass
class ClientReport:
    """One client process's raw results (shipped back whole)."""

    client: int
    requests: int
    wall_seconds: float
    worker_pid: int
    #: raw per-op latency samples in seconds, keyed by OP_KINDS.
    latencies: Dict[str, List[float]]
    stats: ServeStats
    #: the client's private gate tally (None for stateless gates).
    gate_admissions: Optional[int]
    #: picklable MetricsSnapshot from the client's scoped registry.
    metrics: Optional[object] = None
    executor: str = "pool"


@dataclass
class BenchReport:
    """The merged outcome of one serve-bench run."""

    gate_kind: str
    clients: int
    requests: int
    wall_seconds: float
    #: nearest-rank summaries per op kind; None when the op never ran.
    latency: Dict[str, Optional[LatencySummary]]
    stats: ServeStats
    client_reports: List[ClientReport] = field(default_factory=list)

    @property
    def allocation_writes(self) -> int:
        """First-time admissions onto the device, summed over clients."""
        return self.stats.allocation_writes

    def to_dict(self) -> dict:
        return {
            "gate": self.gate_kind,
            "clients": self.clients,
            "requests": self.requests,
            "wall_seconds": round(self.wall_seconds, 6),
            "allocation_writes": self.allocation_writes,
            "latency": {
                op: summary.to_dict() if summary is not None else None
                for op, summary in sorted(self.latency.items())
            },
            "stats": self.stats.to_dict(),
        }

    def manifest(self) -> dict:
        """Per-client execution records, :mod:`repro.sim.parallel` style."""
        return {
            "version": MANIFEST_VERSION,
            "kind": "serve-bench",
            "gate": self.gate_kind,
            "clients": [
                {
                    "client": report.client,
                    "requests": report.requests,
                    "wall_seconds": round(report.wall_seconds, 6),
                    "worker_pid": report.worker_pid,
                    "executor": report.executor,
                    "allocation_writes": report.stats.allocation_writes,
                }
                for report in sorted(self.client_reports, key=lambda r: r.client)
            ],
        }

    def save_manifest(self, path: Union[str, Path]) -> None:
        write_json_atomic(path, self.manifest())


def partition_by_address(columns: ColumnarTrace, clients: int) -> List[np.ndarray]:
    """Row-index arrays per client, hashed on address (order preserved).

    Hashing the *address* (not the row) pins every block to one client
    for the run's whole duration, which is what keeps each client's
    private sieve exact.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    buckets = bucket_array(columns.address, clients, mix64(_CLIENT_SALT))
    return [np.flatnonzero(buckets == index) for index in range(clients)]


def _build_cache(
    store_dir: Union[str, Path], client: int, options: BenchOptions
) -> ServingCache:
    gate = build_admission_gate(
        options.gate_kind,
        imct_slots=options.imct_slots,
        t1=options.t1,
        t2=options.t2,
    )
    injector = (
        FaultInjector(FaultPlan.from_dict(options.fault_plan))
        if options.fault_plan is not None
        else None
    )
    backend = EnsembleBackend(
        miss_latency=options.miss_latency,
        payload_bytes=options.payload_bytes,
        seed=options.seed,  # shared seed: payloads agree across clients
    )
    store = ShardedByteStore(
        store_dir,
        shards=options.store_shards,
        inline_bytes=options.inline_bytes,
    )
    return ServingCache(store, gate, backend, injector)


def _replay(
    cache: ServingCache, columns: ColumnarTrace
) -> Dict[str, List[float]]:
    """Replay rows in issue order, timing each operation in real time."""
    latencies: Dict[str, List[float]] = {op: [] for op in OP_KINDS}
    issue = columns.issue_time.tolist()
    addresses = columns.address.tolist()
    writes = columns.is_write.tolist()
    for issued, address, is_write in zip(issue, addresses, writes):
        started = time.perf_counter()
        if is_write:
            cache.write(address, issued)
        else:
            cache.read(address, issued)
        latencies["write" if is_write else "read"].append(
            time.perf_counter() - started
        )
    return latencies


def _run_client(
    client: int,
    shard_path: str,
    store_dir: str,
    options: BenchOptions,
) -> ClientReport:
    """One client's whole run (top-level: must pickle into workers)."""
    import os

    columns = ColumnarTrace.load_npz(shard_path)
    started = time.perf_counter()
    snapshot = None
    if options.collect_metrics:
        with runtime.scoped_registry() as obs_context:
            with _build_cache(store_dir, client, options) as cache:
                latencies = _replay(cache, columns)
            snapshot = obs_context.registry.snapshot()
    else:
        with _build_cache(store_dir, client, options) as cache:
            latencies = _replay(cache, columns)
    return ClientReport(
        client=client,
        requests=len(columns),
        wall_seconds=time.perf_counter() - started,
        worker_pid=os.getpid(),
        latencies=latencies,
        stats=cache.stats,
        gate_admissions=gate_allocation_writes(cache.gate),
        metrics=snapshot,
    )


def _merge_reports(
    gate_kind: str,
    clients: int,
    reports: Sequence[ClientReport],
    wall_seconds: float,
) -> BenchReport:
    latency: Dict[str, Optional[LatencySummary]] = {}
    for op in OP_KINDS:
        samples = merge_samples(report.latencies[op] for report in reports)
        latency[op] = summarize(samples) if samples else None
    return BenchReport(
        gate_kind=gate_kind,
        clients=clients,
        requests=sum(report.requests for report in reports),
        wall_seconds=wall_seconds,
        latency=latency,
        stats=ServeStats.merged(report.stats for report in reports),
        client_reports=list(reports),
    )


def run_serve_bench(
    columns: ColumnarTrace,
    store_dir: Union[str, Path],
    work_dir: Union[str, Path],
    clients: int = 4,
    options: Optional[BenchOptions] = None,
    parallel: bool = True,
) -> BenchReport:
    """Replay ``columns`` through ``clients`` processes sharing one store.

    ``work_dir`` receives the per-client ``.npz`` trace shards (the
    same hand-off :mod:`repro.sim.parallel` uses — workers load columns
    from disk instead of unpickling arrays through the pool).  With
    ``parallel=False`` (or a single client) everything runs in-process.
    When the pool breaks, finished clients keep their reports and only
    the clients without one re-run in-process (``serial-fallback``),
    each after its addresses are dropped from the store.
    """
    if options is None:
        options = BenchOptions()
    if options.collect_metrics and not runtime.enabled():
        options = BenchOptions(**{**options.__dict__, "collect_metrics": False})
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    shard_paths: List[str] = []
    for client, indices in enumerate(partition_by_address(columns, clients)):
        shard = columns.take(indices)
        path = work_dir / f"client-{client:03d}.npz"
        shard.save_npz(path)
        shard_paths.append(str(path))

    started = time.perf_counter()
    collected: Dict[int, ClientReport] = {}
    pooled = parallel and clients > 1
    if pooled:
        try:
            with ProcessPoolExecutor(max_workers=clients) as pool:
                futures = [
                    pool.submit(
                        _run_client, client, shard_paths[client],
                        str(store_dir), options,
                    )
                    for client in range(clients)
                ]
                for client, future in enumerate(futures):
                    with suppress(BrokenProcessPool):
                        collected[client] = future.result()
        except BrokenProcessPool:
            pass  # broke while submitting; every client re-runs below
    reports: List[ClientReport] = []
    for client, path in enumerate(shard_paths):
        report = collected.get(client)
        if report is None:
            if pooled:
                # The dead worker may have filled the store already; a
                # re-run must start from what a clean run would see.
                _forget_client(path, store_dir, options)
            report = _run_client(client, path, str(store_dir), options)
            report.executor = "serial-fallback" if pooled else "serial"
        reports.append(report)
    wall_seconds = time.perf_counter() - started

    merged = _merge_reports(options.gate_kind, clients, reports, wall_seconds)
    _adopt_metrics(reports)
    return merged


def _forget_client(
    shard_path: str, store_dir: Union[str, Path], options: BenchOptions
) -> None:
    """Drop one client's addresses from the store.

    Addresses are client-private (see the module docs), so this undoes
    exactly what that client's lost run may have written.
    """
    columns = ColumnarTrace.load_npz(shard_path)
    with ShardedByteStore(
        store_dir,
        shards=options.store_shards,
        inline_bytes=options.inline_bytes,
    ) as store:
        for address in np.unique(columns.address).tolist():
            store.delete(address)


def _adopt_metrics(reports: Sequence[ClientReport]) -> None:
    """Merge worker metric snapshots into the parent registry, if on."""
    registry = runtime.get_registry()
    if registry is None:
        return
    for report in reports:
        if report.metrics is not None:
            registry.merge_snapshot(report.metrics)


def run_sieve_comparison(
    columns: ColumnarTrace,
    base_dir: Union[str, Path],
    clients: int = 4,
    options: Optional[BenchOptions] = None,
    parallel: bool = True,
) -> Dict[str, object]:
    """Two-pass bench: the sieve vs. the allocate-on-demand baseline.

    Each pass gets a fresh store directory under ``base_dir``; the
    returned dict carries both :class:`BenchReport` objects plus the
    headline number — allocation writes the sieve kept off the device.
    """
    if options is None:
        options = BenchOptions()
    base_dir = Path(base_dir)
    sieved = run_serve_bench(
        columns,
        base_dir / "store-sieved",
        base_dir / "shards",
        clients=clients,
        options=options,
        parallel=parallel,
    )
    unsieved_options = BenchOptions(
        **{**options.__dict__, "gate_kind": "unsieved"}
    )
    unsieved = run_serve_bench(
        columns,
        base_dir / "store-unsieved",
        base_dir / "shards",
        clients=clients,
        options=unsieved_options,
        parallel=parallel,
    )
    saved = unsieved.allocation_writes - sieved.allocation_writes
    return {
        "sieved": sieved,
        "unsieved": unsieved,
        "allocation_writes_saved": saved,
        "allocation_write_ratio": (
            sieved.allocation_writes / unsieved.allocation_writes
            if unsieved.allocation_writes
            else None
        ),
    }
