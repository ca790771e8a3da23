"""Experiment configuration and the policy registry.

Maps the paper's evaluated configurations (Figure 5's bars) onto
constructed policy + capacity pairs, with all sizes derived from one
linear ``scale`` so the scaled experiments keep the paper's ratios:

* sieved caches (Ideal, SieveStore-D/-C, RandSieve-*): 16 GB x scale;
* unsieved caches (AOD, WMNA): both 16 GB and 32 GB x scale — the paper
  grants the unsieved policies a double-size cache to account for the
  DRAM/storage the sieve metastate would occupy, and reports the 32 GB
  numbers;
* IMCT sized to the paper's ~8 GB-of-state budget x scale.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Union

from repro.core.admission import build_admission_gate
from repro.core.ideal import IdealDailySieve
from repro.core.random_sieve import RandSieveBlkD, RandSieveC
from repro.core.sievestore_c import SieveStoreC, SieveStoreCConfig
from repro.core.sievestore_d import SieveStoreD, SieveStoreDConfig
from repro.core.windows import WindowSpec
from repro.sim.engine import SimulationResult, simulate
from repro.traces.columnar import BlockCounts, ColumnarTrace
from repro.traces.model import Trace
from repro.traces.segments import ChunkSource
from repro.traces.streams import daily_block_counts
from repro.util.units import BLOCK_BYTES, GIB

if TYPE_CHECKING:
    from repro.sim.parallel import SuiteRun

#: Figure 5's configuration keys, in the paper's bar order.
FIGURE5_POLICIES = (
    "ideal",
    "randsieve-blkd",
    "sievestore-d",
    "randsieve-c",
    "sievestore-c",
    "aod-16",
    "wmna-16",
    "aod-32",
    "wmna-32",
)

#: Paper's full-scale cache sizes.
SIEVED_CACHE_GIB = 16.0
UNSIEVED_LARGE_CACHE_GIB = 32.0
#: Paper's full-scale sieve-state budget (~8 GB of IMCT+MCT).
FULL_SCALE_IMCT_SLOTS = 1.3e9


class ExperimentContext:
    """Shared inputs for building policies against one trace.

    ``daily_counts`` (per-day per-block access counts) doubles as the
    ideal sieve's oracle knowledge and as the popularity analysis input.
    It costs a whole pass over the trace, so it is computed on first
    read — only ``build_policy("ideal", ...)`` and the analyses pay for
    it — unless the caller passes a list it already has.

    ``trace`` may be held in either in-RAM representation, or be a
    chunk source (segment store / shard view) for streamed replays.
    Runs replay a chunk source as is and an in-RAM trace as
    :meth:`columnar_trace`; :meth:`object_trace` serves callers that
    want request objects (conversions are cached).
    """

    def __init__(
        self,
        trace: Union[Trace, ColumnarTrace, ChunkSource],
        days: int,
        scale: float,
        daily_counts: Optional[List[BlockCounts]] = None,
        seed: int = 0,
        columnar: Optional[ColumnarTrace] = None,
    ):
        self.trace = trace
        self.days = days
        self.scale = scale
        self.seed = seed
        self.columnar = columnar
        self._object_cache: Optional[Trace] = None
        if daily_counts is not None:
            self.daily_counts = daily_counts

    @cached_property
    def daily_counts(self) -> List[BlockCounts]:
        """Per-day block access counts, from whichever form is at hand.

        Columns or a chunk source are counted vectorized; object-only
        input takes the reference per-block walk — the two are asserted
        identical by the test suite.  A chunk source is read at its
        default chunk size; a caller with a tighter ``chunk_rows`` budget
        counts it itself and passes the list in.
        """
        source = self.columnar if self.columnar is not None else self.trace
        if isinstance(source, Trace):
            return daily_block_counts(source, self.days)
        return source.daily_block_counts(self.days)

    def object_trace(self) -> Trace:
        """The trace in object form (converted from columns if needed)."""
        if isinstance(self.trace, Trace):
            return self.trace
        if self._object_cache is None:
            self._object_cache = self.trace.to_trace()
        return self._object_cache

    def columnar_trace(self) -> ColumnarTrace:
        """The trace in columnar form (converted from objects if needed)."""
        if isinstance(self.trace, ColumnarTrace):
            return self.trace
        if self.columnar is None:
            self.columnar = ColumnarTrace.from_trace(self.trace)
        return self.columnar

    def cache_blocks(self, full_scale_gib: float) -> int:
        """Scaled frame count for a full-scale cache size in GiB."""
        blocks = int(full_scale_gib * GIB / BLOCK_BYTES * self.scale)
        return max(blocks, 64)

    @property
    def sieved_capacity(self) -> int:
        """Scaled frame count of the paper's 16 GB sieved cache."""
        return self.cache_blocks(SIEVED_CACHE_GIB)

    @property
    def unsieved_large_capacity(self) -> int:
        """Scaled frame count of the 32 GB unsieved comparison cache."""
        return self.cache_blocks(UNSIEVED_LARGE_CACHE_GIB)

    @property
    def imct_slots(self) -> int:
        """Scaled IMCT slot count (paper: ~8 GB of sieve state)."""
        return max(1024, int(FULL_SCALE_IMCT_SLOTS * self.scale))


def context_for_trace(
    trace: Union[Trace, ColumnarTrace],
    days: int,
    scale: float,
    seed: int = 0,
    columnar: Optional[ColumnarTrace] = None,
) -> ExperimentContext:
    """Build the shared context for an in-RAM trace.

    Accepts either trace representation; pass ``columnar`` alongside an
    object ``trace`` when both forms already exist so neither gets
    re-derived.
    """
    if isinstance(trace, ColumnarTrace):
        columnar = trace
    return ExperimentContext(
        trace=trace, days=days, scale=scale, seed=seed, columnar=columnar
    )


def build_policy(name: str, ctx: ExperimentContext) -> tuple:
    """Construct (policy, capacity_blocks) for a configuration key.

    Keys: ``ideal``, ``sievestore-d``, ``sievestore-c``,
    ``randsieve-blkd``, ``randsieve-c``, ``aod-16``, ``wmna-16``,
    ``aod-32``, ``wmna-32``.
    """
    sieved = ctx.sieved_capacity
    large = ctx.unsieved_large_capacity
    factories: Dict[str, Callable[[], tuple]] = {
        "ideal": lambda: (
            IdealDailySieve(ctx.daily_counts, capacity_blocks=sieved),
            sieved,
        ),
        "sievestore-d": lambda: (
            SieveStoreD(SieveStoreDConfig(capacity_blocks=sieved)),
            sieved,
        ),
        # The sieve and the unsieved baselines come from the shared
        # admission-gate factory (repro.core.admission), which the live
        # serving layer uses for the very same construction.
        "sievestore-c": lambda: (
            build_admission_gate("sieve", imct_slots=ctx.imct_slots),
            sieved,
        ),
        "randsieve-blkd": lambda: (
            RandSieveBlkD(capacity_blocks=sieved, seed=ctx.seed),
            sieved,
        ),
        "randsieve-c": lambda: (RandSieveC(seed=ctx.seed), sieved),
        "aod-16": lambda: (build_admission_gate("unsieved"), sieved),
        "wmna-16": lambda: (build_admission_gate("read-only"), sieved),
        "aod-32": lambda: (build_admission_gate("unsieved"), large),
        "wmna-32": lambda: (build_admission_gate("read-only"), large),
    }
    if name not in factories:
        raise ValueError(
            f"unknown policy configuration {name!r}; expected one of "
            f"{sorted(factories)}"
        )
    return factories[name]()


def _replayed(ctx: ExperimentContext) -> Union[ColumnarTrace, ChunkSource]:
    """What a run over ``ctx`` replays: a chunk source streamed as is,
    an in-RAM trace as columns."""
    if isinstance(ctx.trace, ChunkSource):
        return ctx.trace
    return ctx.columnar_trace()


def run_policy(
    name: str,
    ctx: ExperimentContext,
    track_minutes: bool = True,
    fast_path: bool = True,
    fault_plan=None,
    epoch_seconds: Optional[float] = None,
    checkpoint_path=None,
    checkpoint_every: Optional[int] = None,
    checkpoint_context: Optional[dict] = None,
    progress_every: Optional[int] = None,
    progress_hook=None,
    chunk_rows: Optional[int] = None,
) -> SimulationResult:
    """Build and simulate one configuration; the result is named ``name``.

    The one way a configuration is run: the suite, the shard workers
    and the CLI all come through here.  A chunk-source context streams
    its store, an in-RAM one replays
    :meth:`ExperimentContext.columnar_trace`, both in ``chunk_rows``-row
    chunks.  ``fast_path``, ``fault_plan`` (a
    :class:`~repro.faults.plan.FaultPlan`), ``epoch_seconds``, the
    checkpoint arguments, the progress hook and ``chunk_rows`` are
    forwarded to :func:`~repro.sim.engine.simulate` unchanged; the
    configuration key is the run's label, so e.g. ``aod-16`` and
    ``aod-32`` results and metrics stay distinguishable.
    """
    policy, capacity = build_policy(name, ctx)
    return simulate(
        _replayed(ctx),
        policy,
        capacity_blocks=capacity,
        days=ctx.days,
        track_minutes=track_minutes,
        epoch_seconds=epoch_seconds,
        fast_path=fast_path,
        fault_plan=fault_plan,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        checkpoint_context=checkpoint_context,
        label=name,
        progress_every=progress_every,
        progress_hook=progress_hook,
        chunk_rows=chunk_rows,
    )


def run_policy_suite(
    ctx: ExperimentContext,
    names: Sequence[str] = FIGURE5_POLICIES,
    track_minutes: bool = True,
    fast_path: bool = True,
    jobs: Optional[int] = 1,
    task_timeout: Optional[float] = None,
    fault_plan=None,
    epoch_seconds: Optional[float] = None,
    checkpoint_dir=None,
    checkpoint_every: Optional[int] = None,
    collect_metrics: Optional[bool] = None,
    on_task_done=None,
    progress_every: Optional[int] = None,
    progress_hook=None,
) -> "SuiteRun":
    """Simulate a set of configurations over the same trace.

    ``jobs`` fans the (independent) policy runs across worker processes
    sharing one serialized columnar trace: ``1`` (default) runs
    serially in-process, ``N > 1`` uses N workers, ``None`` uses all
    cores (affinity-aware); anything below 1 is a ``ValueError``.
    Results are identical to a serial run in every mode.  A context
    over a chunk source runs serially only (``jobs > 1`` is refused up
    front); :func:`~repro.sim.parallel.run_sharded_replay` fans one
    policy out across a store's shards instead.

    Both modes return a :class:`~repro.sim.parallel.SuiteRun`: a
    mapping of policy name to :class:`SimulationResult` for every run
    that completed, plus ``.failures`` (structured per-policy failure
    records) and ``.manifest`` (per-task engine/wall/retries/outcome).
    A failed policy never discards the completed ones; check
    ``suite.ok`` or ``suite.failures`` when robustness matters.
    ``task_timeout`` bounds each parallel task (seconds; one retry
    before a ``"timeout"`` failure record).

    ``fault_plan`` applies the same device-fault schedule to every run;
    ``checkpoint_dir`` makes each task write crash-consistent
    checkpoints to ``<dir>/<policy>.ckpt`` every ``checkpoint_every``
    requests (resume individual tasks with
    :func:`~repro.sim.engine.resume_simulation`).  Both are recorded
    per task in the run manifest.

    ``collect_metrics`` gathers per-task metrics snapshots into
    ``SuiteRun.metrics`` and a v3 manifest (``None`` follows the
    process-wide observability switch); ``on_task_done`` receives each
    finished task's :class:`~repro.sim.parallel.TaskRecord`.  The
    per-request ``progress_every`` / ``progress_hook`` pair only
    applies to serial (``jobs=1``) execution — hooks cannot cross the
    worker process boundary; parallel runs report per task via
    ``on_task_done``.
    """
    from repro.sim.parallel import _run_suite, default_jobs

    if jobs == 1:
        task_timeout = None  # nothing times out an in-process task
    else:
        if isinstance(ctx.trace, ChunkSource) and (jobs is None or jobs > 1):
            raise ValueError(
                "a chunk-source context runs its suite serially (jobs=1); "
                "fan one policy out over its shards with run_sharded_replay"
            )
        progress_every = progress_hook = None
    return _run_suite(
        ctx, names, default_jobs() if jobs is None else jobs, task_timeout,
        checkpoint_dir, collect_metrics, on_task_done,
        track_minutes=track_minutes, fast_path=fast_path,
        fault_plan=fault_plan, epoch_seconds=epoch_seconds,
        checkpoint_every=checkpoint_every,
        progress_every=progress_every, progress_hook=progress_hook,
    )


def sievestore_d_with_threshold(
    ctx: ExperimentContext, threshold: int
) -> SimulationResult:
    """SieveStore-D at a non-default threshold (sensitivity sweeps)."""
    policy = SieveStoreD(
        SieveStoreDConfig(threshold=threshold, capacity_blocks=ctx.sieved_capacity)
    )
    result = simulate(
        _replayed(ctx), policy, ctx.sieved_capacity, ctx.days, track_minutes=False
    )
    result.policy_name = f"sievestore-d(t={threshold})"
    return result


def sievestore_d_with_epoch(
    ctx: ExperimentContext, epoch_hours: float, threshold: int = 10
) -> SimulationResult:
    """SieveStore-D with a non-daily epoch (Section 5.1 epoch sweep).

    The access-count threshold is pro-rated to the epoch length so a
    shorter epoch does not just demand the daily count inside it (the
    paper's t = 10 is 'per day').
    """
    scaled_threshold = max(1, round(threshold * epoch_hours / 24.0))
    policy = SieveStoreD(
        SieveStoreDConfig(
            threshold=scaled_threshold, capacity_blocks=ctx.sieved_capacity
        )
    )
    result = simulate(
        _replayed(ctx),
        policy,
        ctx.sieved_capacity,
        ctx.days,
        track_minutes=False,
        epoch_seconds=epoch_hours * 3600.0,
    )
    result.policy_name = f"sievestore-d(epoch={epoch_hours}h,t={scaled_threshold})"
    return result


def sievestore_c_with_window(
    ctx: ExperimentContext,
    window_hours: float,
    subwindows: int = 4,
    t1: Optional[int] = None,
    t2: Optional[int] = None,
    single_tier: bool = False,
    imct_slots: Optional[int] = None,
) -> SimulationResult:
    """SieveStore-C with custom window/thresholds (sensitivity/ablation)."""
    config = SieveStoreCConfig(
        imct_slots=imct_slots if imct_slots is not None else ctx.imct_slots,
        t1=t1 if t1 is not None else 9,
        t2=t2 if t2 is not None else 4,
        window=WindowSpec(window_seconds=window_hours * 3600, subwindows=subwindows),
        single_tier_admission=single_tier,
    )
    policy = SieveStoreC(config)
    result = simulate(
        _replayed(ctx), policy, ctx.sieved_capacity, ctx.days, track_minutes=False
    )
    label = f"sievestore-c(W={window_hours}h,t1={config.t1},t2={config.t2}"
    if single_tier:
        label += ",single-tier"
    result.policy_name = label + ")"
    return result
