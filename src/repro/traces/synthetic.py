"""Synthetic storage-ensemble workload generator.

The paper's evaluation is driven by week-long block traces of a
13-server ensemble (the MSR Cambridge traces).  Those traces are not
redistributable, so this module generates a *statistical twin*: a seeded
synthetic trace engineered to exhibit the published properties the
paper's results depend on:

O1 (popularity skew, Section 2 / Figure 2):
    * the top ~1% of blocks accessed each day account for a large,
      day-varying share of accesses (paper: 14%-53%);
    * 99% of blocks accessed in a day see 10 or fewer accesses;
    * ~97% of blocks see 4 or fewer accesses;
    * about half of all accessed blocks are accessed exactly once;
    * the per-bin access count collapses rapidly past the top 1%.

O2 (skew variation, Figure 3):
    * servers differ strongly (web proxy extremely skewed, source
      control near-linear);
    * volumes of one server differ (Web volumes 0 vs 1);
    * the same server's skew varies day to day (web staging);
    * the server composition of the ensemble top-1% varies over time.

Mechanically, each (volume, day) workload is a set of **extents**
(contiguous runs of 512-byte blocks, one per non-overlapping 16-block
slot).  An extent carries a daily access count drawn either from a
bounded low-reuse *tail* distribution (counts 1..10) or, for the ~1%
*hot* extents, from a Zipf-like head scaled so hot accesses hit a
target share of the day's traffic.  Hot extents persist across days
with partial drift, which is what makes yesterday's access counts a
useful (but imperfect) predictor — the property SieveStore-D exploits
and the day-by-day ideal sieve bounds.

Day 0 models the paper's partial first calendar day (tracing started at
5 pm): intensity is scaled by 7/24 and hot counts shrink accordingly,
reproducing the paper's observation that on day 1 only a sliver of
blocks reach 10+ accesses (which is why SieveStore-D starts weakly on
day 2).

Generation runs one day at a time in two steps.  A *draw step* per
(server, volume) makes that volume-day's random draws from its own
seeded generators, in a fixed order and sizes, computing only what sizes
a later draw.  One *assembly* per day then turns all volumes' draws into
the day's request columns with array operations over the whole day:
extent expansion, arrival times, read flags, latencies, completion times
and packed addresses, written directly in (server, volume) order.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (segments uses columnar)
    from repro.traces.segments import SegmentStore

import numpy as np

from repro.traces.columnar import ColumnarTrace
from repro.traces.model import (
    MAX_BLOCK_OFFSET,
    MAX_VOLUME_ID,
    Trace,
    _OFFSET_BITS,
    _VOLUME_BITS,
)
from repro.traces.servers import ServerProfile, VolumeProfile, paper_ensemble
from repro.util.intervals import SECONDS_PER_DAY, SECONDS_PER_MINUTE
from repro.util.units import BLOCK_BYTES, GIB

#: Blocks per extent slot; extents never cross slots, so they never overlap.
SLOT_BLOCKS = 16

#: Tail access-count distribution (counts 1..10).  Chosen so that, with
#: ~1% hot extents, the all-blocks percentiles match O1: P(count<=4)
#: ~= 0.99 * 0.98 ~= 0.97 and P(count<=10) ~= 0.99.
_TAIL_COUNTS = np.arange(1, 11)
_TAIL_PROBS = np.array(
    [0.48, 0.27, 0.14, 0.09, 0.006, 0.006, 0.003, 0.003, 0.001, 0.001]
)
assert abs(_TAIL_PROBS.sum() - 1.0) < 1e-9

#: Fraction of the first calendar day actually traced (5 pm to midnight).
DAY0_INTENSITY = 7.0 / 24.0


@dataclass(frozen=True)
class SyntheticTraceConfig:
    """Knobs for the synthetic ensemble generator.

    Attributes:
        days: number of calendar days to generate (the paper uses 8,
            with day 0 partial).
        scale: linear scale factor relative to the paper's full-size
            ensemble.  It multiplies volume capacities and the daily
            accessed footprint; 1e-4 yields a few hundred thousand
            block accesses per day, simulable in seconds.
        mean_daily_footprint_gb: mean unique bytes accessed per full day
            at scale 1.0 (paper: 685 GB/day, range 335-1190 GB).
        footprint_sigma: lognormal sigma of the day-to-day footprint.
        hot_fraction: fraction of a day's extents that belong to the hot
            (Zipf-head) class (~1% to match O1).
        hot_drift: fraction of each volume's hot set replaced per day
            (O2 drift; successive days overlap roughly 1 - hot_drift,
            and the hottest half of the set never drifts).
        partial_day0: model day 0 as the paper's partial calendar day.
        burst_minutes_per_server_day: number of random 1-minute windows
            per (server, day) with elevated arrival intensity.  Bursts
            are drawn independently per server, so cross-server
            correlated bursts are rare, as the paper observes.
        unaligned_fraction: fraction of extents that are not 4-KB
            aligned (paper: ~6% of accesses).
        seed: master RNG seed; everything downstream is deterministic.
    """

    days: int = 8
    scale: float = 1e-4
    mean_daily_footprint_gb: float = 685.0
    footprint_sigma: float = 0.30
    hot_fraction: float = 0.007
    hot_drift: float = 0.12
    partial_day0: bool = True
    burst_minutes_per_server_day: int = 2
    burst_intensity: float = 6.0
    unaligned_fraction: float = 0.06
    read_fraction_override: Optional[float] = None
    #: Fraction of hot extents in the very-hot top band (hundreds to
    #: thousands of accesses/day — Figure 2(a)'s extreme head).  The
    #: rest form a log-uniform mid band (11 to a solved maximum), which
    #: spreads hot mass evenly per count decade; the low decades of that
    #: band are where sieving wins and demand-filled LRU loses.
    hot_top_fraction: float = 0.04
    hot_top_range: Tuple[float, float] = (250.0, 4000.0)
    #: Mean accesses per hot-block arrival cluster (see
    #: _clustered_hot_times); smaller clusters mean more refaults for
    #: demand-filled caches.
    hot_cluster_mean: float = 1.9
    #: Fraction of each hot block's accesses that arrive in *isolation*
    #: (heavy-tailed inter-access gaps, as in self-similar storage
    #: traffic) rather than inside a cluster.  Isolated accesses follow
    #: gaps longer than a demand-filled cache's residency, so they miss
    #: under AOD/WMNA but still hit once a sieve has pinned the block.
    hot_isolated_fraction: float = 0.60
    #: Fraction of hot extents that are *write-hot* (logs, metadata,
    #: database pages) — overwhelmingly written, rarely read.  Traffic
    #: below a buffer cache is write-dominated, and the paper stresses
    #: that SieveStore deliberately caches write-hot blocks (Section
    #: 5.1); a write-no-allocate policy structurally cannot admit them,
    #: which is a large part of why unsieved WMNA underperforms.
    write_hot_fraction: float = 0.35
    #: Read fraction of requests to write-hot extents.
    write_hot_read_fraction: float = 0.10
    seed: int = 20100619  # ISCA'10 opening day
    servers: Tuple[ServerProfile, ...] = field(
        default_factory=lambda: tuple(paper_ensemble())
    )

    def __post_init__(self) -> None:
        if self.days <= 0:
            raise ValueError(f"days must be positive, got {self.days}")
        if not 0 < self.scale <= 1:
            raise ValueError(f"scale must be in (0, 1], got {self.scale}")
        if not 0 < self.hot_fraction < 0.5:
            raise ValueError(f"hot_fraction out of range: {self.hot_fraction}")
        if not 0 <= self.hot_drift <= 1:
            raise ValueError(f"hot_drift out of range: {self.hot_drift}")


def tiny_config(**overrides) -> SyntheticTraceConfig:
    """A fast configuration for unit tests (tens of thousands of accesses)."""
    defaults = dict(scale=1.5e-5, days=8, burst_minutes_per_server_day=1)
    defaults.update(overrides)
    return SyntheticTraceConfig(**defaults)


def small_config(**overrides) -> SyntheticTraceConfig:
    """The default benchmark configuration (a few million block accesses)."""
    defaults = dict(scale=1e-4, days=8)
    defaults.update(overrides)
    return SyntheticTraceConfig(**defaults)


@dataclass
class _VolumeHotPool:
    """Persistent per-volume hot-extent state with daily drift."""

    slots: np.ndarray  # slot indices of current hot extents, ranked hot->cold

    def drift(self, rng: np.random.Generator, total_slots: int, drift: float) -> None:
        """Replace a ``drift`` fraction of hot slots with fresh ones.

        Victims are drawn from the colder half of the ranked hot set;
        the hottest half persists day over day.  This gives
        the paper's O2 behaviour: the hot set drifts significantly with
        increasing time separation, yet successive days overlap enough
        that yesterday's access counts predict today's hot set (the
        property SieveStore-D relies on).
        """
        n = len(self.slots)
        n_replace = int(round(n * drift))
        protected = n // 2
        n_replace = min(n_replace, n - protected)
        if n_replace <= 0:
            return
        victims = protected + rng.choice(n - protected, size=n_replace, replace=False)
        occupied = set(self.slots.tolist())
        fresh = []
        while len(fresh) < n_replace:
            candidate = int(rng.integers(0, total_slots))
            if candidate not in occupied:
                occupied.add(candidate)
                fresh.append(candidate)
        self.slots = self.slots.copy()
        self.slots[victims] = fresh


@dataclass(frozen=True)
class _VolumePlan:
    """The day-invariant facts of one (server, volume)."""

    server: ServerProfile
    volume: VolumeProfile
    total_slots: int
    #: mean daily footprint in blocks (at least 1)
    mean_fp: float
    #: hot-set size at the mean footprint; 0 means no hot extent on any day
    hot_base: int
    read_fraction: float
    #: packed address of the volume's block 0
    address_base: int


class _DayDraws:
    """One day's draws for every (server, volume), in (server, volume) order.

    ``arrays[name]`` holds one array per volume that drew ``name``; the
    per-volume lists hold the sizes the day's assembly needs to line the
    concatenated draws up again.
    """

    def __init__(self) -> None:
        self.arrays: Dict[str, List[np.ndarray]] = defaultdict(list)
        self.n_hot: List[int] = []
        self.n_tail: List[int] = []
        self.n_top: List[int] = []
        self.n_sessions: List[int] = []
        self.floor_minute: List[float] = []

    def add(self, **arrays: np.ndarray) -> None:
        for name, values in arrays.items():
            self.arrays[name].append(values)

    def cat(self, name: str, dtype=np.float64) -> np.ndarray:
        """Every volume's ``name`` draws, concatenated in volume order."""
        parts = self.arrays.get(name)
        return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


def _choice_cdf(p: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice(len(p), p=p)`` samples by.

    ``cdf.searchsorted(rng.random(n), side="right")`` makes the very
    draws ``rng.choice(len(p), size=n, p=p)`` makes and leaves ``rng`` in
    the same state, without re-checking and re-summing ``p`` per call.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


#: Cumulative tail-count distribution (see :func:`_choice_cdf`).
_TAIL_CDF = _choice_cdf(_TAIL_PROBS)

#: Block lengths of non-4KB-aligned extents.
_ODD_LENGTHS = np.array([1, 3, 5, 7])

#: Mean blocks per extent (see :func:`_extent_geometry`).
_MEAN_EXTENT_BLOCKS = 9.0

_NO_INTS = np.zeros(0, dtype=np.int64)
_NO_INTS.setflags(write=False)


@functools.lru_cache(maxsize=64)
def _diurnal_profile(server_id: int) -> np.ndarray:
    """A server's (read-only) diurnal intensity sinusoid, one value a minute."""
    minutes = np.arange(1440)
    phase = (server_id * 97) % 1440
    profile = 1.0 + 0.45 * np.sin(2 * np.pi * (minutes - phase) / 1440)
    profile.setflags(write=False)
    return profile


def _starts(sizes: np.ndarray) -> np.ndarray:
    """Start offset of each run when runs of ``sizes`` lie end to end."""
    starts = np.zeros(len(sizes), dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    return starts


def _extent_geometry(
    unaligned: np.ndarray,
    length_draws: np.ndarray,
    odd_choice: np.ndarray,
    odd_offset: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-extent (offset-within-slot, block length, 4K-aligned flag).

    ~94% of extents are 4-KB aligned with lengths of 8 or 16 blocks;
    the rest start at odd in-slot offsets with short odd lengths,
    reproducing the paper's ~6% of non-4KB-aligned I/O.  The inputs are
    :meth:`EnsembleTraceGenerator._draw_geometry`'s, for any number of
    volumes laid end to end.
    """
    lengths = np.where(length_draws < 0.8, 8, 16).astype(np.int64)
    offsets = np.zeros(len(lengths), dtype=np.int64)
    lengths[unaligned] = _ODD_LENGTHS[odd_choice]
    offsets[unaligned] = odd_offset
    return offsets, lengths, ~unaligned


class EnsembleTraceGenerator:
    """Generates the synthetic ensemble trace described in the module docs.

    Usage::

        gen = EnsembleTraceGenerator(SyntheticTraceConfig(scale=1e-4))
        trace = gen.generate()            # full chronological ensemble trace
        columns = gen.generate_columnar() # same trace as parallel arrays

    The generator produces columns natively, one trace day at a time: a
    draw step per (server, volume) makes that volume-day's seeded random
    draws, and one assembly turns the whole day's draws into the day's
    columns, in (server, volume) order, then sorts the day by issue
    time.  Every output -- the whole trace, the day stream, a segment
    store, the object form -- is those sorted days, so every view
    describes bit-for-bit the same requests.
    """

    def __init__(self, config: SyntheticTraceConfig):
        self.config = config
        self._hot_pools: Dict[Tuple[int, int], _VolumeHotPool] = {}
        self._trace: Optional[Trace] = None
        self._columnar: Optional[ColumnarTrace] = None
        self._consumed = False

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def generate(self) -> Trace:
        """Generate (and cache) the full ensemble trace (object form)."""
        if self._trace is None:
            self._trace = self.generate_columnar().to_trace()
        return self._trace

    def generate_columnar(self) -> ColumnarTrace:
        """Generate (and cache) the full ensemble trace as columns: the
        days of :meth:`iter_day_columnar`, concatenated."""
        if self._columnar is None:
            days = [columns for _, columns in self.iter_day_columnar()]
            self._columnar = ColumnarTrace.concatenate(
                days, description=self._description()
            )
        return self._columnar

    def iter_day_columnar(self) -> "Iterator[Tuple[int, ColumnarTrace]]":
        """Yield ``(day, columns)`` per trace day without holding the week.

        Each day is stable-sorted by issue time, so simultaneous
        requests keep their (server, volume) order.  Per-day issue times
        are strictly inside their day, so the days concatenated in order
        are the whole trace, issue-ordered.

        Generation is stateful (hot pools drift day over day), so a
        generator instance can run either this or the whole-trace path,
        once; a second generation attempt raises ``RuntimeError``.
        """
        plans = self._consume()
        day_footprints = self._daily_footprint_blocks()
        for day in range(self.config.days):
            yield day, self._day_columns(plans, day, day_footprints).sorted_by_issue()

    def generate_segments(
        self,
        directory: "Union[str, Path]",
        rows_per_segment: Optional[int] = None,
        config_fingerprint: Optional[str] = None,
    ) -> "SegmentStore":
        """Generate straight into an on-disk segment store, day by day.

        Appends each day's (sorted) requests as one or more bounded
        segments as soon as the day is generated — peak memory is one
        day of one trace, not the week — and finalizes the manifest.
        The resulting store streams the identical rows
        :meth:`generate_columnar` would return.
        """
        from repro.traces.segments import SegmentWriter

        writer = SegmentWriter(
            directory,
            description=self._description(),
            config_fingerprint=config_fingerprint,
        )
        for _, day_columns in self.iter_day_columnar():
            writer.append(day_columns, max_rows=rows_per_segment)
        return writer.finalize()

    # ------------------------------------------------------------------
    # generation internals
    # ------------------------------------------------------------------
    def _description(self) -> str:
        cfg = self.config
        return (
            f"synthetic ensemble: {len(cfg.servers)} servers, {cfg.days} days, "
            f"scale={cfg.scale:g}, seed={cfg.seed}"
        )

    def _consume(self) -> List[_VolumePlan]:
        """Claim this instance's one generation; the volumes' plans.

        Generation is stateful (the hot pools drift sequentially day
        over day), so it must not run twice on one instance.
        """
        if self._consumed:
            raise RuntimeError(
                "generator already consumed (hot-pool drift is stateful); "
                "create a fresh EnsembleTraceGenerator"
            )
        self._consumed = True
        cfg = self.config
        mean_blocks = cfg.mean_daily_footprint_gb * GIB / BLOCK_BYTES * cfg.scale
        plans = []
        for server in cfg.servers:
            server_mean = mean_blocks * server.activity_share
            for volume in server.volumes:
                if not 0 <= volume.volume_id <= MAX_VOLUME_ID:
                    raise ValueError(f"volume_id out of range: {volume.volume_id}")
                volume_blocks = max(
                    SLOT_BLOCKS * 64, int(volume.size_gb * GIB / BLOCK_BYTES * cfg.scale)
                )
                mean_fp = max(server_mean * volume.access_share, 1.0)
                # The hot-set size tracks the geometric mean of the day's
                # and the volume's mean footprint: stable enough across
                # days that yesterday's counts predict today's hot set
                # (O2 / SieveStore-D's premise), yet scaling with the
                # day's traffic so the hot band stays below the top
                # percentile on light days.  Probabilistic rounding keeps
                # the expected hot fraction right even when a volume-day
                # has under one hot extent; deterministic max(1, ...)
                # would inflate the hot share badly at small scales.  The
                # fractional part of the *mean* target is resolved once
                # per volume (so a small volume's hot-set size never
                # flips between 0 and 1 across days — that would look
                # like spurious hot-set churn); _draw_volume scales it
                # mildly by each day's footprint.
                mean_target = (mean_fp / _MEAN_EXTENT_BLOCKS) * cfg.hot_fraction
                round_rng = np.random.default_rng(
                    cfg.seed ^ (server.server_id << 10) ^ volume.volume_id ^ 0x407
                )
                hot_base = int(mean_target) + (
                    1 if round_rng.random() < mean_target % 1.0 else 0
                )
                plans.append(
                    _VolumePlan(
                        server=server,
                        volume=volume,
                        total_slots=volume_blocks // SLOT_BLOCKS,
                        mean_fp=mean_fp,
                        hot_base=hot_base,
                        read_fraction=(
                            cfg.read_fraction_override
                            if cfg.read_fraction_override is not None
                            else server.read_fraction
                        ),
                        address_base=(
                            (server.server_id << (_VOLUME_BITS + _OFFSET_BITS))
                            | (volume.volume_id << _OFFSET_BITS)
                        ),
                    )
                )
        return plans

    def _day_columns(
        self, plans: List[_VolumePlan], day: int, day_footprints: List[float]
    ) -> ColumnarTrace:
        """One day's requests in (server, volume) order, not yet sorted.

        Must be called with strictly increasing ``day`` values on one
        instance: the hot pools drift sequentially.
        """
        draws = _DayDraws()
        day_factor = self._hot_share_day_factor(day)
        plan_iter = iter(plans)
        for server in self.config.servers:
            server_footprint = day_footprints[day] * server.activity_share
            minute_weights = self._minute_weights(server, day)
            minute_cdf = _choice_cdf(minute_weights)
            # Partial day 0: keep clustered and session arrivals inside
            # the traced window.
            floor_minute = 0.0
            if minute_weights[: 1440 // 2].sum() == 0.0:
                floor_minute = float(np.argmax(minute_weights > 0))
            for _ in server.volumes:
                plan = next(plan_iter)
                self._draw_volume(
                    draws,
                    plan,
                    day,
                    footprint_blocks=server_footprint * plan.volume.access_share,
                    day_factor=day_factor,
                    minute_cdf=minute_cdf,
                )
                draws.floor_minute.append(floor_minute)
        return self._assemble_day(plans, draws, day)

    def _daily_footprint_blocks(self) -> List[float]:
        """Unique blocks accessed per day for the whole ensemble."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed ^ 0xF00D)
        mean_blocks = cfg.mean_daily_footprint_gb * GIB / BLOCK_BYTES * cfg.scale
        footprints = []
        for day in range(cfg.days):
            factor = float(
                np.exp(rng.normal(-0.5 * cfg.footprint_sigma**2, cfg.footprint_sigma))
            )
            blocks = mean_blocks * factor
            if day == 0 and cfg.partial_day0:
                blocks *= DAY0_INTENSITY
            footprints.append(blocks)
        return footprints

    def _hot_share_day_factor(self, day: int) -> float:
        """Ensemble-wide daily modulation of the hot-access share.

        Widens the day-to-day spread of the top-1% access share toward
        the paper's observed 14%-53% range.
        """
        rng = np.random.default_rng(self.config.seed ^ (0xDA << 8) ^ day)
        return float(rng.uniform(0.6, 1.3))

    def _effective_skew(
        self, server: ServerProfile, volume: VolumeProfile, day: int
    ) -> float:
        """Per-(server, volume, day) skew with the server's daily wobble."""
        rng = np.random.default_rng(
            self.config.seed ^ (server.server_id << 16) ^ (volume.volume_id << 8) ^ day
        )
        wobble = float(np.exp(rng.normal(0.0, server.daily_wobble)))
        return server.skew * volume.skew_scale * wobble

    @staticmethod
    def _hot_access_share(effective_skew: float, day_factor: float) -> float:
        """Map effective skew onto the hot extents' share of accesses.

        Calibrated so the ensemble-weighted mean lands near the paper's
        ~35% average ideal-sieve capture, the web proxy (skew 1.6) is
        nearly all-hot, and source control (skew 0.15) is near-linear.
        """
        share = 0.44 * effective_skew**1.4 * day_factor
        return float(np.clip(share, 0.01, 0.93))

    def _minute_weights(self, server: ServerProfile, day: int) -> np.ndarray:
        """Arrival-intensity weights for each minute of one server-day.

        Diurnal sinusoid (server-specific phase) plus a few independent
        1-minute bursts.  Day 0 only covers the final 7 hours.
        """
        cfg = self.config
        rng = np.random.default_rng(
            cfg.seed ^ (server.server_id << 20) ^ (day << 4) ^ 0xB0
        )
        weights = _diurnal_profile(server.server_id).copy()
        for _ in range(cfg.burst_minutes_per_server_day):
            weights[int(rng.integers(0, 1440))] *= cfg.burst_intensity
        if day == 0 and cfg.partial_day0:
            weights[: 1440 - int(1440 * DAY0_INTENSITY)] = 0.0
        total = weights.sum()
        if total <= 0:
            raise AssertionError("minute weights must have positive mass")
        return weights / total

    def _hot_pool(
        self,
        server: ServerProfile,
        volume: VolumeProfile,
        day: int,
        n_hot: int,
        total_slots: int,
    ) -> np.ndarray:
        """Current hot slots for a volume, applying daily drift."""
        key = (server.server_id, volume.volume_id)
        rng = np.random.default_rng(
            self.config.seed
            ^ (server.server_id << 12)
            ^ (volume.volume_id << 6)
            ^ (day << 1)
            ^ 0x5EED
        )
        pool = self._hot_pools.get(key)
        if pool is None:
            slots = rng.choice(total_slots, size=max(n_hot, 1), replace=False)
            pool = _VolumeHotPool(slots=np.asarray(slots))
            self._hot_pools[key] = pool
        else:
            pool.drift(rng, total_slots, self.config.hot_drift)
        # Resize the pool if today's hot-set size differs from yesterday's.
        current = len(pool.slots)
        if n_hot > current:
            occupied = set(pool.slots.tolist())
            extra = []
            while len(extra) < n_hot - current:
                candidate = int(rng.integers(0, total_slots))
                if candidate not in occupied:
                    occupied.add(candidate)
                    extra.append(candidate)
            pool.slots = np.concatenate([pool.slots, np.asarray(extra, dtype=pool.slots.dtype)])
        return pool.slots[:n_hot]

    def _draw_volume(
        self,
        draws: _DayDraws,
        plan: _VolumePlan,
        day: int,
        footprint_blocks: float,
        day_factor: float,
        minute_cdf: np.ndarray,
    ) -> None:
        """Make one (server, volume, day)'s random draws into ``draws``.

        The draws come from the volume-day's own seeded generators, in a
        fixed order and sizes; beyond them this computes only what sizes
        a later draw (the access counts, the hot extents' cluster counts,
        how many extents are unaligned, isolated or single-access).
        :meth:`_assemble_day` does everything else, for all volumes of
        the day at once.
        """
        cfg = self.config
        server, volume = plan.server, plan.volume
        rng = np.random.default_rng(
            cfg.seed ^ (server.server_id << 24) ^ (volume.volume_id << 16) ^ (day << 2)
        )
        n_extents = max(4, int(footprint_blocks / _MEAN_EXTENT_BLOCKS))
        n_extents = min(n_extents, max(4, int(plan.total_slots * 0.5)))
        day_ratio = (max(footprint_blocks, 1.0) / plan.mean_fp) ** 0.3
        n_hot = int(round(plan.hot_base * day_ratio))
        if plan.hot_base > 0:
            n_hot = max(n_hot, 1)
        n_hot = min(n_hot, n_extents - 1)
        n_tail = n_extents - n_hot

        # --- access counts -------------------------------------------------
        tail_counts = _TAIL_COUNTS[_TAIL_CDF.searchsorted(rng.random(n_tail), side="right")]
        tail_accesses = int(tail_counts.sum())
        n_single = int(np.count_nonzero(tail_counts == 1))
        hot_counts, n_top, hot_slots = _NO_INTS, 0, _NO_INTS
        if n_hot:
            # n_hot is 0 on every day of a volume or on none, so a volume
            # without hot extents never needs its skew or hot pool.
            skew = self._effective_skew(server, volume, day)
            hot_share = self._hot_access_share(skew, day_factor)
            hot_accesses = int(tail_accesses * hot_share / (1.0 - hot_share))
            hot_counts, n_top = self._zipf_head_counts(rng, n_hot, hot_accesses, skew)
            if day == 0 and cfg.partial_day0:
                # Partial day: hot blocks see proportionally fewer
                # accesses, so very few cross SieveStore-D's threshold
                # (paper Section 5.1).
                hot_counts = np.maximum((hot_counts * DAY0_INTENSITY).astype(np.int64), 2)
            hot_slots = self._hot_pool(server, volume, day, n_hot, plan.total_slots)

        # --- extent placement ---------------------------------------------
        tail_slots = self._sample_tail_slots(rng, plan.total_slots, n_tail, hot_slots)
        unaligned, length_draws, odd_choice, odd_offset = self._draw_geometry(
            rng, n_extents
        )
        draws.add(
            counts=hot_counts,
            slots=hot_slots,
            unaligned=unaligned,
            length_draws=length_draws,
            odd_choice=odd_choice,
            odd_offset=odd_offset,
        )
        draws.add(counts=tail_counts, slots=tail_slots)

        # --- arrival times (see _assemble_day) ------------------------------
        n_hot_req = int(hot_counts.sum())
        if n_hot_req:
            spread = cfg.hot_cluster_mean * 0.4
            mean_cluster = rng.uniform(
                cfg.hot_cluster_mean - spread, cfg.hot_cluster_mean + spread, size=n_hot
            )
            clusters = np.maximum(
                1, np.round(hot_counts * (1.0 - cfg.hot_isolated_fraction) / mean_cluster)
            ).astype(np.int64)
            centers = minute_cdf.searchsorted(rng.random(int(clusters.sum())), side="right")
            pick = rng.random(n_hot_req)
            jitter = rng.normal(0.0, 3.0, size=n_hot_req)
            isolated = rng.random(n_hot_req) < cfg.hot_isolated_fraction
            n_isolated = int(np.count_nonzero(isolated))
            if n_isolated:
                draws.add(
                    isolated_minute=minute_cdf.searchsorted(
                        rng.random(n_isolated), side="right"
                    )
                )
            draws.add(
                clusters=clusters,
                cluster_minute=centers,
                cluster_pick=pick,
                cluster_jitter=jitter,
                isolated=isolated,
                hot_second=rng.uniform(0, SECONDS_PER_MINUTE, size=n_hot_req),
            )
        n_spread = tail_accesses - n_single
        if n_spread:
            draws.add(
                phase=rng.random(n_extents),
                spread_jitter=rng.uniform(-0.3, 0.3, size=n_spread),
            )
        else:
            draws.add(phase=np.zeros(n_extents))  # keeps phases extent-aligned
        n_sessions = 0
        if n_single:
            n_sessions = max(3, n_single // 400)
            draws.add(
                session_minute=minute_cdf.searchsorted(
                    rng.random(n_sessions), side="right"
                ),
                session_width=rng.uniform(10.0, 30.0, size=n_sessions),
                session_of=rng.integers(0, n_sessions, size=n_single),
                session_offset=rng.uniform(-0.5, 0.5, size=n_single),
                session_second=rng.uniform(0, 60.0, size=n_single),
            )

        # --- request kinds and service times --------------------------------
        if n_hot and cfg.write_hot_fraction > 0:
            draws.add(write_hot=rng.random(n_hot))
        n_requests = n_hot_req + tail_accesses
        draws.add(
            read=rng.random(n_requests),
            latency=rng.exponential(0.003, size=n_requests),
        )
        draws.n_hot.append(n_hot)
        draws.n_tail.append(n_tail)
        draws.n_top.append(n_top)
        draws.n_sessions.append(n_sessions)

    def _assemble_day(
        self, plans: List[_VolumePlan], draws: _DayDraws, day: int
    ) -> ColumnarTrace:
        """Turn one day's draws into its request columns, all volumes at once.

        Each volume's extents are its hot extents (ranked hot -> cold)
        then its tail extents; an extent's requests are consecutive rows,
        and volumes follow each other in (server, volume) order.  Every
        expression is the per-volume one applied to the concatenated
        draws, so the columns are the same bytes volume by volume.
        """
        cfg = self.config
        cat = draws.cat
        n_hot = np.asarray(draws.n_hot, dtype=np.int64)
        n_extents = n_hot + np.asarray(draws.n_tail, dtype=np.int64)
        volume_of = np.repeat(np.arange(len(plans)), n_extents)
        rank = np.arange(len(volume_of)) - _starts(n_extents)[volume_of]
        is_hot = rank < n_hot[volume_of]
        counts = cat("counts", np.int64)
        hot_counts = counts[is_hot]
        extent_idx = np.repeat(np.arange(len(counts)), counts)
        n_requests = len(extent_idx)

        # Three arrival patterns, matching how block traffic below a
        # buffer cache actually behaves:
        #   * hot extents: accessed throughout the (diurnal) day;
        #   * multi-access tail extents: their few accesses are spread
        #     hours apart — too far for any demand-filled cache to hold
        #     them between touches;
        #   * single-access tail extents: arrive in scan *sessions*
        #     (backups, sweeps) tens of minutes wide, flooding an
        #     unsieved LRU cache with junk and evicting its hot set.
        # The sessions plus the spread-out tail reuse are what make the
        # unsieved baselines lose: a sieve never admits the junk, so its
        # resident hot set survives every burst.
        hot_req = is_hot[extent_idx]
        burst_req = ((counts == 1) & ~is_hot)[extent_idx]
        spread_req = ~hot_req & ~burst_req
        floor_minute = None
        if any(draws.floor_minute):
            floor_minute = np.asarray(draws.floor_minute)[volume_of[extent_idx]]
        times = np.empty(n_requests)
        if len(hot_counts):
            times[hot_req] = self._clustered_hot_times(
                draws,
                hot_counts,
                None if floor_minute is None else floor_minute[hot_req],
            )
        n_spread = int(np.count_nonzero(spread_req))
        if n_spread:
            # Multi-access tail extents: touches *stratified* around the
            # clock (periodic re-reads, cron-style activity), so every
            # re-access gap is hours — far beyond any demand-filled
            # cache's residency.
            spread_extent = extent_idx[spread_req]
            occurrence = np.flatnonzero(spread_req) - _starts(counts)[spread_extent]
            span = SECONDS_PER_DAY
            start = 0.0
            if day == 0 and cfg.partial_day0:
                span = SECONDS_PER_DAY * DAY0_INTENSITY
                start = SECONDS_PER_DAY - span
            c_req = counts[spread_extent].astype(float)
            slot_pos = (
                occurrence + cat("phase")[spread_extent] + cat("spread_jitter")
            ) % c_req
            times[spread_req] = start + slot_pos / c_req * span
        if burst_req.any():
            times[burst_req] = self._session_times(
                draws,
                volume_of[extent_idx[burst_req]],
                None if floor_minute is None else floor_minute[burst_req],
            )
        times += day * SECONDS_PER_DAY

        # Per-extent read probability: most extents follow the server's
        # read fraction, but a slice of the hot set is write-hot.
        read_fraction = np.array([plan.read_fraction for plan in plans])
        extent_read_p = read_fraction[volume_of]
        if len(hot_counts) and cfg.write_hot_fraction > 0:
            # Write-hot extents come from the modest-count part of the
            # hot band only: logs and metadata are written tens of times
            # a day, while the mega-hot blocks are read-dominated.
            # Keeping the heavy hitters read-mostly also keeps the SSD's
            # daily write volume within the paper's ~500M-blocks/day
            # envelope (Section 5.1).
            n_top = np.asarray(draws.n_top, dtype=np.int64)
            write_hot = cat("write_hot") < cfg.write_hot_fraction
            write_hot &= rank[is_hot] >= n_top[volume_of[is_hot]]
            write_hot &= hot_counts <= 120
            extent_read_p[np.flatnonzero(is_hot)[write_hot]] = cfg.write_hot_read_fraction
        is_read = cat("read") < extent_read_p[extent_idx]
        latency = 0.005 + cat("latency")

        # Column assembly.  The completion-time expression keeps the
        # same left-to-right float association the scalar reference used
        # (``(issue + latency) + transfer``), so the columnar and object
        # pipelines agree bit for bit.
        offsets, lengths, aligned = _extent_geometry(
            cat("unaligned", np.bool_),
            cat("length_draws"),
            cat("odd_choice", np.int64),
            cat("odd_offset", np.int64),
        )
        block_offset = cat("slots", np.int64) * SLOT_BLOCKS + offsets
        if len(block_offset) and int(block_offset.max()) > MAX_BLOCK_OFFSET:
            raise ValueError("block offset exceeds packed-address capacity")
        address_base = np.array([plan.address_base for plan in plans], dtype=np.int64)
        lengths_req = lengths[extent_idx]
        completion = times + latency + lengths_req * BLOCK_BYTES / 80e6
        return ColumnarTrace(
            issue_time=times,
            completion_time=completion,
            address=(address_base[volume_of] + block_offset)[extent_idx],
            block_count=lengths_req,
            is_write=~is_read,
            aligned_4k=aligned[extent_idx],
            description=f"synthetic ensemble day {day}",
        )

    def _clustered_hot_times(
        self,
        draws: _DayDraws,
        hot_counts: np.ndarray,
        floor_minute: Optional[np.ndarray],
    ) -> np.ndarray:
        """Second-of-day timestamps for hot-extent requests.

        Hot-block traffic below a buffer cache arrives in short
        *clusters* (read-modify-write pairs, bursts of related requests)
        separated by long silences.  Each hot extent's daily accesses
        are split into clusters of ~2-4; cluster centers follow the
        diurnal profile, accesses fall within a few minutes of their
        center.  The long inter-cluster silences are what defeats
        demand-filled LRU caching (the block is evicted between
        clusters and refaults on every return) while leaving sieved
        caches untouched (once admitted, the block stays resident and
        every later cluster hits).  A share of the accesses arrive
        *isolated* instead, at a minute drawn independently from the
        diurnal profile: gaps far beyond any demand-filled cache's
        residency.

        ``hot_counts`` are the day's hot extents' counts, volume after
        volume; rows come out in the same order.
        """
        cat = draws.cat
        clusters = cat("clusters", np.int64)
        hot_extent = np.repeat(np.arange(len(hot_counts)), hot_counts)
        # A uniformly random cluster of the owning extent per access.
        pick = (cat("cluster_pick") * clusters[hot_extent]).astype(np.int64)
        cluster_id = _starts(clusters)[hot_extent] + pick
        minutes = np.clip(
            cat("cluster_minute", np.int64).astype(float)[cluster_id]
            + cat("cluster_jitter"),
            0.0,
            1439.0,
        )
        minutes[cat("isolated", np.bool_)] = cat("isolated_minute", np.int64).astype(float)
        if floor_minute is not None:
            minutes = np.maximum(minutes, floor_minute)
        return minutes * SECONDS_PER_MINUTE + cat("hot_second")

    def _session_times(
        self,
        draws: _DayDraws,
        volume_of_row: np.ndarray,
        floor_minute: Optional[np.ndarray],
    ) -> np.ndarray:
        """Second-of-day timestamps for single-access tail requests.

        Tail extents are partitioned into scan sessions; every access of
        an extent lands inside its session's window, so all the reuse a
        low-count block has is confined to one burst (as it would be for
        a scan re-reading a region).  Session centers follow the same
        diurnal weights as hot traffic.  ``volume_of_row`` maps each row
        to its volume, whose sessions are its own.
        """
        cat = draws.cat
        session_base = _starts(np.asarray(draws.n_sessions, dtype=np.int64))
        session = cat("session_of", np.int64) + session_base[volume_of_row]
        offsets = cat("session_offset") * cat("session_width")[session]
        minutes = np.clip(
            cat("session_minute", np.int64).astype(float)[session] + offsets, 0.0, 1439.0
        )
        if floor_minute is not None:
            minutes = np.maximum(minutes, floor_minute)
        return minutes * SECONDS_PER_MINUTE + cat("session_second")

    def _zipf_head_counts(
        self, rng: np.random.Generator, n_hot: int, hot_accesses: int, skew: float
    ) -> np.ndarray:
        """Distribute ``hot_accesses`` over ``n_hot`` extents, power-law style.

        Counts are i.i.d. truncated-Pareto draws with minimum 11 (hot
        blocks sit strictly above the tail's 10-access ceiling, matching
        Figure 2(a)'s cliff at the top percentile) and a tail index
        chosen so the draws' mean matches ``hot_accesses / n_hot``.
        Sampling i.i.d. — rather than assigning rank-based Zipf weights
        within the volume — keeps the *ensemble* head distribution
        scale-free even when a scaled-down volume has only a couple of
        hot extents.  A tail index near 1 spreads hot mass roughly
        evenly per count decade (10s to 1000s of accesses/day), which is
        what the paper's Figure 2(a) slope implies and what places a
        substantial mass share below the LRU-retention cutoff where only
        sieving captures it.

        The draws are sorted descending so rank 0 is the hottest extent
        (the hot-pool drift protects low ranks).  Returns
        ``(counts, n_top)`` where ``n_top`` is the number of top-band
        extents (always the leading ranks after sorting).
        """
        if n_hot <= 0:
            return np.zeros(0, dtype=np.int64), 0
        cfg = self.config
        floor = 11.0
        target_mean = max(hot_accesses / n_hot, floor * 1.1)
        top_lo, top_hi = cfg.hot_top_range
        top_mean = (top_hi - top_lo) / math.log(top_hi / top_lo)
        # Choose the top-band population so the mixture mean hits the
        # target; small volumes may not afford any top-band extent.
        top_fraction = cfg.hot_top_fraction
        if target_mean < floor * 1.2 + top_fraction * top_mean:
            top_fraction = max(0.0, (target_mean - floor * 1.2) / top_mean)
        # Probabilistic rounding: a volume with 3 hot extents and a 4%
        # top fraction still fields a top-band extent 12% of the time,
        # keeping the *expected* ensemble mixture right at every scale.
        raw = n_hot * top_fraction
        n_top = int(raw) + (1 if rng.random() < raw % 1.0 else 0)
        mid_target = (target_mean * n_hot - n_top * top_mean) / max(n_hot - n_top, 1)
        mid_target = max(mid_target, floor * 1.05)
        mid_hi = self._solve_pareto1_max(mid_target, floor)
        counts = np.empty(n_hot, dtype=np.int64)
        if n_top:
            counts[:n_top] = np.round(
                np.exp(rng.uniform(math.log(top_lo), math.log(top_hi), size=n_top))
            )
        if n_hot - n_top:
            # Truncated Pareto(index 1): density ~ x^-2 on [floor, M], so
            # access *mass* spreads evenly per count decade.
            u = rng.random(n_hot - n_top)
            counts[n_top:] = np.round(floor / (1.0 - u * (1.0 - floor / mid_hi)))
        counts = np.maximum(counts, int(floor))
        counts[::-1].sort()  # descending: rank 0 is hottest
        return counts, n_top

    @staticmethod
    def _solve_pareto1_max(target_mean: float, floor: float) -> float:
        """Upper truncation M of a Pareto(1) with the given mean.

        For density ~ x^-2 on [floor, M] the mean is
        ``floor * ln(M/floor) / (1 - floor/M)``, monotone in M; bisect.
        """

        def mean(m: float) -> float:
            return floor * math.log(m / floor) / (1.0 - floor / m)

        lo, hi = floor * 1.02, floor * 1e7
        if target_mean <= mean(lo):
            return lo
        if target_mean >= mean(hi):
            return hi
        for _ in range(80):
            mid = math.sqrt(lo * hi)
            if mean(mid) < target_mean:
                lo = mid
            else:
                hi = mid
        return math.sqrt(lo * hi)

    @staticmethod
    def _sample_tail_slots(
        rng: np.random.Generator, total_slots: int, n_tail: int, excluded: np.ndarray
    ) -> np.ndarray:
        """Sample ``n_tail`` distinct tail slots avoiding ``excluded`` (the hot set).

        Oversample and deduplicate; footprints are sparse relative to the
        slot grid so a couple of rounds always suffice.  A round keeps,
        in draw order, the first occurrence of each candidate not taken
        yet, up to what is still needed: the very candidates a
        one-at-a-time scan of the round would accept.  One stable sort
        of the taken slots followed by the round finds them: a candidate
        is kept iff no equal value precedes it.
        """
        chosen = _NO_INTS
        while len(chosen) < n_tail:
            need = n_tail - len(chosen)
            candidates = rng.integers(0, total_slots, size=max(need * 2, 16))
            pool = np.concatenate([excluded, chosen, candidates])
            order = pool.argsort(kind="stable")
            ordered = pool[order]
            first = np.empty(len(pool), dtype=np.bool_)
            first[0] = True
            np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
            is_first = np.empty_like(first)
            is_first[order] = first
            fresh = candidates[is_first[len(pool) - len(candidates):]]
            chosen = np.concatenate([chosen, fresh[:need]])
        return chosen

    def _draw_geometry(
        self, rng: np.random.Generator, n_extents: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Draw ``n_extents`` extents' geometry for :func:`_extent_geometry`.

        Returns the unaligned mask, the 8-or-16 length draws, and for
        the unaligned extents only, the odd-length choice (an index into
        ``_ODD_LENGTHS``) and the in-slot offset.
        """
        unaligned = rng.random(n_extents) < self.config.unaligned_fraction
        length_draws = rng.random(n_extents)
        n_unaligned = int(np.count_nonzero(unaligned))
        if not n_unaligned:
            return unaligned, length_draws, _NO_INTS, _NO_INTS
        odd_choice = rng.integers(0, len(_ODD_LENGTHS), size=n_unaligned)
        return unaligned, length_draws, odd_choice, rng.integers(1, 8, size=n_unaligned)


def generate_ensemble_trace(config: Optional[SyntheticTraceConfig] = None) -> Trace:
    """Convenience wrapper: generate the full ensemble trace."""
    return EnsembleTraceGenerator(config or SyntheticTraceConfig()).generate()
