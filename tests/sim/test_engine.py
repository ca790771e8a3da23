"""Trace-driven simulation engine."""

import warnings

import numpy as np
import pytest

from repro.cache.allocation import AllocateOnDemand, NeverAllocate, StaticSet
from repro.cache.write_policy import WriteMode
from repro.core import SieveStoreC
from repro.core.sievestore_d import SieveStoreD, SieveStoreDConfig
from repro.faults.plan import FaultPlan, OutageWindow
from repro.sim.engine import resume_simulation, simulate, total_epoch_count
from repro.traces.columnar import ColumnarTrace
from repro.traces.model import IOKind, IORequest
from repro.util.intervals import SECONDS_PER_DAY
from tests.oracle import columns_of


def req(day, offset_s, block_offset=0, blocks=2, kind=IOKind.READ):
    issue = day * SECONDS_PER_DAY + offset_s
    return IORequest(
        issue_time=issue,
        completion_time=issue + 0.01,
        server_id=0,
        volume_id=0,
        block_offset=block_offset,
        block_count=blocks,
        kind=kind,
    )


class TestBasicRuns:
    def test_aod_counts(self):
        trace = columns_of([req(0, 1.0), req(0, 2.0)])
        result = simulate(trace, AllocateOnDemand(), 16, days=1)
        total = result.stats.total
        assert total.accesses == 4
        assert total.hits == 2
        assert total.allocation_writes == 2

    def test_never_allocate_never_hits(self):
        trace = columns_of([req(0, 1.0), req(0, 2.0)])
        result = simulate(trace, NeverAllocate(), 16, days=1)
        assert result.stats.total.hits == 0
        assert result.stats.total.allocation_writes == 0

    def test_consistency_always_checked(self):
        trace = columns_of([req(0, 1.0)])
        result = simulate(trace, AllocateOnDemand(), 16, days=1)
        result.stats.check_consistency()

    def test_wall_time_recorded(self):
        trace = columns_of([req(0, 1.0)])
        assert simulate(trace, AllocateOnDemand(), 4, days=1).wall_seconds >= 0


class TestEpochBoundaries:
    def test_static_set_installed_before_first_request(self):
        trace = columns_of([req(0, 1.0)])
        result = simulate(trace, StaticSet({0, 1}), 16, days=1)
        assert result.stats.total.hits == 2

    def test_discrete_policy_sees_every_boundary(self):
        policy = SieveStoreD(SieveStoreDConfig(threshold=0))
        trace = columns_of([req(0, 1.0), req(2, 1.0)])  # day 1 idle
        simulate(trace, policy, 16, days=3)
        assert policy.epochs_completed == 3

    def test_boundaries_fire_even_after_last_request(self):
        policy = SieveStoreD()
        trace = columns_of([req(0, 1.0)])
        simulate(trace, policy, 16, days=4)
        assert policy.epochs_completed == 4

    def test_sievestore_d_hits_on_following_day(self):
        blocks = 2
        requests = [req(0, float(i), blocks=blocks) for i in range(11)]
        requests += [req(1, 1.0, blocks=blocks)]
        policy = SieveStoreD(SieveStoreDConfig(threshold=10, capacity_blocks=16))
        result = simulate(columns_of(requests), policy, 16, days=2)
        assert result.stats.per_day[0].hits == 0
        assert result.stats.per_day[1].hits == blocks


class TestCustomEpochs:
    def test_shorter_epochs_fire_more_boundaries(self):
        policy = SieveStoreD(SieveStoreDConfig(threshold=0))
        trace = columns_of([req(0, 1.0)])
        simulate(trace, policy, 16, days=1, epoch_seconds=6 * 3600.0)
        assert policy.epochs_completed == 4

    def test_half_day_epoch_allocates_mid_day(self):
        # 11 touches in the morning; the noon boundary installs the
        # block; the afternoon touch hits.
        requests = [req(0, float(i), blocks=1) for i in range(11)]
        requests.append(req(0, 13 * 3600.0, blocks=1))
        policy = SieveStoreD(SieveStoreDConfig(threshold=10, capacity_blocks=16))
        result = simulate(
            columns_of(requests), policy, 16, days=1, epoch_seconds=12 * 3600.0
        )
        assert result.stats.per_day[0].hits == 1

    def test_rejects_bad_epoch(self):
        with pytest.raises(ValueError):
            simulate(columns_of([]), AllocateOnDemand(), 4, days=1, epoch_seconds=0)

    @pytest.mark.parametrize("fast", [False, True])
    def test_rejects_bad_chunk_budget(self, fast):
        with pytest.raises(ValueError, match="chunk_rows must be positive"):
            simulate(columns_of([req(0, 1.0)]), AllocateOnDemand(), 4, days=1,
                     fast_path=fast, chunk_rows=0)

    def test_default_epoch_is_one_day(self):
        policy = SieveStoreD()
        simulate(columns_of([req(0, 1.0)]), policy, 16, days=2)
        assert policy.epochs_completed == 2


class TestProgressCadence:
    """``progress_every`` is checked at entry, like ``checkpoint_every``:
    a bad cadence used to surface mid-replay (modulo by zero, a ``None``
    hook called after N requests) or fire on a schedule nobody asked for."""

    BAD = [
        pytest.param({"progress_every": 0, "progress_hook": print},
                     "must be positive", id="zero"),
        pytest.param({"progress_every": -5, "progress_hook": print},
                     "must be positive", id="negative"),
        pytest.param({"progress_every": 10}, "needs a progress_hook",
                     id="no-hook"),
    ]

    @pytest.mark.parametrize("fast", [False, True], ids=["object", "fast"])
    @pytest.mark.parametrize(("kwargs", "message"), BAD)
    def test_simulate_rejects_bad_cadence(self, fast, kwargs, message):
        trace = columns_of([req(0, float(i)) for i in range(20)])
        with pytest.raises(ValueError, match=message):
            simulate(trace, AllocateOnDemand(), 16, days=1, fast_path=fast,
                     **kwargs)

    @pytest.mark.parametrize("fast", [False, True], ids=["object", "fast"])
    @pytest.mark.parametrize(("kwargs", "message"), BAD)
    def test_resume_rejects_bad_cadence(self, tmp_path, fast, kwargs, message):
        trace = columns_of([req(0, float(i)) for i in range(20)])
        path = tmp_path / "run.ckpt"
        simulate(trace, AllocateOnDemand(), 16, days=1, fast_path=fast,
                 checkpoint_path=path, checkpoint_every=7)
        with pytest.raises(ValueError, match=message):
            resume_simulation(path, trace, **kwargs)

    @pytest.mark.parametrize("fast", [False, True], ids=["object", "fast"])
    def test_hook_fires_on_the_cadence(self, fast):
        trace = columns_of([req(0, float(i)) for i in range(20)])
        seen = []
        simulate(trace, AllocateOnDemand(), 16, days=1, fast_path=fast,
                 progress_every=6,
                 progress_hook=lambda done, epoch: seen.append((done, epoch)))
        assert seen == [(6, 0), (12, 0), (18, 0)]


class TestEpochCount:
    def test_daily_epochs(self):
        assert total_epoch_count(8, SECONDS_PER_DAY) == 8

    def test_non_dividing_epoch_rounds_up(self):
        # 8 days / 7 hours = 27.43 epochs; the partial 28th still fires.
        assert total_epoch_count(8, 7 * 3600.0) == 28

    def test_epoch_longer_than_trace_still_fires_once(self):
        assert total_epoch_count(1, 7 * SECONDS_PER_DAY) == 1

    def test_exact_division_not_overcounted(self):
        assert total_epoch_count(1, 86400.0 / 900000 * 1000) == 900

    def test_float_quotient_rounding_caught(self):
        # 3 days / (3 days / 7): the float epoch is a hair below the
        # real seventh, so the true quotient exceeds 7 and an eighth
        # (partial) epoch fires — but the float quotient rounds to
        # exactly 7.0 and math.ceil over it would undercount.
        assert total_epoch_count(3, 3 * SECONDS_PER_DAY / 7) == 8

    def test_seven_hour_epochs_over_eight_days(self):
        policy = SieveStoreD(SieveStoreDConfig(threshold=0))
        trace = columns_of([req(0, 1.0), req(7, 1.0)])
        simulate(trace, policy, 16, days=8, epoch_seconds=7 * 3600.0)
        assert policy.epochs_completed == 28


class TestEngineField:
    def test_fast_path_recorded(self):
        trace = columns_of([req(0, 1.0)])
        result = simulate(trace, AllocateOnDemand(), 16, days=1, fast_path=True)
        assert result.engine == "fast"

    def test_object_path_recorded(self):
        trace = columns_of([req(0, 1.0)])
        result = simulate(trace, AllocateOnDemand(), 16, days=1, fast_path=False)
        assert result.engine == "object"

    def test_configuration_picks_the_engine(self):
        trace = columns_of([req(0, 1.0)])
        # What the fast loop does not cover runs on the object engine,
        # silently: the result records it.
        for kwargs in (
            {"fault_plan": FaultPlan(outages=(OutageWindow(0.0, 10.0),))},
            {"write_mode": WriteMode.WRITE_BACK},
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = simulate(trace, AllocateOnDemand(), 16, days=1, **kwargs)
            assert result.engine == "object", kwargs
        # A plain run takes the fast loop.
        assert simulate(trace, AllocateOnDemand(), 16, days=1).engine == "fast"


class TestDailyCapture:
    def test_capture_series_shape(self):
        trace = columns_of([req(0, 1.0), req(1, 1.0)])
        result = simulate(trace, AllocateOnDemand(), 16, days=2)
        assert len(result.daily_capture()) == 2
        assert len(result.daily_allocation_writes()) == 2

    def test_minutes_tracked_when_enabled(self):
        trace = columns_of([req(0, 1.0), req(0, 2.0)])
        with_minutes = simulate(trace, AllocateOnDemand(), 16, days=1)
        without = simulate(
            trace, AllocateOnDemand(), 16, days=1, track_minutes=False
        )
        assert with_minutes.stats.per_minute
        assert not without.stats.per_minute


def _columns(issue, completion, blocks):
    n = len(issue)
    return ColumnarTrace(
        issue_time=issue,
        completion_time=completion,
        address=np.arange(n, dtype=np.int64) * 8,
        block_count=blocks,
        is_write=np.zeros(n, dtype=bool),
        aligned_4k=np.zeros(n, dtype=bool),
    )


#: In-RAM traces no IORequest list could hold, and what both engines say.
BAD_ROWS = {
    "empty-and-negative-counts": (
        _columns([0.0, 1.0, 2.0], [0.1, 1.1, 2.1], [2, 0, -1]),
        "request 1: block_count must be positive, got 0",
    ),
    "completes-before-issue": (
        _columns([0.0, 1.0, 2.0], [0.1, 0.5, 2.1], [1, 1, 1]),
        "request 1: completion_time precedes issue_time: 0.5 < 1.0",
    ),
    "out-of-order": (
        _columns([0.0, 2.0, 1.0], [0.1, 2.1, 1.1], [1, 1, 1]),
        "request 2: out of issue-time order: 1.0 < 2.0",
    ),
}


class TestRowInvariants:
    """Every route into simulate() refuses the rows IORequest refuses."""

    @pytest.mark.parametrize("fast", [False, True], ids=["object", "fast"])
    @pytest.mark.parametrize("policy", ["aod", "sievestore-c"])
    @pytest.mark.parametrize("bad", list(BAD_ROWS))
    def test_refused_alike(self, bad, policy, fast):
        columns, message = BAD_ROWS[bad]
        gate = AllocateOnDemand() if policy == "aod" else SieveStoreC()
        with pytest.raises(ValueError) as refused:
            simulate(columns, gate, 16, days=1, fast_path=fast)
        assert str(refused.value) == message
