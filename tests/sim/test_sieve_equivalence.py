"""Fast-engine sieve specialization vs the object engine, bit for bit.

SieveStore-C's fast decider (:class:`repro.sim.fast_engine.SieveStretches`)
runs it through :class:`repro.core.sieve_kernel.SieveStoreCKernel`
instead of per-miss ``wants()`` calls.  These tests drive both engines over the
same trace and demand *complete* state equality: per-day and per-minute
statistics, the resident set, every sieve telemetry counter, the MCT's
insert/eviction/peak accounting, and the full per-slot IMCT counter
matrix — across default, aliased, saturated, single-tier, pruning, and
sub-day-epoch configurations, across chunk sizes down to one request
and checkpoints that land mid-subwindow (the kernel batches recordings
per run of same-subwindow requests, so both cut its runs), and across
SIGKILL-style checkpoint resume on either engine, whichever engine
wrote the checkpoint.
"""

import shutil

import pytest

from repro.cache.block_cache import BlockCache
from repro.cache.stats import CacheStats
from repro.cache.write_policy import WriteMode
from repro.core import SieveStoreC, SieveStoreCConfig, WindowSpec
from repro.core.appliance import SieveStoreAppliance
from repro.core.autotune import AdaptiveSieveStoreC
from repro.core.windows import COUNTER_SATURATION
from repro.sim import resume_simulation, simulate
from repro.sim.engine import _ObjectStretches
from repro.sim.experiment import build_policy
from repro.sim.fast_engine import FastStretches, SieveStretches
from repro.sim.serialize import (
    CheckpointError,
    load_checkpoint,
    stats_to_dict,
)
from repro.traces.segments import segment_columnar

#: Mid-trace checkpoint cadence (see tests/sim/test_checkpoint.py).
EVERY = 997
#: Segment / chunk sizes that put several boundaries inside the shared
#: 37k-request trace, none of them on a checkpoint cursor.
ROWS_PER_SEGMENT = 9000
CHUNK_ROWS = 4000


class Killed(RuntimeError):
    """Raised by the killing progress hook to abort a run mid-trace."""


def write_killed_checkpoint(ctx, policy, fast, path, kill_at, **kwargs):
    """Abort a checkpointed run at ``kill_at`` requests, as SIGKILL would:
    ``path`` is left holding the last periodic checkpoint before it."""

    def killer(requests_done, _current_epoch):
        if requests_done >= kill_at:
            raise Killed(f"killed at {requests_done}")

    with pytest.raises(Killed):
        run_engine(
            ctx, policy, fast, checkpoint_path=path, checkpoint_every=EVERY,
            progress_every=1000, progress_hook=killer, **kwargs
        )


def run_engine(ctx, policy, fast, capacity=None, **kwargs):
    trace = ctx.columnar_trace()
    return simulate(
        trace, policy, capacity_blocks=capacity or ctx.sieved_capacity,
        days=ctx.days, track_minutes=True, fast_path=fast, **kwargs
    )


def run_pair(ctx, config=None, collision_tracking=False, **kwargs):
    """Run the same SieveStore-C configuration on both engines."""
    results = []
    for fast in (False, True):
        policy = make_policy(ctx, config)
        if collision_tracking:
            policy.imct.enable_collision_tracking()
        results.append(run_engine(ctx, policy, fast, **kwargs))
    return results


def imct_matrix(policy):
    """The full IMCT state (per-slot counts and totals, the clock)."""
    imct = policy.imct
    return imct.cells().T.tolist(), imct.totals.tolist(), imct.clock


def assert_same_sieve_state(expected, actual):
    """Statistics, resident set and the full sieve state, bit for bit."""
    assert stats_to_dict(actual.stats) == stats_to_dict(expected.stats)
    assert sorted(actual.cache.residents()) == sorted(
        expected.cache.residents()
    )
    want, got = expected.policy, actual.policy
    for counter in ("admissions", "imct_rejections", "promotions",
                    "mct_rejections"):
        assert getattr(got, counter) == getattr(want, counter), counter
    assert got.imct.recorded_misses == want.imct.recorded_misses
    assert got.imct.alias_collisions == want.imct.alias_collisions
    for counter in ("inserts", "evictions", "peak_entries"):
        assert getattr(got.mct, counter) == getattr(want.mct, counter), counter
    assert got.metastate_entries() == want.metastate_entries()
    assert sorted(got.mct._counters) == sorted(want.mct._counters)
    assert imct_matrix(got) == imct_matrix(want)


def assert_sieve_identical(obj_result, fast_result):
    assert obj_result.engine == "object"
    assert fast_result.engine == "fast"
    assert_same_sieve_state(obj_result, fast_result)


def assert_conservation(stats, policy):
    """Every miss block ends in exactly one of the four sieve outcomes,
    and every tier-1 outcome is one IMCT recording."""
    total = stats.total
    assert total.accesses - total.read_hits - total.write_hits == (
        policy.imct_rejections + policy.promotions
        + policy.mct_rejections + policy.admissions
    )
    passed = (
        policy.admissions
        if policy.config.single_tier_admission
        else policy.promotions
    )
    assert policy.imct.recorded_misses == policy.imct_rejections + passed


#: The configurations the chunking / resume differential enumerates
#: (``None``: the registry's scaled default).
SIEVE_CONFIGS = {
    "default": None,
    "aliased": SieveStoreCConfig(imct_slots=257),
    "single-tier": SieveStoreCConfig(single_tier_admission=True),
    "t2-zero": SieveStoreCConfig(t2=0),
    "small-window": SieveStoreCConfig(
        window=WindowSpec(window_seconds=3600.0, subwindows=4)
    ),
    # The default sieve over a cache so small that most admissions
    # evict (see CAPACITIES): slots empty as fast as they fill.
    "tiny-cache": None,
}

#: Cache capacities that differ from the context's scaled default.
CAPACITIES = {"tiny-cache": 64}


def make_policy(ctx, config):
    if config is None:
        return build_policy("sievestore-c", ctx)[0]
    return SieveStoreC(config)


@pytest.fixture(scope="module")
def store(tiny_context, tmp_path_factory):
    return segment_columnar(
        tiny_context.columnar_trace(),
        tmp_path_factory.mktemp("sieve-equivalence") / "store",
        rows_per_segment=ROWS_PER_SEGMENT,
    )


class PlainSubclass(SieveStoreC):
    """Overrides nothing, so it inherits the kernel on both engines."""


def decider_type(policy):
    """The type of the fast engine's decider for ``policy``."""
    return type(policy.stretch_decider(BlockCache(64), CacheStats(1), 86400.0))


def object_hashes(policy):
    """Whether the object engine hashes ``policy``'s windows."""
    appliance = SieveStoreAppliance(BlockCache(64), policy, CacheStats(1))
    return _ObjectStretches(appliance, 1).hashed


class TestDispatch:
    def test_plain_sievestore_c_takes_the_sieve_path(self):
        assert decider_type(SieveStoreC()) is SieveStretches
        assert object_hashes(SieveStoreC())

    def test_adaptive_subclass_takes_the_general_path(self):
        # AdaptiveSieveStoreC mutates its t2 mid-run; the kernel must
        # never capture it, on either engine.
        assert not AdaptiveSieveStoreC().kernel_drives_ladder()
        assert decider_type(AdaptiveSieveStoreC()) is FastStretches
        assert not object_hashes(AdaptiveSieveStoreC())

    def test_subclass_without_overrides_inherits_the_kernel(self, tiny_context):
        assert decider_type(PlainSubclass()) is SieveStretches
        assert object_hashes(PlainSubclass())
        config = SieveStoreCConfig(imct_slots=tiny_context.imct_slots)
        parent = run_pair(tiny_context, config)
        child = []
        for fast in (False, True):
            child.append(run_engine(tiny_context, PlainSubclass(config), fast))
        assert_sieve_identical(*child)
        for ours, theirs in zip(child, parent):
            assert_same_sieve_state(theirs, ours)


class TestEngineEquivalence:
    def test_default_config(self, tiny_context):
        obj, fast = run_pair(tiny_context)
        assert_sieve_identical(obj, fast)

    def test_aliased_tiny_table(self, tiny_context):
        # 257 slots over tens of thousands of blocks: heavy aliasing,
        # so tier-1 promotions lean on piggy-backed counts.
        config = SieveStoreCConfig(imct_slots=257)
        obj, fast = run_pair(tiny_context, config)
        assert_sieve_identical(obj, fast)

    def test_single_slot_saturation(self, tiny_context):
        # Every address shares one slot and the window spans the whole
        # trace, so the counter pins at the uint8 ceiling — the fast
        # path's saturating bump must clamp exactly where the object
        # path's min() does.
        config = SieveStoreCConfig(
            imct_slots=1,
            window=WindowSpec(window_seconds=20 * 86400.0, subwindows=4),
        )
        obj, fast = run_pair(tiny_context, config)
        assert_sieve_identical(obj, fast)
        counts, _totals, _clock = imct_matrix(obj.policy)
        assert max(counts[0]) == COUNTER_SATURATION

    def test_t1_past_the_counter_ceiling(self, tiny_context):
        # t1 = 300 lets a cold slot's cell saturate, which the kernel's
        # unclamped flush cannot record: the fast loop takes its exact
        # per-miss body instead, and the one slot still pins at 255.
        config = SieveStoreCConfig(
            t1=300, imct_slots=1,
            window=WindowSpec(window_seconds=20 * 86400.0, subwindows=4),
        )
        assert decider_type(SieveStoreC(config)) is FastStretches
        assert not object_hashes(SieveStoreC(config))
        obj, fast = run_pair(tiny_context, config)
        assert_sieve_identical(obj, fast)
        counts, _totals, _clock = imct_matrix(obj.policy)
        assert max(counts[0]) == COUNTER_SATURATION
        assert obj.policy.promotions > 0

    def test_single_tier_ablation(self, tiny_context):
        config = SieveStoreCConfig(single_tier_admission=True)
        obj, fast = run_pair(tiny_context, config)
        assert_sieve_identical(obj, fast)
        assert obj.policy.mct.inserts == 0  # tier 2 never engaged

    def test_small_window_forces_mct_prunes(self, tiny_context):
        # A one-hour window expires MCT entries quickly; the kernel
        # drives the live MCT so opportunistic prune timing (and its
        # eviction count) must line up exactly.
        config = SieveStoreCConfig(
            window=WindowSpec(window_seconds=3600.0, subwindows=4)
        )
        obj, fast = run_pair(tiny_context, config)
        assert_sieve_identical(obj, fast)
        assert obj.policy.mct.evictions > 0

    def test_sub_day_epoch(self, tiny_context):
        obj, fast = run_pair(tiny_context, epoch_seconds=7 * 3600.0)
        assert_sieve_identical(obj, fast)

    def test_t2_zero_admits_on_first_exact_miss(self, tiny_context):
        config = SieveStoreCConfig(t2=0)
        obj, fast = run_pair(tiny_context, config)
        assert_sieve_identical(obj, fast)
        assert obj.policy.admissions > 0

    def test_collision_tracking(self, tiny_context):
        config = SieveStoreCConfig(imct_slots=257)
        obj, fast = run_pair(tiny_context, config, collision_tracking=True)
        assert_sieve_identical(obj, fast)
        assert obj.policy.imct.alias_collisions > 0
        # The shadow last-address arrays must agree slot by slot too.
        assert (
            fast.policy.imct._last_address == obj.policy.imct._last_address
        )


class TestChunkingDifferential:
    """Chunk and checkpoint boundaries cut the kernel's runs anywhere:
    streamed fresh, and killed then resumed, both engines must land on
    the in-RAM object run's exact state."""

    #: Late enough that the one-request-chunk resumes stay cheap.
    KILL_AT = 33_000

    @pytest.mark.parametrize("name", list(SIEVE_CONFIGS))
    def test_streamed_killed_resumed(self, tiny_context, store, tmp_path,
                                     monkeypatch, name):
        from repro.sim import serialize

        ctx, config = tiny_context, SIEVE_CONFIGS[name]
        capacity = CAPACITIES.get(name, ctx.sieved_capacity)
        baseline = run_engine(
            ctx, make_policy(ctx, config), fast=False, capacity=capacity
        )
        assert_conservation(baseline.stats, baseline.policy)
        if name == "tiny-cache":
            assert len(baseline.cache) == capacity
            assert baseline.policy.admissions > 2 * capacity

        # Every checkpoint — EVERY requests apart, so mid-subwindow, and
        # at each chunk end — is a sync site: the law must hold there,
        # on the state about to be pickled.
        save = serialize.save_checkpoint
        synced = []
        write = True

        def checked_save(payload, path):
            assert_conservation(payload["stats"], payload["policy"])
            synced.append(payload["cursor"])
            if write:
                save(payload, path)

        monkeypatch.setattr(serialize, "save_checkpoint", checked_save)

        def streamed(fast, path, **kwargs):
            return simulate(
                store, make_policy(ctx, config), capacity,
                ctx.days, track_minutes=True, fast_path=fast,
                checkpoint_path=path, checkpoint_every=EVERY, **kwargs
            )

        for chunk_rows in (5000, None):
            fresh = streamed(True, tmp_path / "fresh.ckpt", chunk_rows=chunk_rows)
            assert_sieve_identical(baseline, fresh)
        assert any(cursor % EVERY for cursor in synced)  # chunk ends
        assert any(cursor % EVERY == 0 for cursor in synced)

        def killer(requests_done, _current_epoch):
            if requests_done >= self.KILL_AT:
                raise Killed(f"killed at {requests_done}")

        for fast in (True, False):
            killed = tmp_path / f"killed-{fast}.ckpt"
            write = True
            with pytest.raises(Killed):
                streamed(fast, killed, chunk_rows=CHUNK_ROWS,
                         progress_every=1000, progress_hook=killer)
            assert 0 < load_checkpoint(killed)["cursor"] < self.KILL_AT
            # One-request chunks sync after every request: check the
            # state there, but spare the disk a file per request.
            write = False
            for chunk_rows in (1, 7, 5000, None):
                resumed = resume_simulation(killed, store, chunk_rows=chunk_rows)
                assert resumed.engine == ("fast" if fast else "object")
                assert_same_sieve_state(baseline, resumed)


class TestCheckpointResume:
    def baseline(self, ctx):
        policy, _capacity = build_policy("sievestore-c", ctx)
        result = run_engine(ctx, policy, fast=False)
        assert result.engine == "object"
        return result

    def checkpointed(self, ctx, fast, path):
        policy, _capacity = build_policy("sievestore-c", ctx)
        return run_engine(
            ctx, policy, fast, checkpoint_path=path, checkpoint_every=EVERY
        )

    @pytest.mark.parametrize("fast", [False, True],
                             ids=["object-engine", "fast-engine"])
    def test_mid_epoch_resume_same_engine(self, tiny_context, tmp_path, fast):
        baseline = self.baseline(tiny_context)
        path = tmp_path / "sieve.ckpt"
        checkpointed = self.checkpointed(tiny_context, fast, path)
        # Checkpointing itself must not perturb the run.
        if fast:
            assert_sieve_identical(baseline, checkpointed)
        else:
            assert checkpointed.engine == "object"
            assert stats_to_dict(checkpointed.stats) == stats_to_dict(
                baseline.stats
            )
        # The file on disk is a genuine mid-trace snapshot.
        cursor = load_checkpoint(path)["cursor"]
        assert 0 < cursor < len(tiny_context.columnar_trace())
        trace = tiny_context.columnar_trace()
        resumed = resume_simulation(path, trace)
        assert resumed.engine == ("fast" if fast else "object")
        assert stats_to_dict(resumed.stats) == stats_to_dict(baseline.stats)
        assert imct_matrix(resumed.policy) == imct_matrix(baseline.policy)
        assert resumed.policy.metastate_entries() == (
            baseline.policy.metastate_entries()
        )

    @pytest.fixture(scope="class")
    def full_run(self, tiny_context):
        return self.baseline(tiny_context)

    @pytest.fixture(scope="class")
    def killed_checkpoints(self, tiny_context, tmp_path_factory):
        """One checkpoint per writer engine, each killed mid-trace."""
        directory = tmp_path_factory.mktemp("killed")
        paths = {}
        for fast in (False, True):
            policy, _capacity = build_policy("sievestore-c", tiny_context)
            paths[fast] = directory / f"fast-{fast}.ckpt"
            write_killed_checkpoint(
                tiny_context, policy, fast, paths[fast], kill_at=30_000
            )
        return paths

    # Every (writer engine, resume engine, trace form) cell is legal for
    # an LRU write-through run without faults.
    @pytest.mark.parametrize(
        ("source_fast", "target", "segmented"),
        [
            (True, "object", False),
            (False, "fast", False),
            (True, "fast", False),
            (False, "object", False),
            (True, "object", True),
            (False, "fast", True),
            (True, "fast", True),
            (False, "object", True),
        ],
        ids=[
            "fast-to-object",
            "object-to-fast",
            "fast-to-fast",
            "object-to-object",
            "fast-to-object-store",
            "object-to-fast-store",
            "fast-to-fast-store",
            "object-to-object-store",
        ],
    )
    def test_cross_engine_resume(self, tiny_context, tmp_path, full_run,
                                 killed_checkpoints, store,
                                 source_fast, target, segmented):
        baseline = full_run
        path = tmp_path / "cross.ckpt"
        shutil.copy(killed_checkpoints[source_fast], path)
        cursor = load_checkpoint(path)["cursor"]
        assert 0 < cursor < 30_000 and cursor % CHUNK_ROWS
        trace = store if segmented else tiny_context.columnar_trace()
        resumed = resume_simulation(
            path, trace, engine=target, chunk_rows=CHUNK_ROWS
        )
        assert resumed.engine == target
        # Per-day and per-minute statistics both ride in this dict.
        assert stats_to_dict(resumed.stats) == stats_to_dict(baseline.stats)
        assert sorted(resumed.cache.residents()) == sorted(
            baseline.cache.residents()
        )
        policy = resumed.policy
        for counter in ("admissions", "imct_rejections", "promotions",
                        "mct_rejections"):
            assert getattr(policy, counter) == getattr(
                baseline.policy, counter
            ), counter
        assert imct_matrix(policy) == imct_matrix(baseline.policy)
        assert policy.metastate_entries() == (
            baseline.policy.metastate_entries()
        )

    # The fast loop replays only write-through without faults; an
    # object-engine checkpoint of anything else must refuse to move
    # (fault plans: test_fast_resume_refuses_fault_checkpoints below).
    @pytest.mark.parametrize(
        "config",
        [{"write_mode": WriteMode.WRITE_BACK}],
        ids=["write-back"],
    )
    def test_illegal_cross_engine_cells_raise(self, tiny_context, tmp_path,
                                              store, config):
        policy, _capacity = build_policy("sievestore-c", tiny_context)
        path = tmp_path / "illegal.ckpt"
        write_killed_checkpoint(
            tiny_context, policy, False, path, kill_at=2000, **config
        )
        for trace in (tiny_context.columnar_trace(), store):
            with pytest.raises(
                CheckpointError, match="cannot resume on the fast engine"
            ):
                resume_simulation(
                    path, trace, engine="fast", chunk_rows=CHUNK_ROWS
                )

    def test_resume_rejects_unknown_engine(self, tiny_context, tmp_path):
        path = tmp_path / "bad.ckpt"
        self.checkpointed(tiny_context, False, path)
        with pytest.raises(CheckpointError, match="unknown resume engine"):
            resume_simulation(
                path, tiny_context.columnar_trace(), engine="quantum"
            )

    def test_fast_resume_refuses_fault_checkpoints(self, tiny_context,
                                                   tmp_path, store):
        from repro.faults import FaultPlan, OutageWindow
        from repro.util.intervals import SECONDS_PER_DAY

        plan = FaultPlan(outages=(OutageWindow(
            3.0 * SECONDS_PER_DAY, 4.0 * SECONDS_PER_DAY
        ),))
        policy, _capacity = build_policy("sievestore-c", tiny_context)
        path = tmp_path / "faulty.ckpt"
        run_engine(
            tiny_context, policy, fast=False, fault_plan=plan,
            checkpoint_path=path, checkpoint_every=EVERY,
        )
        for trace in (tiny_context.columnar_trace(), store):
            with pytest.raises(CheckpointError, match="fault-injected"):
                resume_simulation(path, trace, engine="fast")
