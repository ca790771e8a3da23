"""Experiment registry: configuration keys and scaled sizing."""

import json

import pytest

from repro.cache.allocation import AllocateOnDemand, WriteMissNoAllocate
from repro.core.ideal import IdealDailySieve
from repro.core.random_sieve import RandSieveBlkD, RandSieveC
from repro.core.sievestore_c import SieveStoreC
from repro.core.sievestore_d import SieveStoreD
from repro.ensemble.cluster import simulate_cluster
from repro.sim.experiment import (
    FIGURE5_POLICIES,
    ExperimentContext,
    build_policy,
    run_policy,
    run_policy_suite,
    sievestore_c_with_window,
    sievestore_d_with_epoch,
    sievestore_d_with_threshold,
)
from repro.sim.serialize import stats_to_dict
from repro.traces.segments import segment_columnar
from repro.util.units import GIB


class TestContextSizing:
    def test_sieved_capacity_is_scaled_16gb(self, tiny_context):
        expected = int(16 * GIB / 512 * tiny_context.scale)
        assert tiny_context.sieved_capacity == max(expected, 64)

    def test_unsieved_large_is_double(self, tiny_context):
        assert tiny_context.unsieved_large_capacity == pytest.approx(
            2 * tiny_context.sieved_capacity, rel=0.02
        )

    def test_daily_counts_cover_all_days(self, tiny_context):
        assert len(tiny_context.daily_counts) == tiny_context.days

    def test_imct_scaled(self, tiny_context):
        assert tiny_context.imct_slots >= 1024


class TestBuildPolicy:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("ideal", IdealDailySieve),
            ("sievestore-d", SieveStoreD),
            ("sievestore-c", SieveStoreC),
            ("randsieve-blkd", RandSieveBlkD),
            ("randsieve-c", RandSieveC),
            ("aod-16", AllocateOnDemand),
            ("wmna-32", WriteMissNoAllocate),
        ],
    )
    def test_constructs_expected_type(self, tiny_context, name, cls):
        policy, capacity = build_policy(name, tiny_context)
        assert isinstance(policy, cls)
        assert capacity > 0

    def test_unsieved_32_gets_double_capacity(self, tiny_context):
        _, cap16 = build_policy("aod-16", tiny_context)
        _, cap32 = build_policy("aod-32", tiny_context)
        assert cap32 == tiny_context.unsieved_large_capacity
        assert cap16 == tiny_context.sieved_capacity

    def test_unknown_name_rejected(self, tiny_context):
        with pytest.raises(ValueError):
            build_policy("lru-magic", tiny_context)

    def test_figure5_list_is_buildable(self, tiny_context):
        for name in FIGURE5_POLICIES:
            build_policy(name, tiny_context)


class TestRunners:
    def test_run_policy_renames_result(self, tiny_context):
        result = run_policy("wmna-16", tiny_context, track_minutes=False)
        assert result.policy_name == "wmna-16"
        assert result.stats.total.accesses > 0

    def test_threshold_sweep_runner(self, tiny_context):
        result = sievestore_d_with_threshold(tiny_context, threshold=15)
        assert "t=15" in result.policy_name
        assert isinstance(result.policy, SieveStoreD)
        assert result.policy.config.threshold == 15

    def test_window_sweep_runner(self, tiny_context):
        result = sievestore_c_with_window(tiny_context, window_hours=2.0)
        assert result.policy.config.window.window_seconds == 2 * 3600

    def test_single_tier_ablation_runner(self, tiny_context):
        result = sievestore_c_with_window(
            tiny_context, window_hours=8.0, single_tier=True
        )
        assert result.policy.config.single_tier_admission
        assert "single-tier" in result.policy_name

    def test_default_routes_take_the_fast_loop(self, tiny_context):
        suite = run_policy_suite(
            tiny_context, ("aod-16", "sievestore-c"), track_minutes=False
        )
        results = [
            run_policy("sievestore-c", tiny_context, track_minutes=False),
            *suite.values(),
            sievestore_d_with_threshold(tiny_context, threshold=15),
            sievestore_d_with_epoch(tiny_context, epoch_hours=12.0),
            sievestore_c_with_window(tiny_context, window_hours=2.0),
        ]
        assert [result.engine for result in results] == ["fast"] * 6
        assert [task["engine"] for task in suite.manifest["tasks"]] == [
            "fast", "fast"
        ]
        cluster = simulate_cluster(
            tiny_context.columnar_trace(), lambda node: AllocateOnDemand(),
            tiny_context.sieved_capacity, tiny_context.days, nodes=2,
        )
        assert cluster.engines == ["fast", "fast"]


def stats_digest(result) -> str:
    return json.dumps(stats_to_dict(result.stats), sort_keys=True)


@pytest.fixture(scope="module")
def tiny_store(tiny_context, tmp_path_factory):
    """The shared trace as an on-disk segment store (several segments)."""
    directory = tmp_path_factory.mktemp("context-store") / "store"
    return segment_columnar(
        tiny_context.columnar_trace(), directory, rows_per_segment=8000
    )


@pytest.fixture(params=["segment-store", "shard-view"])
def store_context(request, tiny_store, tiny_context):
    """A context over a chunk source: the whole store, or its one shard."""
    source = tiny_store if request.param == "segment-store" else (
        tiny_store.shard(0, 1)
    )
    return ExperimentContext(
        trace=source, days=tiny_context.days, scale=tiny_context.scale
    )


class TestStoreBackedContext:
    """A chunk-source context runs wherever an in-RAM context does, with
    the same statistics."""

    @pytest.mark.parametrize(
        "name,fast_path",
        [
            ("ideal", True),
            ("sievestore-c", True),
            ("sievestore-c", False),
            ("wmna-16", True),
        ],
    )
    def test_run_policy_matches_columns(
        self, tiny_context, store_context, name, fast_path
    ):
        expected = run_policy(
            name, tiny_context, track_minutes=False, fast_path=fast_path
        )
        streamed = run_policy(
            name, store_context, track_minutes=False, fast_path=fast_path,
            chunk_rows=2500,
        )
        assert streamed.policy_name == name
        assert stats_digest(streamed) == stats_digest(expected)

    def test_serial_suite_matches_columns(self, tiny_context, store_context):
        names = ("ideal", "aod-16")
        expected = run_policy_suite(
            tiny_context, names, track_minutes=False, fast_path=True, jobs=1
        )
        suite = run_policy_suite(
            store_context, names, track_minutes=False, fast_path=True, jobs=1
        )
        assert suite.ok, suite.failures
        for name in names:
            assert stats_digest(suite[name]) == stats_digest(expected[name])

    def test_sensitivity_helper_matches_columns(
        self, tiny_context, store_context
    ):
        expected = sievestore_d_with_epoch(tiny_context, epoch_hours=12.0)
        streamed = sievestore_d_with_epoch(store_context, epoch_hours=12.0)
        assert streamed.policy_name == expected.policy_name
        assert stats_digest(streamed) == stats_digest(expected)

    @pytest.mark.parametrize("jobs", [2, None])
    def test_parallel_suite_refused_before_any_pool(
        self, store_context, jobs, monkeypatch
    ):
        from repro.sim import parallel

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(parallel, "run_tasks", no_pool)
        with pytest.raises(ValueError, match="run_sharded_replay"):
            run_policy_suite(store_context, ("aod-16",), jobs=jobs)
