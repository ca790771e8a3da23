"""End-to-end observability: the off-path invariant and the on-path wiring.

The load-bearing guarantee is the *off* path: with observability
disabled (the default), simulation results and run manifests are
byte-identical to a build without ``repro.obs`` — same ``CacheStats``,
same schema-2 manifest, no ``metrics`` keys anywhere.  The on path then
has to produce the same simulation numbers while collecting metrics.
"""

import json

import pytest

from repro.obs import runtime
from repro.obs.events import read_events
from repro.obs.export import parse_prometheus, to_prometheus
from repro.sim import resume_simulation, simulate
from repro.sim.experiment import build_policy, run_policy, run_policy_suite
from repro.sim.serialize import stats_to_dict

SUITE = ("aod-16", "sievestore-c")


@pytest.fixture(autouse=True)
def observability_off():
    """Tests flip the switch themselves; never leak it across tests."""
    runtime.disable()
    yield
    runtime.disable()


def run_suite(tiny_context, **kwargs):
    return run_policy_suite(
        tiny_context, SUITE, track_minutes=False, fast_path=True,
        jobs=1, **kwargs
    )


class TestDisabledIsByteIdentical:
    def test_manifest_matches_schema2_with_no_metrics_keys(self, tiny_context):
        baseline = run_suite(tiny_context)
        assert baseline.manifest["schema"] == 2
        assert "metrics" not in baseline.manifest
        for task in baseline.manifest["tasks"]:
            assert "metrics" not in task
        assert baseline.metrics is None

    def test_stats_identical_with_and_without_observability(
        self, tiny_context
    ):
        baseline = run_suite(tiny_context)
        runtime.enable()
        observed = run_suite(tiny_context)
        runtime.disable()
        for name in SUITE:
            assert observed[name].engine == baseline[name].engine == "fast"
            assert json.dumps(stats_to_dict(observed[name].stats)) == (
                json.dumps(stats_to_dict(baseline[name].stats))
            )

    def test_engine_obs_is_none_when_disabled(self, tiny_context):
        from repro.sim.engine import _engine_obs

        policy, _capacity = build_policy("aod-16", tiny_context)
        assert _engine_obs(policy, "aod-16", "fast") is None


class TestEnabledCollectsMetrics:
    def test_suite_manifest_carries_v3_metrics(self, tiny_context):
        runtime.enable()
        run = run_suite(tiny_context)
        assert run.manifest["schema"] == 3
        assert run.metrics is not None
        suite_metrics = run.manifest["metrics"]
        for task in run.manifest["tasks"]:
            assert task["metrics"] is not None
        # Engine throughput appears labeled per policy.
        samples = suite_metrics["sim_blocks_total"]["samples"]
        policies = {row["labels"]["policy"] for row in samples}
        assert policies == set(SUITE)
        # The sieve's decision tallies only exist for SieveStore-C.
        admits = suite_metrics["sieve_admissions_total"]["samples"]
        assert {row["labels"]["policy"] for row in admits} == {"sievestore-c"}
        # Suite-runner metrics count both tasks as ok.
        tasks = suite_metrics["suite_tasks_total"]["samples"]
        assert sum(row["value"] for row in tasks) == len(SUITE)

    def test_blocks_total_matches_the_trace(self, tiny_trace, tiny_context):
        runtime.enable()
        run = run_suite(tiny_context)
        total_blocks = sum(r.block_count for r in tiny_trace.requests)
        for row in run.manifest["metrics"]["sim_blocks_total"]["samples"]:
            assert row["value"] == total_blocks

    def test_per_task_registries_do_not_double_count(self, tiny_context):
        runtime.enable()
        run = run_suite(tiny_context)
        for task in run.manifest["tasks"]:
            rows = task["metrics"]["sim_requests_total"]["samples"]
            # One policy per task: its snapshot holds only its own label.
            assert {row["labels"]["policy"] for row in rows} == {
                task["policy"]
            }

    def test_snapshot_exports_as_parseable_prometheus(self, tiny_context):
        runtime.enable()
        run = run_suite(tiny_context)
        parsed = parse_prometheus(to_prometheus(run.metrics))
        assert "sim_blocks_total" in parsed
        assert "sim_epoch_wall_seconds" in parsed
        assert parsed["sim_epoch_wall_seconds"]["type"] == "histogram"

    def test_run_policy_uses_config_name_as_label(self, tiny_context):
        runtime.enable()
        result = run_policy(
            "aod-32", tiny_context, track_minutes=False, fast_path=True
        )
        assert result.engine == "fast"
        counter = runtime.get_registry().get("sim_requests_total")
        assert counter.value(policy="aod-32", engine="fast") == len(
            tiny_context.trace.requests
        )

    def test_object_engine_labels_engine_dimension(self, tiny_context):
        runtime.enable()
        result = run_policy(
            "aod-16", tiny_context, track_minutes=False, fast_path=False
        )
        assert result.engine == "object"
        counter = runtime.get_registry().get("sim_requests_total")
        assert counter.value(policy="aod-16", engine="object") > 0
        assert counter.value(policy="aod-16", engine="fast") == 0


class TestEventLog:
    def test_run_events_bracket_the_run(self, tiny_context, tmp_path):
        events_path = tmp_path / "events.jsonl"
        runtime.enable(events_path=events_path)
        run_policy("aod-16", tiny_context, track_minutes=False, fast_path=True)
        runtime.disable()
        events = read_events(events_path)
        assert [e["event"] for e in events] == ["run_start", "run_end"]
        assert events[0]["policy"] == "aod-16"
        assert events[1]["requests"] == len(tiny_context.trace.requests)

    def test_resume_appends_coherently_to_the_same_log(
        self, tiny_context, tmp_path
    ):
        events_path = tmp_path / "events.jsonl"
        ckpt_path = tmp_path / "run.ckpt"
        policy, capacity = build_policy("aod-16", tiny_context)
        trace = tiny_context.columnar_trace()

        runtime.enable(events_path=events_path)
        simulate(
            trace, policy, capacity_blocks=capacity, days=tiny_context.days,
            track_minutes=False, fast_path=True,
            checkpoint_path=ckpt_path, checkpoint_every=997,
        )
        resumed = resume_simulation(ckpt_path, trace)
        runtime.disable()

        names = [e["event"] for e in read_events(events_path)]
        assert names[0] == "run_start"
        assert "checkpoint_saved" in names
        assert "run_resume" in names
        assert names[-1] == "run_end"
        # The seam is ordered: resume comes after the partial run.
        assert names.index("run_resume") > names.index("checkpoint_saved")
        assert resumed.stats.per_day  # the resumed run actually finished
