"""Crash-consistent checkpoint/resume and fault-plan simulation."""

import json
import struct
import warnings

import pytest

from repro.faults import ErrorWindow, FaultPlan, OutageWindow
from repro.obs import runtime
from repro.sim import resume_simulation, simulate
from repro.sim.experiment import build_policy
from repro.sim.serialize import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
    stats_to_dict,
)
from repro.traces.model import Trace
from repro.util.intervals import SECONDS_PER_DAY

#: Cadence chosen so the final checkpoint of the shared tiny trace
#: (37k requests) lands mid-trace, never on the last request.
EVERY = 997


def run(ctx, policy_name="sievestore-d", fast=False, track_minutes=False,
        **kwargs):
    policy, capacity = build_policy(policy_name, ctx)
    trace = ctx.columnar_trace() if fast else ctx.object_trace()
    return simulate(
        trace, policy, capacity_blocks=capacity, days=ctx.days,
        track_minutes=track_minutes, fast_path=fast, label=policy_name,
        **kwargs
    )


class TestCheckpointFileFormat:
    def test_payload_round_trip(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint({"cursor": 41, "nested": {"k": [1, 2]}}, path)
        assert load_checkpoint(path) == {"cursor": 41, "nested": {"k": [1, 2]}}

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "not.ckpt"
        path.write_bytes(b"definitely not a checkpoint, far too short?")
        with pytest.raises(CheckpointError, match="not a SieveStore"):
            load_checkpoint(path)

    def test_detects_corruption(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint({"cursor": 1}, path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_detects_truncation(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint({"cursor": 1, "pad": "x" * 256}, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-20])
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    # A version from the future, and older ones (a stamped IMCT, a
    # Counter-holding ideal oracle, an adaptive sieve's separate
    # threshold, two per-engine payload layouts), which are not migrated.
    def test_refuses_unknown_schema_version(self, tmp_path):
        path = tmp_path / "c.ckpt"
        for version in (CHECKPOINT_SCHEMA_VERSION + 1, 7, 6, 5, 4, 3, 2):
            save_checkpoint({"cursor": 1}, path)
            raw = bytearray(path.read_bytes())
            struct.pack_into(">I", raw, len(CHECKPOINT_MAGIC), version)
            path.write_bytes(bytes(raw))
            with pytest.raises(
                CheckpointError, match=f"schema version {version} "
            ):
                load_checkpoint(path)

    def test_rejects_nonpositive_cadence(self, tiny_context, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            run(tiny_context, checkpoint_path=tmp_path / "c.ckpt",
                checkpoint_every=0)


class TestResumeEquivalence:
    # The last case runs under a label that differs from its policy's
    # own name ("aod"): a resumed run must keep the run's label.
    @pytest.mark.parametrize(
        ("fast", "policy_name"),
        [(False, "sievestore-d"), (True, "sievestore-d"), (True, "aod-32")],
        ids=["object-engine", "fast-engine", "fast-engine-aod-32"],
    )
    def test_resume_is_bit_identical(self, tiny_context, tmp_path, fast,
                                     policy_name):
        baseline = run(tiny_context, policy_name, fast=fast,
                       track_minutes=True)
        path = tmp_path / "mid.ckpt"
        checkpointed = run(
            tiny_context, policy_name, fast=fast, track_minutes=True,
            checkpoint_path=path, checkpoint_every=EVERY,
        )
        # Checkpointing itself must not perturb the run.
        assert stats_to_dict(checkpointed.stats) == stats_to_dict(
            baseline.stats
        )
        # The file on disk is the *last periodic* checkpoint — a genuine
        # mid-trace state.  Resuming replays only the tail, yet per-day
        # AND per-minute statistics come out bit-identical.
        cursor = load_checkpoint(path)["cursor"]
        assert 0 < cursor < len(tiny_context.object_trace().requests)
        trace = (
            tiny_context.columnar_trace()
            if fast
            else tiny_context.object_trace()
        )
        with runtime.scoped_registry() as metrics:
            resumed = resume_simulation(path, trace)
        assert resumed.engine == ("fast" if fast else "object")
        assert stats_to_dict(resumed.stats) == stats_to_dict(baseline.stats)
        assert sorted(resumed.cache.residents()) == sorted(
            baseline.cache.residents()
        )
        assert resumed.policy_name == baseline.policy_name == policy_name
        assert metrics.registry.get("sim_requests_total").value(
            policy=policy_name, engine=resumed.engine
        ) == len(trace)

    def test_resume_accepts_either_trace_form(self, tiny_context, tmp_path):
        path = tmp_path / "c.ckpt"
        baseline = run(tiny_context, checkpoint_path=path,
                       checkpoint_every=EVERY)
        resumed = resume_simulation(path, tiny_context.columnar_trace())
        assert stats_to_dict(resumed.stats) == stats_to_dict(baseline.stats)

    def test_resume_requires_a_trace(self, tiny_context, tmp_path):
        path = tmp_path / "c.ckpt"
        run(tiny_context, checkpoint_path=path, checkpoint_every=EVERY)
        with pytest.raises(CheckpointError, match="do not embed the trace"):
            resume_simulation(path)

    def test_resume_rejects_mismatched_trace(self, tiny_context, tmp_path):
        path = tmp_path / "c.ckpt"
        run(tiny_context, checkpoint_path=path, checkpoint_every=EVERY)
        wrong = Trace(tiny_context.object_trace().requests[:100])
        with pytest.raises(CheckpointError, match="does not match"):
            resume_simulation(path, wrong)

    def test_resume_with_faults_is_bit_identical(self, tiny_context, tmp_path):
        plan = FaultPlan(
            errors=(ErrorWindow(
                2.0 * SECONDS_PER_DAY, 2.5 * SECONDS_PER_DAY, "read", 0.5
            ),),
            outages=(OutageWindow(
                4.0 * SECONDS_PER_DAY, 4.5 * SECONDS_PER_DAY
            ),),
            seed=13,
        )
        baseline = run(tiny_context, policy_name="aod-16", fault_plan=plan)
        path = tmp_path / "f.ckpt"
        run(tiny_context, policy_name="aod-16", fault_plan=plan,
            checkpoint_path=path, checkpoint_every=EVERY)
        resumed = resume_simulation(path, tiny_context.object_trace())
        # The injector's RNG stream and wear state ride inside the
        # checkpoint, so even probabilistic error draws replay exactly.
        assert stats_to_dict(resumed.stats) == stats_to_dict(baseline.stats)


class TestFaultSimulation:
    def test_mid_trace_outage_completes_and_reports_time(self, tiny_context):
        plan = FaultPlan(outages=(OutageWindow(
            3.0 * SECONDS_PER_DAY, 4.0 * SECONDS_PER_DAY
        ),))
        result = run(tiny_context, policy_name="aod-16", fault_plan=plan)
        assert result.stats.bypass_seconds == SECONDS_PER_DAY
        assert result.stats.total.bypass_accesses > 0
        payload = stats_to_dict(result.stats)
        assert payload["bypass_seconds"] == SECONDS_PER_DAY

    def test_degraded_window_reports_time_and_errors(self, tiny_context):
        plan = FaultPlan(errors=(ErrorWindow(
            2.0 * SECONDS_PER_DAY, 2.5 * SECONDS_PER_DAY, "read"
        ),))
        result = run(tiny_context, policy_name="aod-16", fault_plan=plan)
        assert result.stats.degraded_seconds == pytest.approx(
            0.5 * SECONDS_PER_DAY
        )
        assert result.stats.total.read_errors > 0

    def test_empty_plan_is_byte_identical(self, tiny_context):
        reference = run(tiny_context)
        empty = run(tiny_context, fault_plan=FaultPlan())
        assert json.dumps(stats_to_dict(empty.stats)) == json.dumps(
            stats_to_dict(reference.stats)
        )
        # No fault keys leak into fault-free output.
        payload = stats_to_dict(reference.stats)
        assert "degraded_seconds" not in payload
        assert all("read_errors" not in day for day in payload["per_day"])

    def test_fault_plan_forces_object_engine(self, tiny_context):
        plan = FaultPlan(outages=(OutageWindow(0.0, 1.0),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run(tiny_context, fast=True, fault_plan=plan)
        assert result.engine == "object"
