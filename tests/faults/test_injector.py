"""Fault injector: health queries, error draws, wear-out, picklability."""

import pickle

from hypothesis import given, settings, strategies as st

from repro.faults import (
    DeviceHealth,
    ErrorWindow,
    FaultInjector,
    FaultPlan,
    LatencyWindow,
    OutageWindow,
)
from repro.util.units import BLOCK_BYTES


def make_injector(**kwargs):
    return FaultInjector(FaultPlan(**kwargs))


class TestHealth:
    def test_healthy_by_default(self):
        assert make_injector().health_at(0.0) is DeviceHealth.HEALTHY

    def test_error_window_degrades(self):
        injector = make_injector(errors=(ErrorWindow(10.0, 20.0, "read"),))
        assert injector.health_at(5.0) is DeviceHealth.HEALTHY
        assert injector.health_at(15.0) is DeviceHealth.DEGRADED
        assert injector.health_at(25.0) is DeviceHealth.HEALTHY

    def test_latency_window_degrades(self):
        injector = make_injector(latency=(LatencyWindow(0.0, 10.0, 4.0),))
        assert injector.health_at(5.0) is DeviceHealth.DEGRADED
        assert injector.latency_factor(5.0) == 4.0
        assert injector.latency_factor(50.0) == 1.0

    def test_outage_bypasses_and_recovers(self):
        injector = make_injector(outages=(OutageWindow(10.0, 20.0),))
        assert injector.health_at(15.0) is DeviceHealth.BYPASS
        assert injector.health_at(25.0) is DeviceHealth.HEALTHY

    def test_outage_dominates_error_window(self):
        injector = make_injector(
            errors=(ErrorWindow(0.0, 100.0, "read"),),
            outages=(OutageWindow(40.0, 60.0),),
        )
        assert injector.health_at(50.0) is DeviceHealth.BYPASS


class TestErrorDraws:
    def test_certain_error_inside_window_only(self):
        injector = make_injector(errors=(ErrorWindow(10.0, 20.0, "read"),))
        assert not injector.read_fails(5.0)
        assert injector.read_fails(15.0)
        assert not injector.read_fails(25.0)
        assert injector.read_errors == 1

    def test_kinds_are_independent(self):
        injector = make_injector(errors=(ErrorWindow(0.0, 10.0, "write"),))
        assert not injector.read_fails(5.0)
        assert injector.write_fails(5.0)
        assert injector.write_errors == 1 and injector.read_errors == 0

    def test_probabilistic_draws_are_seeded(self):
        def draws(seed):
            injector = FaultInjector(FaultPlan(
                errors=(ErrorWindow(0.0, 1.0, "read", probability=0.5),),
                seed=seed,
            ))
            return [injector.read_fails(0.5) for _ in range(64)]

        outcomes = draws(3)
        assert outcomes == draws(3)       # deterministic
        assert True in outcomes and False in outcomes
        assert draws(4) != outcomes       # seed actually matters


class TestWearOut:
    def test_wearout_trips_once_budget_is_spent(self):
        injector = make_injector(wearout_bytes=4 * BLOCK_BYTES)
        injector.record_ssd_write(10.0, 3)
        assert not injector.worn_out
        injector.record_ssd_write(20.0, 1)
        assert injector.worn_out and injector.worn_out_at == 20.0
        # Wear-out is permanent BYPASS.
        assert injector.health_at(1e9) is DeviceHealth.BYPASS

    def test_wearout_instant_does_not_move(self):
        injector = make_injector(wearout_bytes=1.0)
        injector.record_ssd_write(5.0, 1)
        injector.record_ssd_write(9.0, 1)
        assert injector.worn_out_at == 5.0

    def test_no_budget_never_wears_out(self):
        injector = make_injector()
        injector.record_ssd_write(0.0, 10**9)
        assert not injector.worn_out


class TestCheckpointability:
    def test_pickle_preserves_rng_stream(self):
        plan = FaultPlan(
            errors=(ErrorWindow(0.0, 100.0, "read", probability=0.5),),
            seed=11,
        )
        original = FaultInjector(plan)
        for _ in range(10):
            original.read_fails(1.0)
        clone = pickle.loads(pickle.dumps(original))
        assert clone.read_errors == original.read_errors
        assert [clone.read_fails(2.0) for _ in range(32)] == [
            original.read_fails(2.0) for _ in range(32)
        ]

    def test_pickle_preserves_wear_state(self):
        injector = make_injector(wearout_bytes=BLOCK_BYTES)
        injector.record_ssd_write(3.0, 2)
        clone = pickle.loads(pickle.dumps(injector))
        assert clone.worn_out_at == 3.0
        assert clone.ssd_bytes_written == injector.ssd_bytes_written


class TestTimeInStates:
    def test_degraded_and_bypass_accounting(self):
        injector = make_injector(
            errors=(ErrorWindow(0.0, 40.0, "read"),),
            outages=(OutageWindow(10.0, 20.0),),
        )
        degraded, bypass = injector.time_in_states(100.0)
        assert degraded == 30.0
        assert bypass == 10.0

    def test_wearout_counts_as_bypass(self):
        injector = make_injector(wearout_bytes=1.0)
        injector.record_ssd_write(60.0, 1)
        degraded, bypass = injector.time_in_states(100.0)
        assert (degraded, bypass) == (0.0, 40.0)


def brute_force_health(plan, worn_out, time):
    """The definition ``health_at`` must keep: scan every window."""
    if worn_out or any(
        w.start <= time and (w.end is None or time < w.end)
        for w in plan.outages
    ):
        return DeviceHealth.BYPASS
    if any(w.start <= time < w.end for w in (*plan.errors, *plan.latency)):
        return DeviceHealth.DEGRADED
    return DeviceHealth.HEALTHY


# Window edges on a coarse grid, so queries land exactly on them often.
spans = st.tuples(st.integers(0, 30), st.integers(1, 10)).map(
    lambda span: (float(span[0]), float(span[0] + span[1]))
)
plans = st.builds(
    lambda errors, latency, outages, wearout: FaultPlan(
        errors=tuple(ErrorWindow(s, e, kind) for (s, e), kind in errors),
        latency=tuple(LatencyWindow(s, e) for s, e in latency),
        outages=tuple(
            OutageWindow(s, None if forever else e)
            for (s, e), forever in outages
        ),
        wearout_bytes=wearout,
    ),
    st.lists(st.tuples(spans, st.sampled_from(["read", "write"])), max_size=3),
    st.lists(spans, max_size=2),
    st.lists(st.tuples(spans, st.booleans()), max_size=2),
    st.one_of(st.none(), st.integers(1, 6).map(lambda b: b * BLOCK_BYTES)),
)
moments = st.one_of(
    st.integers(-2, 45).map(float), st.floats(-2.0, 45.0, allow_nan=False)
)
# Queries at non-monotone times, SSD writes that may trip wear-out
# mid-run, and pickle round trips (the remembered span is not pickled).
operations = st.lists(
    st.one_of(
        st.tuples(st.just("query"), moments),
        st.tuples(st.just("write"), moments, st.integers(1, 4)),
        st.tuples(st.just("pickle")),
    ),
    max_size=60,
)


class TestHealthSpan:
    @settings(max_examples=200, deadline=None)
    @given(plan=plans, ops=operations)
    def test_matches_the_brute_force_definition(self, plan, ops):
        injector = FaultInjector(plan)
        for op in ops:
            if op[0] == "query":
                assert injector.health_at(op[1]) is brute_force_health(
                    plan, injector.worn_out, op[1]
                )
            elif op[0] == "write":
                injector.record_ssd_write(op[1], op[2])
            else:
                injector = pickle.loads(pickle.dumps(injector))

    def test_wearout_drops_a_remembered_healthy_span(self):
        injector = make_injector(
            errors=(ErrorWindow(50.0, 60.0, "read"),), wearout_bytes=1.0
        )
        assert injector.health_at(10.0) is DeviceHealth.HEALTHY
        injector.record_ssd_write(11.0, 1)
        assert injector.health_at(10.0) is DeviceHealth.BYPASS

    def test_remembered_span_is_not_pickled(self):
        injector = make_injector(outages=(OutageWindow(10.0, 20.0),))
        injector.health_at(15.0)
        state = injector.__getstate__()
        assert "_span" not in state and "_edges" not in state
        assert pickle.loads(pickle.dumps(injector)).health_at(
            15.0
        ) is DeviceHealth.BYPASS
