"""Instrumentation glue between the simulators and the metrics registry.

Everything here is called **only when observability is enabled** — the
hot paths stay untouched when it is off.  Per-block costs are avoided
even when it is on: sieve decision counts are adopted from the tallies
the policies already keep (sampled at run end), epoch wall times are
observed once per boundary, and device-health transitions fire on the
rare transition itself.

Metric names emitted (see the README's Observability section):

==============================================  =========  ==========================
``sim_requests_total``                          counter    policy, engine
``sim_blocks_total``                            counter    policy, engine
``sim_wall_seconds_total``                      counter    policy, engine
``sim_blocks_per_second``                       gauge      policy, engine
``sim_epoch_wall_seconds``                      histogram  policy, engine
``sieve_admissions_total``                      counter    policy
``sieve_rejections_total``                      counter    policy, tier
``sieve_promotions_total``                      counter    policy
``sieve_tracked_blocks``                        gauge      policy
``imct_alias_collisions_total``                 counter    policy
``mct_inserts_total`` / ``mct_evictions_total`` counter    policy
``mct_entries`` / ``mct_peak_entries``          gauge      policy
``appliance_health_transitions_total``          counter    policy, from_state, to_state
==============================================  =========  ==========================
"""

from __future__ import annotations

import time
from typing import Callable

from repro.obs.metrics import MetricsRegistry

#: Histogram bounds for per-epoch wall times (sub-ms to minutes).
EPOCH_WALL_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 15.0, 60.0, 300.0,
)


def record_run_throughput(
    registry: MetricsRegistry,
    policy_name: str,
    engine: str,
    requests: int,
    blocks: int,
    wall_seconds: float,
) -> None:
    """Whole-run engine throughput counters + blocks/sec gauge."""
    labels = {"policy": policy_name, "engine": engine}
    registry.counter(
        "sim_requests_total", "Trace requests replayed", ("policy", "engine")
    ).inc(requests, **labels)
    registry.counter(
        "sim_blocks_total",
        "512-byte block accesses simulated",
        ("policy", "engine"),
    ).inc(blocks, **labels)
    registry.counter(
        "sim_wall_seconds_total",
        "Wall-clock seconds spent simulating",
        ("policy", "engine"),
    ).inc(wall_seconds, **labels)
    registry.gauge(
        "sim_blocks_per_second",
        "Simulation throughput of the last run",
        ("policy", "engine"),
    ).set(blocks / wall_seconds if wall_seconds > 0 else 0.0, **labels)


def make_epoch_timer(
    registry: MetricsRegistry, policy_name: str, engine: str
) -> Callable[[int, int], None]:
    """Boundary hook observing wall time between epoch boundaries.

    The returned callable matches the engines' ``boundary_hook``
    signature ``(epoch, cursor)``.
    """
    histogram = registry.histogram(
        "sim_epoch_wall_seconds",
        "Wall-clock seconds spent simulating each epoch",
        ("policy", "engine"),
        buckets=EPOCH_WALL_BUCKETS,
    )
    state = {"last": time.perf_counter()}

    def hook(epoch: int, cursor: int) -> None:
        now = time.perf_counter()
        histogram.observe(
            now - state["last"], policy=policy_name, engine=engine
        )
        state["last"] = now

    return hook


def enable_policy_tracking(policy) -> None:
    """Switch on the cheap in-policy instrumentation a policy offers.

    Currently: IMCT alias-collision tracking (a per-slot last-address
    shadow array, allocated only here).  Safe to call for any policy.
    """
    imct = getattr(policy, "imct", None)
    if imct is not None and hasattr(imct, "enable_collision_tracking"):
        imct.enable_collision_tracking()


def sample_sieve_metrics(
    registry: MetricsRegistry, policy, policy_name: str
) -> None:
    """Adopt the sieve's own decision tallies as cumulative counters.

    Reads whatever the policy exposes (duck-typed, all optional):
    SieveStore-C's admissions / tier rejections / promotions and its
    IMCT/MCT tables; SieveStore-D's tracked-block count.  Policies
    without tallies (AOD, WMNA, ...) contribute nothing.
    """
    labels = {"policy": policy_name}
    if hasattr(policy, "admissions"):
        registry.counter(
            "sieve_admissions_total",
            "Blocks admitted through the sieve",
            ("policy",),
        ).set_total(policy.admissions, **labels)
    if hasattr(policy, "imct_rejections"):
        rejections = registry.counter(
            "sieve_rejections_total",
            "Misses rejected by the sieve, per tier",
            ("policy", "tier"),
        )
        rejections.set_total(policy.imct_rejections, tier="imct", **labels)
        if hasattr(policy, "mct_rejections"):
            rejections.set_total(policy.mct_rejections, tier="mct", **labels)
    if hasattr(policy, "promotions"):
        registry.counter(
            "sieve_promotions_total",
            "Blocks promoted from the IMCT into the MCT",
            ("policy",),
        ).set_total(policy.promotions, **labels)
    if hasattr(policy, "tracked_blocks"):
        registry.gauge(
            "sieve_tracked_blocks",
            "Blocks with live metastate in the sieve",
            ("policy",),
        ).set(policy.tracked_blocks, **labels)

    imct = getattr(policy, "imct", None)
    if imct is not None and hasattr(imct, "alias_collisions"):
        registry.counter(
            "imct_alias_collisions_total",
            "IMCT miss recordings that aliased a different address "
            "(requires collision tracking)",
            ("policy",),
        ).set_total(imct.alias_collisions, **labels)
    mct = getattr(policy, "mct", None)
    if mct is not None and hasattr(mct, "inserts"):
        registry.counter(
            "mct_inserts_total", "Blocks entering the precise MCT", ("policy",)
        ).set_total(mct.inserts, **labels)
        registry.counter(
            "mct_evictions_total",
            "Stale blocks pruned from the precise MCT",
            ("policy",),
        ).set_total(mct.evictions, **labels)
        registry.gauge(
            "mct_entries", "Live MCT entries at end of run", ("policy",)
        ).set(len(mct), **labels)
        registry.gauge(
            "mct_peak_entries", "Peak MCT entries over the run", ("policy",)
        ).set(mct.peak_entries, **labels)


def make_health_observer(
    registry: MetricsRegistry, policy_name: str, events=None
) -> Callable[[float, object, object], None]:
    """Observer for the injector's device-health state machine.

    Matches ``FaultInjector.observer``'s signature ``(time, old_state,
    new_state)``; transitions are rare, so this never touches the
    request hot path.
    """
    transitions = registry.counter(
        "appliance_health_transitions_total",
        "Device-health state-machine transitions",
        ("policy", "from_state", "to_state"),
    )

    def observer(sim_time: float, old, new) -> None:
        transitions.inc(
            policy=policy_name, from_state=old.name, to_state=new.name
        )
        if events is not None:
            events.emit(
                "health_transition",
                policy=policy_name,
                sim_time=round(float(sim_time), 3),
                from_state=old.name,
                to_state=new.name,
            )

    return observer
