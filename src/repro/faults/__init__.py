"""Device-fault modeling: declarative plans plus the runtime injector.

The paper's appliance is transparent: the ensemble keeps serving when
the SSD misbehaves.  This package models that misbehaviour —

* :class:`FaultPlan` / :class:`ErrorWindow` / :class:`LatencyWindow` /
  :class:`OutageWindow`: declarative, JSON round-trippable schedules of
  transient errors, latency degradation, whole-device outages, and
  endurance wear-out;
* :class:`FaultInjector`: the per-run stateful driver the appliances
  query (deterministic, picklable, checkpoint-safe), and the one owner
  of the device-health machine;
* :class:`DeviceHealth`: the HEALTHY → DEGRADED → BYPASS state machine
  itself, whose transitions the appliances only react to.
"""

from repro.faults.injector import DeviceHealth, FaultInjector
from repro.faults.plan import (
    PLAN_SCHEMA_VERSION,
    ErrorWindow,
    FaultPlan,
    LatencyWindow,
    OutageWindow,
)

__all__ = [
    "PLAN_SCHEMA_VERSION",
    "DeviceHealth",
    "ErrorWindow",
    "FaultInjector",
    "FaultPlan",
    "LatencyWindow",
    "OutageWindow",
]
