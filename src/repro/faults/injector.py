"""Runtime fault injection: a :class:`FaultPlan` made queryable.

The :class:`FaultInjector` is the mutable runtime companion of an
immutable :class:`~repro.faults.plan.FaultPlan`.  The appliance asks it,
per operation, whether the device is available, whether a read or write
fails, and reports every SSD write so endurance wear-out can trip.  All
state — the RNG for probabilistic error draws, cumulative bytes
written, the wear-out instant — is plain picklable Python, so an
injector rides inside crash-consistent simulation checkpoints and
resumes bit-identically (what it remembers to answer health queries
fast is derived from the plan, and rebuilt on load rather than pickled).
"""

from __future__ import annotations

import enum
import math
import random
from bisect import bisect_right
from typing import Optional, Tuple

from repro.faults.plan import READ, WRITE, FaultPlan, total_seconds
from repro.util.units import BLOCK_BYTES

#: A health span no time lies in: the next query scans.
_NO_SPAN = (0.0, 0.0, None)


class DeviceHealth(enum.Enum):
    """The appliance's device-health state machine states.

    * ``HEALTHY`` — the SSD serves everything normally.
    * ``DEGRADED`` — the device is up but misbehaving (transient
      read/write errors, latency degradation): reads that fail fall
      back to the backing ensemble, writes that fail suppress
      allocation, and the sieve keeps observing.
    * ``BYPASS`` — the device is gone (outage or wear-out): every
      request passes straight through to the backing ensemble.
    """

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    BYPASS = "bypass"


class FaultInjector:
    """Stateful driver of one fault plan over one simulation run."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rng = random.Random(plan.seed)
        #: cumulative SSD write bytes (endurance accounting)
        self.ssd_bytes_written = 0
        #: simulated instant the wear-out budget was exhausted, if ever
        self.worn_out_at: Optional[float] = None
        #: operation-level error tallies (mirrored into CacheStats)
        self.read_errors = 0
        self.write_errors = 0
        self._derive()

    def _derive(self) -> None:
        """Derived state, never pickled: every window start and end
        (health is constant between two adjacent ones), and the
        half-open span ``[lo, hi)`` around the last answer with that
        answer — empty until the first query."""
        windows = (*self.plan.errors, *self.plan.latency, *self.plan.outages)
        edges = {w.start for w in windows}
        edges.update(w.end for w in windows if w.end is not None)
        self._edges = sorted(edges)
        self._span = _NO_SPAN

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_edges"], state["_span"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._derive()

    # -- health -----------------------------------------------------------
    @property
    def worn_out(self) -> bool:
        return self.worn_out_at is not None

    def health_at(self, time: float) -> DeviceHealth:
        """Device health the appliance should assume at ``time``.

        O(1) while ``time`` stays between the same two window edges as
        the last query; otherwise the windows are scanned and the span
        between the edges around ``time`` remembered.
        """
        lo, hi, health = self._span
        if lo <= time < hi:
            return health
        health = self._scan_health(time)
        if self.worn_out:
            lo, hi = -math.inf, math.inf
        else:
            edges = self._edges
            i = bisect_right(edges, time)
            lo = edges[i - 1] if i else -math.inf
            hi = edges[i] if i < len(edges) else math.inf
        self._span = (lo, hi, health)
        return health

    def _scan_health(self, time: float) -> DeviceHealth:
        if self.worn_out or any(w.contains(time) for w in self.plan.outages):
            return DeviceHealth.BYPASS
        if any(w.contains(time) for w in self.plan.errors) or any(
            w.contains(time) for w in self.plan.latency
        ):
            return DeviceHealth.DEGRADED
        return DeviceHealth.HEALTHY

    def latency_factor(self, time: float) -> float:
        """Service-time multiplier at ``time`` (1.0 when unimpaired)."""
        factor = 1.0
        for window in self.plan.latency:
            if window.contains(time):
                factor = max(factor, window.factor)
        return factor

    # -- per-operation error draws ----------------------------------------
    def _op_fails(self, kind: str, time: float) -> bool:
        for window in self.plan.errors:
            if window.kind == kind and window.contains(time):
                if window.probability >= 1.0 or self._rng.random() < window.probability:
                    return True
        return False

    def read_fails(self, time: float) -> bool:
        """One SSD block read at ``time``; True means it errored."""
        if self._op_fails(READ, time):
            self.read_errors += 1
            return True
        return False

    def write_fails(self, time: float) -> bool:
        """One SSD block write at ``time``; True means it errored."""
        if self._op_fails(WRITE, time):
            self.write_errors += 1
            return True
        return False

    # -- endurance wear-out -----------------------------------------------
    def record_ssd_write(self, time: float, blocks: int) -> None:
        """Account ``blocks`` 512-byte blocks written to the SSD.

        When the plan's ``wearout_bytes`` budget is exhausted the device
        is marked worn out at ``time``; the appliance transitions to
        BYPASS on its next health check.
        """
        self.ssd_bytes_written += blocks * BLOCK_BYTES
        if (
            self.plan.wearout_bytes is not None
            and not self.worn_out
            and self.ssd_bytes_written >= self.plan.wearout_bytes
        ):
            self.worn_out_at = time
            self._span = _NO_SPAN

    # -- end-of-run accounting --------------------------------------------
    def time_in_states(self, duration: float) -> Tuple[float, float]:
        """``(degraded_seconds, bypass_seconds)`` over ``[0, duration]``.

        Computed analytically from the plan's windows (clipped to the
        run) plus the dynamic wear-out instant; bypass time dominates
        overlapping degraded windows.
        """
        bypass = self.plan.bypass_intervals(duration, self.worn_out_at)
        degraded = self.plan.degraded_intervals(duration, self.worn_out_at)
        return total_seconds(degraded), total_seconds(bypass)
