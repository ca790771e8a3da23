"""Runtime fault injection: a :class:`FaultPlan` made queryable.

The :class:`FaultInjector` is the mutable runtime companion of an
immutable :class:`~repro.faults.plan.FaultPlan`, and the one owner of
the device-health machine (:class:`DeviceHealth`).  An appliance walks
the machine per operation, asks whether a read or write fails, and
reports every SSD write so endurance wear-out can trip.  The machine's
state, the error-draw RNG, bytes written and the wear-out instant are
plain picklable Python, so an injector rides inside checkpoints and
resumes bit-identically.
"""

from __future__ import annotations

import enum
import math
import random
from bisect import bisect_right
from typing import Optional, Tuple

from repro.faults.plan import READ, WRITE, FaultPlan, total_seconds
from repro.util.units import BLOCK_BYTES

#: A health span no time lies in: the next walk scans.
_NO_SPAN = (0.0, 0.0)


class DeviceHealth(enum.Enum):
    """The device-health state machine: HEALTHY → DEGRADED → BYPASS.

    The state at a time follows from the plan's windows and the
    wear-out instant alone (BYPASS dominates where windows overlap);
    :meth:`FaultInjector.advance` walks the machine and reports each
    transition once.

    * ``HEALTHY`` — no window is open: the SSD serves everything
      normally.
    * ``DEGRADED`` — an error or latency window is open: the device is
      up but misbehaving.  Each device read or write draws against the
      error windows (:meth:`FaultInjector.read_fails`,
      :meth:`FaultInjector.write_fails`); a failed read falls back to
      the backing ensemble, a failed write leaves no valid frame, and
      the sieve keeps observing.
    * ``BYPASS`` — an outage window is open, or the wear-out budget is
      spent (for good, from the instant it tripped): the device is
      gone and every request passes straight through to the backing
      ensemble, while the sieve keeps counting misses so blocks
      re-earn allocation after recovery.

    How a client reacts is its own: see
    :class:`~repro.core.appliance.SieveStoreAppliance` and
    :class:`~repro.serve.appliance.ServingCache`.
    """

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    BYPASS = "bypass"


class FaultInjector:
    """Stateful driver of one fault plan over one run, and the owner of
    its device-health machine."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rng = random.Random(plan.seed)
        #: cumulative SSD write bytes (endurance accounting)
        self.ssd_bytes_written = 0
        #: simulated instant the wear-out budget was exhausted, if ever
        self.worn_out_at: Optional[float] = None
        #: the machine's state as of the last :meth:`advance`
        self.health = DeviceHealth.HEALTHY
        self._derive()

    def _derive(self) -> None:
        """Derived state, never pickled: every window start and end
        (health is constant between two adjacent ones), the half-open
        span ``[lo, hi)`` around the last walk throughout which the
        device is in :attr:`health` — empty until the first walk — and
        the transition observer (see :meth:`advance`), which each run
        attaches anew."""
        windows = (*self.plan.errors, *self.plan.latency, *self.plan.outages)
        edges = {w.start for w in windows}
        edges.update(w.end for w in windows if w.end is not None)
        self._edges = sorted(edges)
        self._span = _NO_SPAN
        self.observer = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_edges"], state["_span"], state["observer"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._derive()

    # -- health -----------------------------------------------------------
    @property
    def worn_out(self) -> bool:
        return self.worn_out_at is not None

    def advance(self, time: float) -> DeviceHealth:
        """Walk the machine to ``time`` and return the state there.

        A change of state is a transition: :attr:`health` takes the new
        state and :attr:`observer`, if attached, is called once with
        ``(time, old, new)``.  O(1) while ``time`` stays between the
        same two window edges as the last walk; otherwise the windows
        are scanned and the span between the edges around ``time``
        remembered.
        """
        lo, hi = self._span
        if lo <= time < hi:
            return self.health
        lo, hi, health = self._locate(time)
        self._span = lo, hi
        old = self.health
        if health is not old:
            self.health = health
            if self.observer is not None:
                self.observer(time, old, health)
        return health

    def health_at(self, time: float) -> DeviceHealth:
        """Device health at ``time``, without walking the machine."""
        return self._locate(time)[2]

    def _locate(self, time: float) -> Tuple[float, float, DeviceHealth]:
        """``(lo, hi, health)``: the span between the window edges around
        ``time`` (all time once worn out) and the health throughout it."""
        if self.worn_out:
            return -math.inf, math.inf, DeviceHealth.BYPASS
        plan = self.plan
        if any(w.contains(time) for w in plan.outages):
            health = DeviceHealth.BYPASS
        elif any(w.contains(time) for w in (*plan.errors, *plan.latency)):
            health = DeviceHealth.DEGRADED
        else:
            health = DeviceHealth.HEALTHY
        edges = self._edges
        i = bisect_right(edges, time)
        lo = edges[i - 1] if i else -math.inf
        return lo, edges[i] if i < len(edges) else math.inf, health

    # -- per-operation error draws ----------------------------------------
    def _op_fails(self, kind: str, time: float) -> bool:
        for window in self.plan.errors:
            if window.kind == kind and window.contains(time):
                if window.probability >= 1.0 or self._rng.random() < window.probability:
                    return True
        return False

    def read_fails(self, time: float) -> bool:
        """One SSD block read at ``time``; True means it errored."""
        return self._op_fails(READ, time)

    def write_fails(self, time: float) -> bool:
        """One SSD block write at ``time``; True means it errored."""
        return self._op_fails(WRITE, time)

    # -- endurance wear-out -----------------------------------------------
    def record_ssd_write(self, time: float, blocks: int) -> None:
        """Account ``blocks`` 512-byte blocks written to the SSD.

        When the plan's ``wearout_bytes`` budget is exhausted the device
        is marked worn out at ``time``; the machine enters BYPASS on its
        next walk.
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
