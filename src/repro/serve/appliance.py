"""The serving cache: sieve-gated admission over a real byte store.

:class:`ServingCache` is the live counterpart of the trace simulator's
frame-counting appliance.  It glues together the three existing layers:

* a :class:`~repro.serve.store.ShardedByteStore` holding actual bytes
  on an actual filesystem (the "SSD"),
* an admission gate from :func:`repro.core.admission.build_admission_gate`
  (the paper's continuous sieve, or an unsieved baseline) consulted on
  every miss, and
* a :class:`~repro.faults.injector.FaultInjector`, the owner of the
  device-health machine (:class:`~repro.faults.injector.DeviceHealth`).
  This cache reacts to its state — DEGRADED drops individual device
  reads/writes, BYPASS sends everything straight to the backing
  ensemble, the device keeping its bytes — and tallies its transitions.

Two clocks, deliberately distinct: device health is evaluated at the
**trace issue time** passed into every operation (so a fault plan's
DEGRADED→BYPASS transition lands deterministically at the same request
for every run), while operation *latency* is whatever real wall time
the caller measures around the call.

Residency is decided from an in-memory tag directory, as in the
paper's appliance (all metastate in memory; the SSD is charged only for
hits and allocation-writes): a miss — the bulk of a sieved run — never
costs the device an operation.

Every public operation returns the payload bytes, so callers can (and
the tests do) verify content end to end against the deterministic
backend.  :class:`ServeStats` is plain picklable data and merges across
client processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.cache.allocation import AllocationPolicy
from repro.faults.injector import DeviceHealth, FaultInjector
from repro.obs import runtime
from repro.serve.backend import EnsembleBackend
from repro.serve.store import ShardedByteStore
from repro.util.units import bytes_to_blocks


@dataclass
class ServeStats:
    """One serving cache's operation tallies (picklable, mergeable)."""

    requests: int = 0
    reads: int = 0
    writes: int = 0
    hits: int = 0
    misses: int = 0
    #: first-time admissions the gate let onto the device — the
    #: endurance cost the sieve exists to suppress.
    allocation_writes: int = 0
    #: overwrites of already-resident blocks (not allocation cost).
    update_writes: int = 0
    #: operations served entirely by the ensemble (device in BYPASS).
    bypassed: int = 0
    #: individual device ops dropped while DEGRADED.
    read_faults: int = 0
    write_faults: int = 0
    #: ``"healthy->bypass": count`` style transition tallies.
    health_transitions: Dict[str, int] = field(default_factory=dict)

    def merge(self, other: "ServeStats") -> "ServeStats":
        """Elementwise sum (client processes tally independently)."""
        merged_transitions = dict(self.health_transitions)
        for key, count in other.health_transitions.items():
            merged_transitions[key] = merged_transitions.get(key, 0) + count
        return ServeStats(
            requests=self.requests + other.requests,
            reads=self.reads + other.reads,
            writes=self.writes + other.writes,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            allocation_writes=self.allocation_writes + other.allocation_writes,
            update_writes=self.update_writes + other.update_writes,
            bypassed=self.bypassed + other.bypassed,
            read_faults=self.read_faults + other.read_faults,
            write_faults=self.write_faults + other.write_faults,
            health_transitions=merged_transitions,
        )

    @classmethod
    def merged(cls, parts: Iterable["ServeStats"]) -> "ServeStats":
        total = cls()
        for part in parts:
            total = total.merge(part)
        return total

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "reads": self.reads,
            "writes": self.writes,
            "hits": self.hits,
            "misses": self.misses,
            "allocation_writes": self.allocation_writes,
            "update_writes": self.update_writes,
            "bypassed": self.bypassed,
            "read_faults": self.read_faults,
            "write_faults": self.write_faults,
            "health_transitions": dict(sorted(self.health_transitions.items())),
        }


class ServingCache:
    """Byte-serving cache: store + admission gate + fault machinery.

    The addresses resident on the device are held in memory (the tag
    directory), read once from ``store.keys()`` on open — so a reopened
    store keeps serving what it held — and kept current by every
    admission, failed or bypassed update and self-healed read that goes
    through this cache.

    Ownership rule: one ``ServingCache`` per address partition.  Nothing
    else may add or remove this cache's addresses in the store while it
    is open — the rule :mod:`repro.serve.bench` already imposes so that
    each client's private sieve sees its addresses' whole miss history.
    Its operations take non-decreasing times, as its gate does (see
    :func:`~repro.core.admission.build_admission_gate`).
    """

    def __init__(
        self,
        store: ShardedByteStore,
        gate: AllocationPolicy,
        backend: EnsembleBackend,
        injector: Optional[FaultInjector] = None,
    ):
        self.store = store
        self.gate = gate
        self.backend = backend
        self.injector = injector
        self.stats = ServeStats()
        if injector is not None:
            injector.observer = self._count_transition
        #: the tag directory: every address with a value on the device.
        self._tags = set(store.keys())

    # -- health ------------------------------------------------------------
    def _count_transition(self, time: float, old: DeviceHealth, new: DeviceHealth) -> None:
        """The injector's observer: tally one device-health transition."""
        key = f"{old.value}->{new.value}"
        self.stats.health_transitions[key] = (
            self.stats.health_transitions.get(key, 0) + 1
        )
        registry = runtime.get_registry()
        if registry is not None:
            registry.counter(
                "serve_health_transitions_total",
                "Serving-cache device-health transitions",
                ("from_state", "to_state"),
            ).inc(from_state=old.value, to_state=new.value)

    # -- operations --------------------------------------------------------
    def read(self, address: int, time: float) -> bytes:
        """Serve a read: device hit, ensemble fallback, sieve on miss."""
        self.stats.requests += 1
        self.stats.reads += 1
        injector = self.injector
        health = DeviceHealth.HEALTHY if injector is None else injector.advance(time)
        if health is DeviceHealth.BYPASS:
            self.stats.bypassed += 1
            self._observe_op("read", "bypass")
            return self.backend.read(address)
        value = None
        # The fault draw comes first, resident or not: the fault RNG is
        # stateful, so where it is consulted is part of the statistics.
        if health is DeviceHealth.DEGRADED and injector.read_fails(time):
            self.stats.read_faults += 1  # errored: fall back to the ensemble
        elif address in self._tags:
            value = self.store.get(address)
            self._observe_device_op("get")
            if value is None:
                # The store dropped a row whose spilled file was torn
                # or missing; from here on this is an ordinary miss.
                self._tags.discard(address)
        if value is not None:
            self.stats.hits += 1
            self._observe_op("read", "hit")
            return value
        self.stats.misses += 1
        self._observe_op("read", "miss")
        value = self.backend.read(address)
        # A faulted read of a resident block is no sieve miss: the block
        # is still on the device, so there is nothing to admit.
        if address not in self._tags:
            self._maybe_admit(address, False, time, value, health)
        return value

    def write(self, address: int, time: float) -> bytes:
        """Serve a write: write-through to the ensemble, sieve the device copy."""
        self.stats.requests += 1
        self.stats.writes += 1
        value = self.backend.write(address)
        injector = self.injector
        health = DeviceHealth.HEALTHY if injector is None else injector.advance(time)
        if health is DeviceHealth.BYPASS:
            self.stats.bypassed += 1
            if address in self._tags:
                # The ensemble moved on without the device: its copy is
                # stale now and must not serve once the device returns.
                self.store.delete(address)
                self._tags.discard(address)
                self._observe_device_op("delete")
            self._observe_op("write", "bypass")
            return value
        if address in self._tags:
            # Resident block: the device copy must be refreshed or
            # dropped — a failed update may never leave stale bytes.
            self.stats.hits += 1
            if health is DeviceHealth.DEGRADED and injector.write_fails(time):
                self.stats.write_faults += 1
                self.store.delete(address)
                self._tags.discard(address)
                self._observe_device_op("delete")
                self._observe_op("write", "fault")
            else:
                self.store.put(address, value)
                self._observe_device_op("put")
                self.stats.update_writes += 1
                self._record_device_write(time, value)
                self._observe_op("write", "hit")
            return value
        self.stats.misses += 1
        self._observe_op("write", "miss")
        self._maybe_admit(address, True, time, value, health)
        return value

    # -- admission ---------------------------------------------------------
    def _maybe_admit(
        self, address: int, is_write: bool, time: float, value: bytes,
        health: DeviceHealth,
    ) -> None:
        """Consult the gate on a miss; allocate when it says so."""
        if not self.gate.wants(address, is_write, time):
            return
        if health is DeviceHealth.DEGRADED and self.injector.write_fails(time):
            # The allocation write itself errored: no frame, no wear.
            self.stats.write_faults += 1
            return
        self.store.put(address, value)
        self._tags.add(address)
        self._observe_device_op("put")
        self.stats.allocation_writes += 1
        self._record_device_write(time, value)
        registry = runtime.get_registry()
        if registry is not None:
            registry.counter(
                "serve_allocation_writes_total",
                "Blocks admitted onto the serving device",
            ).inc()

    def _record_device_write(self, time: float, value: bytes) -> None:
        if self.injector is not None:
            self.injector.record_ssd_write(time, bytes_to_blocks(len(value)))

    # -- observability -----------------------------------------------------
    @staticmethod
    def _observe_op(op: str, outcome: str) -> None:
        registry = runtime.get_registry()
        if registry is not None:
            registry.counter(
                "serve_ops_total",
                "Serving-cache operations by outcome",
                ("op", "outcome"),
            ).inc(op=op, outcome=outcome)

    @staticmethod
    def _observe_device_op(op: str) -> None:
        registry = runtime.get_registry()
        if registry is not None:
            registry.counter(
                "serve_device_ops_total",
                "Store operations the serving cache issued to the device",
                ("op",),
            ).inc(op=op)

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "ServingCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
