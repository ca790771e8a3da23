"""One health machine, two clients: the replay appliance and the serving cache.

The injector owns device health; both appliances only react to it.  The
same plan walked at the same times must therefore report the same
transitions to each, whether a trace request or a served read drives it.
Error windows are certain (probability 1.0) so that neither client draws
from the fault RNG there, and every operation touches a fresh address
that each client admits, writing one block: wear-out then trips at the
same operation in both.
"""

from repro.cache import AllocateOnDemand, BlockCache
from repro.cache.stats import CacheStats
from repro.core.admission import build_admission_gate
from repro.core.appliance import SieveStoreAppliance
from repro.faults import (
    DeviceHealth,
    ErrorWindow,
    FaultInjector,
    FaultPlan,
    LatencyWindow,
    OutageWindow,
)
from repro.serve.appliance import ServingCache
from repro.serve.backend import EnsembleBackend
from repro.serve.store import ShardedByteStore
from repro.traces.model import IOKind, IORequest
from repro.util.units import BLOCK_BYTES
from tests.oracle import process_request

H, D, B = DeviceHealth.HEALTHY, DeviceHealth.DEGRADED, DeviceHealth.BYPASS
PLAN = FaultPlan(
    errors=(ErrorWindow(10.0, 20.0, "read"), ErrorWindow(10.0, 20.0, "write")),
    latency=(LatencyWindow(30.0, 40.0, 3.0),),
    outages=(OutageWindow(50.0, 60.0),),
    # 40 admissions before the outage, the 45th at t=64 spends it.
    wearout_bytes=45 * BLOCK_BYTES,
)
TIMES = [float(t) for t in range(100)]
EXPECTED = [
    (10.0, H, D), (20.0, D, H), (30.0, H, D), (40.0, D, H),
    (50.0, H, B), (60.0, B, H), (65.0, H, B),
]


def recorder(calls, then=None):
    """An observer appending ``(time, old, new)`` and calling ``then``."""
    def observer(time, old, new):
        calls.append((time, old, new))
        if then is not None:
            then(time, old, new)
    return observer


def replay_transitions():
    appliance = SieveStoreAppliance(
        BlockCache(1024), AllocateOnDemand(), CacheStats(days=1),
        faults=FaultInjector(PLAN),
    )
    calls = []
    appliance.faults.observer = recorder(calls)
    for address, time in enumerate(TIMES):
        process_request(appliance, IORequest(
            issue_time=time, completion_time=time + 0.4, server_id=0,
            volume_id=0, block_offset=address, block_count=1,
            kind=IOKind.READ,
        ))
    return calls


def serve_transitions(tmp_path):
    cache = ServingCache(
        ShardedByteStore(tmp_path / "store", shards=2, inline_bytes=64),
        build_admission_gate("unsieved"),
        EnsembleBackend(payload_bytes=32, seed=3),
        FaultInjector(PLAN),
    )
    calls = []
    injector = cache.injector
    injector.observer = recorder(calls, then=injector.observer)
    with cache:
        for address, time in enumerate(TIMES):
            assert cache.read(address, time) == cache.backend.payload(address)
    return calls, cache.stats


def test_both_clients_see_the_same_transitions(tmp_path):
    replayed = replay_transitions()
    served, stats = serve_transitions(tmp_path)
    assert replayed == served == EXPECTED
    # Each client spells a transition its own way, as it always has:
    # the replay's metrics by name, the serving tally by value.
    assert [(old.name, new.name) for _t, old, new in replayed] == [
        ("HEALTHY", "DEGRADED"), ("DEGRADED", "HEALTHY"),
        ("HEALTHY", "DEGRADED"), ("DEGRADED", "HEALTHY"),
        ("HEALTHY", "BYPASS"), ("BYPASS", "HEALTHY"), ("HEALTHY", "BYPASS"),
    ]
    assert stats.health_transitions == {
        "healthy->degraded": 2,
        "degraded->healthy": 2,
        "healthy->bypass": 2,
        "bypass->healthy": 1,
    }
    assert stats.allocation_writes == 45
