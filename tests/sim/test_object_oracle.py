"""The object engine against the per-miss ladder, request by request.

For a SieveStore-C whose ladder the kernel may drive, the object engine
records each run's cold rejections in one batch, by the same cold bound
the fast loop uses (:func:`repro.core.sieve_kernel.cold_mask`), and
settles a request of cold rejections only without walking it, so a
fast-versus-object comparison cannot catch a fault in that bound. This
oracle shares none of it: each request of the same rows goes through
:func:`tests.oracle.process_requests`, where every miss takes the
policy's own ``wants`` (hash, tier 1, tier 2, one recording at a time),
with the walk's epoch boundaries and end-of-run steps spelled out here.
"""

import json
import sys
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from repro.cache.block_cache import BlockCache
from repro.cache.stats import CacheStats
from repro.cache.write_policy import WriteMode
from repro.core import SieveStoreC, SieveStoreCConfig
from repro.core.appliance import SieveStoreAppliance
from repro.faults.injector import DeviceHealth, FaultInjector
from repro.sim import engine
from repro.sim.engine import simulate
from repro.sim.serialize import stats_to_dict
from repro.util.intervals import SECONDS_PER_DAY
from tests.oracle import process_requests
from tests.sim.test_object_loop import PLAN

#: The tiny trace's first days: the plan's error windows and outage
#: fall inside them.
DAYS = 5


def tracked_sieve(ctx):
    policy = SieveStoreC(SieveStoreCConfig(imct_slots=ctx.imct_slots))
    policy.imct.enable_collision_tracking()
    return policy


def scalar_replay(ctx, columns, plan, write_mode):
    """The rows one request at a time, every miss through ``wants``."""
    policy, stats = tracked_sieve(ctx), CacheStats(days=DAYS)
    faults = FaultInjector(plan) if plan is not None else None
    appliance = SieveStoreAppliance(
        BlockCache(ctx.sieved_capacity), policy, stats,
        write_mode=write_mode, faults=faults,
    )
    requests = columns.to_trace().requests
    for day in range(DAYS):
        appliance.begin_day(day)
        process_requests(appliance, [
            request for request in requests
            if request.issue_time // SECONDS_PER_DAY == day
        ])
    end = DAYS * float(SECONDS_PER_DAY)
    appliance.flush_dirty(end - 1.0)
    if faults is not None:
        stats.degraded_seconds, stats.bypass_seconds = faults.time_in_states(end)
    return appliance


def state(stats, cache, policy):
    """Everything the two replays must agree on."""
    imct = policy.imct
    return {
        "stats": json.dumps(stats_to_dict(stats), sort_keys=True),
        "lru": list(cache._order),
        "imct": (bytes(imct.counts), bytes(imct.totals), imct.clock),
        "last_addresses": bytes(imct._last_address),
        "mct": {
            address: (list(counter._counts), counter._last_subwindow)
            for address, counter in policy.mct._counters.items()
        },
        "counters": {
            name: getattr(owner, name)
            for owner, names in (
                (policy, ("admissions", "imct_rejections", "promotions",
                          "mct_rejections")),
                (imct, ("recorded_misses", "alias_collisions")),
            )
            for name in names
        },
    }


@contextmanager
def recorded_rows(monkeypatch):
    """Count the ``(base, n, is_write, issue)`` of each row the appliance
    decides through ``process_row``."""
    processed, process_row = Counter(), SieveStoreAppliance.process_row

    def recording(self, base, n, is_write, issue, *args):
        processed[base, n, is_write, issue] += 1
        return process_row(self, base, n, is_write, issue, *args)

    with monkeypatch.context() as patch:
        patch.setattr(SieveStoreAppliance, "process_row", recording)
        yield processed


def settled_rows(columns, processed):
    """Issue times of the rows no ``process_row`` call decided."""
    settled = []
    for row in zip(columns.address.tolist(), columns.block_count.tolist(),
                   columns.is_write.tolist(), columns.issue_time.tolist()):
        if processed[row]:
            processed[row] -= 1
        else:
            settled.append(row[3])
    return settled


@pytest.mark.parametrize("write_mode", list(WriteMode), ids=lambda m: m.name)
@pytest.mark.parametrize("plan", [None, PLAN], ids=["healthy", "faulted"])
def test_object_engine_matches_the_per_miss_ladder(tiny_context, plan,
                                                   write_mode, monkeypatch):
    columns = tiny_context.columnar_trace()
    columns = columns.take(
        np.flatnonzero(columns.issue_time < DAYS * SECONDS_PER_DAY)
    )
    oracle = scalar_replay(tiny_context, columns, plan, write_mode)
    expected = state(oracle.stats, oracle.cache, oracle.policy)
    # The tiny trace's runs hold 1,230 to 5,682 blocks, so its length
    # alone would never decide a run per miss: the threshold is forced
    # both ways, every run batched and none.
    for min_blocks in (0, sys.maxsize):
        monkeypatch.setattr(engine, "_BATCH_MIN_BLOCKS", min_blocks)
        with recorded_rows(monkeypatch) as processed:
            result = simulate(
                columns, tracked_sieve(tiny_context), tiny_context.sieved_capacity,
                DAYS, write_mode=write_mode, fast_path=False, fault_plan=plan,
            )
        assert result.engine == "object"
        assert state(result.stats, result.cache, result.policy) == expected, min_blocks
        if min_blocks == 0:
            settled = settled_rows(columns, processed)
    # Requests settled at their run's head never reached process_row,
    # in every health state the plan visits.
    assert 0 < len(settled) < len(columns)
    if plan is not None:
        faults = FaultInjector(plan)
        assert {faults.health_at(issue) for issue in settled} == set(DeviceHealth)
    # The comparison is not vacuous: the sieve rejected, promoted and
    # admitted, aliases collided, and the plan's paths were taken.
    counters = expected["counters"]
    assert min(counters.values()) > 0
    if plan is not None:
        total = oracle.stats.total
        assert min(total.read_errors, total.write_errors,
                   total.bypass_accesses) > 0
