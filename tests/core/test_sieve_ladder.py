"""The sieve's two entries: ``wants`` and the slot-taking ``wants_hashed``.

``SieveStoreC.wants`` hashes one miss itself; the object engine hashes a
window of requests at once (``sieve_kernel.hash_requests``) and hands
each miss's slot and subwindow to ``wants_hashed``.  Driven over the
same miss stream, the two must leave every piece of sieve state
identical: the IMCT's count cells and last-subwindow stamps (and its
collision shadow), the MCT's counters, and all five telemetry counters.
The adaptive sieve runs the same ladder: pinned to one t2, it must
match the base sieve in the same way.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SieveStoreC, SieveStoreCConfig, WindowSpec
from repro.core.autotune import AdaptiveSieveStoreC, AdmissionBudget
from repro.core.sieve_kernel import hash_requests

#: 10-second subwindows, k = 4.
WINDOW = WindowSpec(window_seconds=40.0, subwindows=4)


def make_policy(slots, t1, t2, single_tier, tracking, cls=SieveStoreC,
                **kwargs):
    policy = cls(SieveStoreCConfig(
        imct_slots=slots, t1=t1, t2=t2, window=WINDOW,
        single_tier_admission=single_tier,
    ), **kwargs)
    if tracking:
        policy.imct.enable_collision_tracking()
    return policy


def sieve_state(policy):
    imct, mct = policy.imct, policy.mct
    shadow = imct._last_address
    return {
        "counts": bytes(imct.counts),
        "totals": imct.totals.tolist(),
        "clock": imct.clock,
        "shadow": None if shadow is None else shadow.tolist(),
        "recorded_misses": imct.recorded_misses,
        "alias_collisions": imct.alias_collisions,
        "mct": {
            address: (list(counter._counts), counter.last_subwindow)
            for address, counter in mct._counters.items()
        },
        "mct_books": (mct.inserts, mct.evictions, mct.peak_entries),
        "counters": (
            policy.admissions, policy.imct_rejections, policy.promotions,
            policy.mct_rejections,
        ),
    }


# A request: (first address, block count, seconds since the previous
# request).  A small address pool on a handful of slots keeps aliasing,
# promotions and admissions frequent; the gaps reach well past k
# subwindows so whole windows expire.
requests_strategy = st.lists(
    st.tuples(
        st.integers(0, 40),
        st.integers(1, 4),
        st.one_of(st.just(0.0), st.floats(0.0, 12.0), st.floats(40.0, 200.0)),
    ),
    min_size=1,
    max_size=120,
)


@settings(max_examples=150, deadline=None)
@given(
    requests=requests_strategy,
    slots=st.integers(1, 8),
    t1=st.integers(1, 5),
    t2=st.integers(0, 3),
    single_tier=st.booleans(),
    tracking=st.booleans(),
)
def test_wants_hashed_matches_wants(requests, slots, t1, t2, single_tier,
                                    tracking):
    scalar = make_policy(slots, t1, t2, single_tier, tracking)
    hashed = make_policy(slots, t1, t2, single_tier, tracking)
    times = np.cumsum([gap for _, _, gap in requests])
    addresses = np.array([address for address, _, _ in requests], np.int64)
    counts = np.array([count for _, count, _ in requests], np.int32)
    _, offsets, block_slots, subs = hash_requests(
        hashed, addresses, counts, times
    )
    block_slots = block_slots.tolist()
    for row, (address, count, _) in enumerate(requests):
        time = float(times[row])
        for i in range(count):
            expected = scalar.wants(address + i, False, time)
            got = hashed.wants_hashed(
                address + i, block_slots[offsets[row] + i], int(subs[row]),
                time,
            )
            assert got == expected
    assert sieve_state(hashed) == sieve_state(scalar)


@settings(max_examples=150, deadline=None)
@given(
    requests=requests_strategy,
    slots=st.integers(1, 8),
    t1=st.integers(1, 5),
    t2=st.integers(1, 3),
    single_tier=st.booleans(),
    tracking=st.booleans(),
    budget=st.sampled_from([0.0, 1.0, 1e9]),
)
def test_pinned_adaptive_sieve_is_the_base_ladder(
    requests, slots, t1, t2, single_tier, tracking, budget
):
    base = make_policy(slots, t1, t2, single_tier, tracking)
    # A controller that runs every 5 s against a budget it always
    # misses one way or the other, but may not move t2.
    adaptive = make_policy(
        slots, t1, t2, single_tier, tracking, cls=AdaptiveSieveStoreC,
        budget=AdmissionBudget(per_day=budget), adjust_interval=5.0,
        t2_bounds=(t2, t2),
    )
    time = 0.0
    for address, count, gap in requests:
        time += gap
        for block in range(address, address + count):
            assert adaptive.wants(block, False, time) == base.wants(
                block, False, time
            )
    assert sieve_state(adaptive) == sieve_state(base)
    assert adaptive.t2_history == [(0.0, t2)]


def test_hash_requests_matches_the_scalar_hash():
    policy = make_policy(slots=97, t1=9, t2=4, single_tier=False,
                         tracking=False)
    addresses = np.array([5, 1 << 40, 77], np.int64)
    counts = np.array([3, 1, 2], np.int32)
    times = np.array([0.0, 9.999, 1e6])
    blocks, offsets, slots, subs = hash_requests(
        policy, addresses, counts, times
    )
    assert blocks.tolist() == [5, 6, 7, 1 << 40, 77, 78]
    assert offsets.tolist() == [0, 3, 4, 6]
    assert slots.tolist() == [policy.imct.slot_of(b) for b in blocks.tolist()]
    assert subs.tolist() == [WINDOW.subwindow_index(t) for t in times]


def test_negative_time_raises_the_same_error_on_both_entries():
    policy = make_policy(slots=8, t1=2, t2=1, single_tier=False,
                         tracking=True)
    message = "time must be non-negative, got -0.5"
    with pytest.raises(ValueError, match=message):
        policy.wants(3, False, -0.5)
    with pytest.raises(ValueError, match=message):
        hash_requests(
            policy, np.array([3, 4], np.int64), np.array([1, 1], np.int32),
            np.array([1.0, -0.5]),
        )
    with pytest.raises(ValueError, match=message):
        policy.imct.record_miss(3, -0.5)
    # Refused before anything was counted.
    assert policy.imct.recorded_misses == 0
    assert policy.imct.alias_collisions == 0


def test_hoisted_constants_are_rebuilt_not_pickled():
    policy = make_policy(slots=4, t1=2, t2=1, single_tier=False,
                         tracking=False)
    for time in range(6):
        policy.wants(1, False, float(time))
    state = policy.__getstate__()
    for name in ("_salted", "_slots", "_subwindow_seconds", "_mct_counters"):
        assert name not in state
    copy = pickle.loads(pickle.dumps(policy))
    assert copy._mct_counters is copy.mct._counters
    for time in range(6, 30):
        assert copy.wants(1, False, float(time)) == policy.wants(
            1, False, float(time)
        )
    assert sieve_state(copy) == sieve_state(policy)
