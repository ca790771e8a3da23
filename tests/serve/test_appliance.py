"""The serving cache (repro.serve.appliance) + backend determinism."""

import random
from collections import Counter

import pytest

from repro.core.admission import build_admission_gate
from repro.faults.injector import FaultInjector
from repro.faults.plan import ErrorWindow, FaultPlan, OutageWindow
from repro.serve.appliance import ServeStats, ServingCache
from repro.serve.backend import EnsembleBackend
from repro.serve.store import ShardedByteStore


def make_cache(
    tmp_path, gate_kind="unsieved", plan=None, payload_bytes=32, **gate_kwargs
):
    store = ShardedByteStore(tmp_path / "store", shards=2, inline_bytes=64)
    gate = build_admission_gate(gate_kind, **gate_kwargs)
    backend = EnsembleBackend(payload_bytes=payload_bytes, seed=3)
    injector = FaultInjector(plan) if plan is not None else None
    return ServingCache(store, gate, backend, injector)


class VersionedBackend(EnsembleBackend):
    """A backend whose every write makes a new version of the block."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.versions = Counter()

    def payload(self, address):
        prefix = b"%d:" % self.versions[address]
        return prefix + super().payload(address)[len(prefix):]

    def write(self, address):
        self.versions[address] += 1
        return super().write(address)


class TestBackend:
    def test_payloads_deterministic_across_instances(self):
        a = EnsembleBackend(payload_bytes=48, seed=9)
        b = EnsembleBackend(payload_bytes=48, seed=9)
        assert a.payload(123) == b.payload(123)
        assert len(a.payload(123)) == 48

    def test_payloads_differ_by_address_and_seed(self):
        backend = EnsembleBackend(payload_bytes=32, seed=9)
        assert backend.payload(1) != backend.payload(2)
        assert backend.payload(1) != EnsembleBackend(
            payload_bytes=32, seed=10
        ).payload(1)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="miss_latency"):
            EnsembleBackend(miss_latency=-1)
        with pytest.raises(ValueError, match="payload_bytes"):
            EnsembleBackend(payload_bytes=0)


class TestHealthyServing:
    def test_read_miss_then_hit(self, tmp_path):
        cache = make_cache(tmp_path)  # unsieved: admit on first miss
        value = cache.read(5, time=0.0)
        assert value == cache.backend.payload(5)
        assert cache.stats.misses == 1
        again = cache.read(5, time=1.0)
        assert again == value
        assert cache.stats.hits == 1
        assert cache.backend.reads == 1  # the hit never touched the ensemble
        assert cache.stats.allocation_writes == 1

    def test_sieve_gates_admission(self, tmp_path):
        cache = make_cache(tmp_path, "sieve", imct_slots=64, t1=2, t2=1)
        for t in range(3):
            cache.read(9, time=float(t))
        # Admitted on the third miss (t1=2 then t2=1); the fourth is a hit.
        assert cache.stats.allocation_writes == 1
        assert cache.read(9, time=3.0) == cache.backend.payload(9)
        assert cache.stats.hits == 1

    def test_write_through_and_resident_update(self, tmp_path):
        cache = make_cache(tmp_path)
        cache.write(7, time=0.0)
        assert cache.backend.writes == 1  # always lands on the ensemble
        assert cache.stats.allocation_writes == 1
        cache.write(7, time=1.0)
        assert cache.stats.update_writes == 1
        assert cache.stats.allocation_writes == 1  # update, not allocation
        assert cache.read(7, time=2.0) == cache.backend.payload(7)
        assert cache.stats.hits == 2


class TestDegradedServing:
    def test_failed_read_falls_back_to_ensemble(self, tmp_path):
        plan = FaultPlan(
            errors=(ErrorWindow(10.0, 20.0, "read", probability=1.0),)
        )
        cache = make_cache(tmp_path, plan=plan)
        cache.read(4, time=0.0)  # admitted while healthy
        value = cache.read(4, time=15.0)  # device read errors -> ensemble
        assert value == cache.backend.payload(4)
        assert cache.stats.read_faults == 1
        assert cache.backend.reads == 2
        assert cache.stats.health_transitions == {"healthy->degraded": 1}

    def test_failed_read_of_a_resident_block_admits_nothing(self, tmp_path):
        plan = FaultPlan(
            errors=(ErrorWindow(100.0, 200.0, "read", probability=1.0),)
        )
        cache = make_cache(tmp_path, plan=plan)
        cache.read(4, time=0.0)  # admitted while healthy
        wear = cache.injector.ssd_bytes_written
        for time in (110.0, 120.0, 130.0):
            assert cache.read(4, time=time) == cache.backend.payload(4)
        assert cache.stats.read_faults == 3
        assert cache.stats.allocation_writes == 1
        assert cache.injector.ssd_bytes_written == wear
        assert cache.read(4, time=250.0) == cache.backend.payload(4)
        assert cache.stats.hits == 1  # the copy stayed resident

    def test_failed_resident_write_drops_the_stale_copy(self, tmp_path):
        plan = FaultPlan(
            errors=(ErrorWindow(10.0, 20.0, "write", probability=1.0),)
        )
        cache = make_cache(tmp_path, plan=plan)
        cache.write(4, time=0.0)
        cache.write(4, time=15.0)  # device update fails mid-window
        assert cache.stats.write_faults == 1
        # The stale device copy is gone: the next read misses.
        cache.read(4, time=25.0)
        assert cache.stats.misses == 2

    def test_failed_allocation_suppresses_the_frame(self, tmp_path):
        plan = FaultPlan(
            errors=(ErrorWindow(0.0, 20.0, "write", probability=1.0),)
        )
        cache = make_cache(tmp_path, plan=plan)
        cache.read(4, time=5.0)  # gate admits, device write errors
        assert cache.stats.allocation_writes == 0
        assert cache.stats.write_faults == 1
        assert len(cache.store) == 0


class TestBypassServing:
    def test_outage_routes_everything_to_the_ensemble(self, tmp_path):
        plan = FaultPlan(outages=(OutageWindow(10.0, 20.0),))
        cache = make_cache(tmp_path, plan=plan)
        cache.read(4, time=0.0)
        assert cache.read(4, time=15.0) == cache.backend.payload(4)
        assert cache.stats.bypassed == 1
        assert cache.stats.hits == 0  # the resident copy was not consulted
        # Device back: the copy admitted before the outage still serves.
        cache.read(4, time=25.0)
        assert cache.stats.hits == 1
        assert cache.stats.health_transitions == {
            "healthy->bypass": 1,
            "bypass->healthy": 1,
        }

    def test_a_write_during_an_outage_drops_the_stale_copy(self, tmp_path):
        plan = FaultPlan(outages=(OutageWindow(10.0, 20.0),))
        cache = make_cache(tmp_path, plan=plan)
        cache.backend = VersionedBackend(payload_bytes=32, seed=3)
        first = cache.write(4, time=0.0)  # version 1 admitted
        second = cache.write(4, time=15.0)  # version 2 reaches the ensemble only
        assert first != second
        assert not cache.store.contains(4)
        # Device back: the read misses and serves the ensemble's version.
        assert cache.read(4, time=25.0) == second
        assert cache.stats.hits == 0
        assert cache.stats.update_writes == 0
        assert cache.stats.allocation_writes == 2  # version 1, then the re-admission

    def test_wearout_is_permanent_bypass(self, tmp_path):
        plan = FaultPlan(wearout_bytes=64.0)
        cache = make_cache(tmp_path, plan=plan)
        cache.write(1, time=0.0)  # 32B payload -> 1 block = 512B >= budget
        assert cache.injector.worn_out
        cache.write(2, time=1.0)
        assert cache.stats.bypassed == 1


class CountingStore:
    """A store proxy tallying the operations that reach the device."""

    def __init__(self, store):
        self._store = store
        self.calls = Counter()

    def __getattr__(self, name):
        attribute = getattr(self._store, name)
        if name not in ("get", "put", "delete", "contains", "keys"):
            return attribute

        def counted(*args):
            self.calls[name] += 1
            return attribute(*args)

        return counted


def counting_cache(tmp_path, gate_kind="unsieved", **kwargs):
    """A cache whose store calls are tallied from the open on."""
    cache = make_cache(tmp_path, gate_kind, **kwargs)
    cache.store = CountingStore(cache.store)
    return cache


class StoreTags:
    """Residency asked of the device: the rule before the tag directory."""

    def __init__(self, store):
        self._store = store

    def __contains__(self, address):
        return self._store.contains(address)

    def add(self, address):
        pass

    discard = add


class TestTagDirectory:
    def test_a_rejected_read_never_touches_the_device(self, tmp_path):
        cache = counting_cache(tmp_path, "sieve", imct_slots=64, t1=9, t2=4)
        with cache:
            cache.read(5, time=0.0)
            assert cache.stats.misses == 1
            assert not cache.store.calls

    def test_misses_make_no_get_or_contains_call(self, tmp_path):
        with counting_cache(tmp_path) as cache:  # unsieved: a miss admits
            cache.read(5, time=0.0)
            cache.write(6, time=1.0)
            assert cache.stats.misses == 2
            assert cache.store.calls == {"put": 2}
            cache.read(6, time=2.0)
            cache.write(5, time=3.0)
            assert cache.stats.hits == 2
            assert cache.store.calls == {"put": 3, "get": 1}

    def test_a_reopened_store_hits_on_the_first_read(self, tmp_path):
        with make_cache(tmp_path) as first:
            first.read(5, time=0.0)
            first.write(6, time=1.0)
        with make_cache(tmp_path) as second:
            assert second.read(5, time=2.0) == second.backend.payload(5)
            second.write(6, time=3.0)
            assert second.stats.hits == 2
            assert second.stats.update_writes == 1
            assert second.backend.reads == 0

    def test_a_lost_spill_file_reads_as_a_miss_and_drops_the_tag(self, tmp_path):
        gate = dict(imct_slots=64, t1=1, t2=3)  # admits every fourth miss
        with counting_cache(tmp_path, "sieve", payload_bytes=128, **gate) as cache:
            for t in range(4):
                cache.read(5, time=float(t))
            assert cache.stats.allocation_writes == 1
            shard = cache.store._shard_dir(cache.store.shard_of(5))
            (shard / f"{5:016x}.val").unlink()
            assert cache.read(5, time=4.0) == cache.backend.payload(5)
            assert cache.stats.hits == 0
            assert cache.stats.misses == 5
            assert not cache.store.contains(5)
            # The tag went with the row: the next read asks the device nothing.
            cache.store.calls.clear()
            cache.read(5, time=5.0)
            assert cache.stats.misses == 6
            assert not cache.store.calls

    @pytest.mark.parametrize("payload_bytes", [32, 128])  # inline, spilled
    @pytest.mark.parametrize(
        "plan",
        [
            None,
            FaultPlan(
                errors=(
                    ErrorWindow(100.0, 300.0, "read", probability=0.3),
                    ErrorWindow(150.0, 350.0, "write", probability=0.3),
                ),
                seed=11,
            ),
            FaultPlan(outages=(OutageWindow(120.0, 260.0),), seed=11),
        ],
        ids=["no-plan", "error-windows", "outage"],
    )
    @pytest.mark.parametrize("gate_kind", ["sieve", "unsieved"])
    def test_tags_agree_with_probing_the_device(
        self, tmp_path, gate_kind, plan, payload_bytes
    ):
        rng = random.Random(payload_bytes)
        trace = [
            (rng.randrange(40), rng.random() < 0.3, float(step))
            for step in range(400)
        ]
        outcomes = []
        for name, probing in (("tags", False), ("probe", True)):
            cache = make_cache(
                tmp_path / name, gate_kind, plan, payload_bytes,
                imct_slots=64, t1=2, t2=1,
            )
            if probing:
                cache._tags = StoreTags(cache.store)
            with cache:
                served = [
                    cache.write(address, time) if is_write
                    else cache.read(address, time)
                    for address, is_write, time in trace
                ]
                outcomes.append(
                    (cache.stats.to_dict(), served, sorted(cache.store.keys()))
                )
        assert outcomes[0] == outcomes[1]
        stats = outcomes[0][0]
        assert stats["hits"] and stats["allocation_writes"]
        if plan is not None and plan.errors:
            assert stats["read_faults"] and stats["write_faults"]
        if plan is not None and plan.outages:
            assert stats["bypassed"]


class TestServeStats:
    def test_merge_sums_everything(self):
        a = ServeStats(requests=2, hits=1, health_transitions={"a->b": 1})
        b = ServeStats(requests=3, misses=2, health_transitions={"a->b": 2})
        merged = a.merge(b)
        assert merged.requests == 5
        assert merged.hits == 1
        assert merged.misses == 2
        assert merged.health_transitions == {"a->b": 3}

    def test_merged_of_none_is_zero(self):
        assert ServeStats.merged([]) == ServeStats()

    def test_to_dict_is_sorted_and_complete(self):
        data = ServeStats(health_transitions={"b": 2, "a": 1}).to_dict()
        assert list(data["health_transitions"]) == ["a", "b"]
        assert data["requests"] == 0
