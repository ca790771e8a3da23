"""K-node appliance clusters (Section 7 extension, simulated)."""

import hashlib
import json

import numpy as np
import pytest

from repro.cache.allocation import AllocateOnDemand
from repro.core.sievestore_c import SieveStoreC, SieveStoreCConfig
from repro.ensemble.cluster import simulate_cluster
from repro.sim.engine import simulate
from repro.sim.serialize import stats_to_dict

DAYS = 8


def sieve_factory(node):
    return SieveStoreC(SieveStoreCConfig(imct_slots=1 << 13))


class TestClusterSimulation:
    @pytest.fixture(scope="class")
    def one_node(self, tiny_trace, tiny_context):
        return simulate_cluster(
            tiny_trace,
            sieve_factory,
            total_capacity_blocks=tiny_context.sieved_capacity,
            days=DAYS,
            nodes=1,
        )

    @pytest.fixture(scope="class")
    def four_nodes(self, tiny_trace, tiny_context):
        return simulate_cluster(
            tiny_trace,
            sieve_factory,
            total_capacity_blocks=tiny_context.sieved_capacity,
            days=DAYS,
            nodes=4,
        )

    def test_single_node_matches_flat_simulation(
        self, one_node, tiny_trace, tiny_context
    ):
        flat = simulate(
            tiny_trace,
            sieve_factory(0),
            tiny_context.sieved_capacity,
            DAYS,
            track_minutes=False,
            fast_path=False,
        )
        assert (one_node.engines, flat.engine) == (["fast"], "object")
        assert stats_to_dict(one_node.node_stats[0]) == stats_to_dict(flat.stats)
        assert one_node.total.accesses == flat.stats.total.accesses
        assert one_node.total.hits == flat.stats.total.hits

    def test_cluster_sees_every_access(self, four_nodes, tiny_trace):
        assert four_nodes.total.accesses == tiny_trace.total_blocks()

    def test_partitions_cover_all_servers(self, four_nodes):
        covered = sorted(s for p in four_nodes.partitions for s in p)
        assert covered == list(range(13))

    def test_load_spreads_across_nodes(self, four_nodes):
        shares = four_nodes.node_access_shares()
        assert len(shares) == 4
        assert sum(shares) == pytest.approx(1.0)
        assert max(shares) < 0.75

    def test_totals_are_the_node_sums(self, four_nodes):
        per_node = [stats.total for stats in four_nodes.node_stats]
        assert four_nodes.total.hits == sum(t.hits for t in per_node)
        assert four_nodes.total.allocation_writes == sum(
            t.allocation_writes for t in per_node
        )

    def test_capture_close_to_single_node(self, one_node, four_nodes):
        # Moderate partitioning keeps most of the sharing benefit.
        assert four_nodes.mean_capture > 0.7 * one_node.mean_capture

    def test_daily_capture_length(self, four_nodes):
        assert len(four_nodes.daily_capture()) == DAYS

    def test_validation(self, tiny_trace):
        with pytest.raises(ValueError):
            simulate_cluster(tiny_trace, sieve_factory, 100, DAYS, nodes=0)

    def test_restricted_server_set(self, tiny_trace):
        result = simulate_cluster(
            tiny_trace,
            lambda node: AllocateOnDemand(),
            total_capacity_blocks=128,
            days=DAYS,
            nodes=2,
            server_ids=[0, 5],
        )
        in_scope = int(
            tiny_trace.block_count[np.isin(tiny_trace.server_ids, [0, 5])].sum()
        )
        assert result.total.accesses == in_scope

    def test_independent_sieve_state(self, tiny_trace, tiny_context):
        """Each node owns its sieve — admissions are node-local."""
        policies = {}

        def recording_factory(node):
            policies[node] = SieveStoreC(SieveStoreCConfig(imct_slots=1 << 12))
            return policies[node]

        simulate_cluster(
            tiny_trace, recording_factory,
            tiny_context.sieved_capacity, DAYS, nodes=3,
        )
        assert len(policies) == 3
        assert sum(p.admissions for p in policies.values()) > 0


#: Per-node ``stats_to_dict`` SHA-256 digests of the cluster runs on
#: ``tiny_trace``, taken from the per-request appliance loop the cluster
#: used to drive itself: one replay per node must land on the same stats.
PINNED_NODE_DIGESTS = {
    "sieve-1": [
        "6f14a04bb3e642be6e8e682e7db63fa603746669c05133437c165a8bce4ec2cf",
    ],
    "sieve-4": [
        "0ffb5758f4266202404fa65eaffc51df0ef144e70794a268875f552955325d92",
        "bb93df032127f6d834d2b4415e6b34f6615f4b5dfdc4741256995a55338f434f",
        "4e13325b0c3e16fc5b83b0eefc2cf73266ccf2b2d5457e46c69a85dd92ada64e",
        "c10e697fd842dbf4e1e9abdba059e65361283d8f37e1c420b76a3acd8aa99fa0",
    ],
    "aod-2": [
        "4987d79c3cc7c24ae06635b9d446eb65b335277b28b86a9fc42c619338d992f6",
        "31ea240254419013f51246688a25f3e42ae93157a66a79e337872da168bf3619",
    ],
}


def stats_digest(stats):
    payload = json.dumps(stats_to_dict(stats), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def pinned_case(case, tiny_context):
    if case == "aod-2":
        return dict(
            policy_factory=lambda node: AllocateOnDemand(),
            total_capacity_blocks=128, nodes=2, server_ids=[0, 5],
        )
    return dict(
        policy_factory=sieve_factory,
        total_capacity_blocks=tiny_context.sieved_capacity,
        nodes=int(case.split("-")[1]),
    )


@pytest.mark.parametrize("case", sorted(PINNED_NODE_DIGESTS))
def test_node_stats_pinned(case, tiny_trace, tiny_context):
    result = simulate_cluster(
        tiny_trace, days=DAYS, **pinned_case(case, tiny_context)
    )
    digests = [stats_digest(stats) for stats in result.node_stats]
    assert digests == PINNED_NODE_DIGESTS[case]
    assert result.engines == ["fast"] * len(digests)
