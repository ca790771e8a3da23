"""Multi-appliance scaling (Section 7 extension)."""

import pytest

from repro.ensemble.scaling import (
    partition_servers,
    partitioned_ideal_shares,
    scaling_profile,
)
from repro.traces.columnar import BlockCounts


class TestPartitioning:
    def test_round_robin(self):
        assert partition_servers([0, 1, 2, 3, 4], 2) == [[0, 2, 4], [1, 3]]

    def test_single_node_gets_everything(self):
        assert partition_servers([3, 1, 2], 1) == [[1, 2, 3]]

    def test_per_server_limit(self):
        partitions = partition_servers(list(range(13)), 13)
        assert all(len(p) == 1 for p in partitions)

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_servers([1, 2], 0)
        with pytest.raises(ValueError):
            partition_servers([1, 2], 3)


class TestPartitionedShares:
    def test_one_partition_equals_ensemble_ideal(self, tiny_context):
        from repro.ensemble.per_server import ensemble_ideal_shares

        single = partitioned_ideal_shares(
            tiny_context.daily_counts, [list(range(13))]
        )
        ensemble = ensemble_ideal_shares(tiny_context.daily_counts)
        for a, b in zip(single, ensemble):
            assert a == pytest.approx(b)

    def test_thirteen_partitions_equal_per_server(self, tiny_context):
        from repro.ensemble.per_server import per_server_ideal_shares

        split = partitioned_ideal_shares(
            tiny_context.daily_counts, [[s] for s in range(13)]
        )
        per_server = per_server_ideal_shares(tiny_context.daily_counts)
        for a, b in zip(split, per_server):
            assert a == pytest.approx(b)

    def test_capture_degrades_with_partitioning(self, tiny_context):
        one = partitioned_ideal_shares(tiny_context.daily_counts,
                                       [list(range(13))])
        thirteen = partitioned_ideal_shares(
            tiny_context.daily_counts, [[s] for s in range(13)]
        )
        assert sum(one) >= sum(thirteen)

    def test_empty_day(self):
        assert partitioned_ideal_shares([BlockCounts.empty()], [[0]]) == [0.0]


class TestScalingProfile:
    def test_profile_shape(self, tiny_context):
        profile = scaling_profile(
            tiny_context.daily_counts, list(range(13)), node_counts=(1, 2, 13)
        )
        assert [p.nodes for p in profile] == [1, 2, 13]
        assert profile[0].capture_retention == pytest.approx(1.0)

    def test_retention_monotone_nonincreasing(self, tiny_context):
        profile = scaling_profile(
            tiny_context.daily_counts, list(range(13)),
            node_counts=(1, 2, 4, 13),
        )
        retentions = [p.capture_retention for p in profile]
        for a, b in zip(retentions, retentions[1:]):
            assert b <= a + 0.01

    def test_peak_traffic_share_drops_with_nodes(self, tiny_context):
        profile = scaling_profile(
            tiny_context.daily_counts, list(range(13)), node_counts=(1, 4)
        )
        assert profile[1].peak_node_traffic_share < profile[0].peak_node_traffic_share
        assert profile[0].peak_node_traffic_share == pytest.approx(1.0)
