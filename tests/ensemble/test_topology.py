"""Ensemble topology helpers."""

import pytest

from repro.ensemble.topology import (
    EnsembleTopology,
    daily_unique_blocks_by_server,
    per_server_daily_counts_from_ensemble,
)
from repro.traces.model import pack_address
from repro.traces.servers import paper_ensemble
from tests.oracle import block_counts


class TestEnsembleTopology:
    @pytest.fixture
    def topology(self):
        return EnsembleTopology(paper_ensemble())

    def test_totals(self, topology):
        assert round(topology.total_capacity_gb) == 6449
        assert topology.total_volumes == 36

    def test_server_lookup(self, topology):
        assert topology.server(5).key == "prxy"

    def test_missing_server(self, topology):
        with pytest.raises(KeyError):
            topology.server(99)

    def test_server_ids(self, topology):
        assert topology.server_ids == list(range(13))


class TestPerServerSplit:
    def test_splits_by_packed_address(self):
        day0 = block_counts(
            {
                pack_address(1, 0, 5): 3,
                pack_address(2, 0, 5): 7,
                pack_address(1, 1, 9): 2,
            }
        )
        split = per_server_daily_counts_from_ensemble([day0])
        assert split[1][0].total() == 5
        assert split[2][0].total() == 7

    def test_preserves_total_mass(self, tiny_context):
        split = per_server_daily_counts_from_ensemble(tiny_context.daily_counts)
        for day in range(tiny_context.days):
            total = sum(counters[day].total() for counters in split.values())
            assert total == tiny_context.daily_counts[day].total()

    def test_daily_unique_blocks(self):
        day0 = block_counts({pack_address(1, 0, i): 1 for i in range(10)})
        day1 = block_counts({pack_address(1, 0, i): 1 for i in range(3)})
        uniques = daily_unique_blocks_by_server([day0, day1])
        assert uniques[1] == [10, 3]
