"""Ensemble topology: servers, volumes, and where the cache sits.

Models the deployment picture of the paper's Figure 4: a set of servers
whose block traffic flows through a single SieveStore appliance to the
backing storage ensemble.  The topology object mostly answers sizing
questions (how big is each server's share of traffic, what would a
per-server partitioning look like) for the Section 5.3 comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.traces.columnar import BlockCounts
from repro.traces.servers import ServerProfile


@dataclass
class EnsembleTopology:
    """The servers behind one SieveStore appliance."""

    servers: List[ServerProfile]

    @property
    def server_ids(self) -> List[int]:
        """Ids of all servers behind the appliance."""
        return [s.server_id for s in self.servers]

    @property
    def total_capacity_gb(self) -> float:
        """Total backing-storage capacity of the ensemble (GB)."""
        return sum(s.size_gb for s in self.servers)

    @property
    def total_volumes(self) -> int:
        """Total volume count across all servers."""
        return sum(s.volume_count for s in self.servers)

    def server(self, server_id: int) -> ServerProfile:
        """Look up one server's profile by id."""
        for profile in self.servers:
            if profile.server_id == server_id:
                return profile
        raise KeyError(f"no server with id {server_id}")


def per_server_daily_counts_from_ensemble(
    daily_counts: Sequence[BlockCounts],
) -> Dict[int, List[BlockCounts]]:
    """Split ensemble per-day block counts into per-server tables.

    Works from the packed global addresses, so it can run on the same
    ``daily_counts`` the experiment context already computed (no second
    pass over the trace).  A server absent on some day gets an empty
    table for it.
    """
    result: Dict[int, List[BlockCounts]] = {}
    days = len(daily_counts)
    for day, counts in enumerate(daily_counts):
        for server, table in counts.by_server().items():
            if server not in result:
                result[server] = [BlockCounts.empty() for _ in range(days)]
            result[server][day] = table
    return result


def daily_unique_blocks_by_server(
    daily_counts: Sequence[BlockCounts],
) -> Dict[int, List[int]]:
    """Per-server, per-day unique block counts (per-server sizing input)."""
    per_server = per_server_daily_counts_from_ensemble(daily_counts)
    return {
        server: [len(c) for c in counters]
        for server, counters in per_server.items()
    }
