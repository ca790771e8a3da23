"""Appliance clusters: simulate K SieveStore nodes side by side.

:mod:`repro.ensemble.scaling` answers the Section-7 scale-out question
with ideal (oracle) analysis; this module answers it with the real
machinery: K independent appliances, each with its own sieve, cache
(1/K of the total capacity), and statistics, with requests routed by
the server partition.  The cluster result aggregates per-day capture
and exposes per-node statistics for load analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.cache.allocation import AllocationPolicy
from repro.cache.stats import CacheStats, DayStats
from repro.ensemble.scaling import partition_servers
from repro.sim.engine import simulate
from repro.traces.columnar import ColumnarTrace

#: Builds a fresh allocation policy for one node (one per appliance —
#: sieve metastate must not be shared across nodes).
PolicyFactory = Callable[[int], AllocationPolicy]


@dataclass
class ClusterResult:
    """Outcome of one cluster simulation."""

    nodes: int
    partitions: List[List[int]]
    node_stats: List[CacheStats]
    #: Engine each node's replay ran on (see ``SimulationResult.engine``).
    engines: List[str]

    @property
    def total(self) -> DayStats:
        """Whole-cluster totals across all nodes."""
        return CacheStats.merged(self.node_stats).total

    def daily_capture(self) -> List[float]:
        """Cluster-wide per-day hit fraction."""
        return [day.hit_ratio for day in CacheStats.merged(self.node_stats).per_day]

    def node_access_shares(self) -> List[float]:
        """Each node's share of the cluster's block accesses."""
        totals = [stats.total.accesses for stats in self.node_stats]
        grand = sum(totals)
        return [t / grand if grand else 0.0 for t in totals]

    @property
    def mean_capture(self) -> float:
        """Mean daily cluster-wide capture."""
        captures = self.daily_capture()
        return sum(captures) / len(captures) if captures else 0.0


def simulate_cluster(
    trace: ColumnarTrace,
    policy_factory: PolicyFactory,
    total_capacity_blocks: int,
    days: int,
    nodes: int,
    server_ids: Optional[Sequence[int]] = None,
    track_minutes: bool = False,
) -> ClusterResult:
    """Run a K-node appliance cluster over one ensemble trace.

    The nodes cache disjoint server sets, so they never share a block:
    the cluster is one :func:`~repro.sim.engine.simulate` per node over
    its servers' rows.

    Args:
        trace: the chronological ensemble trace.
        policy_factory: called once per node (with the node index) to
            build that node's allocation policy.
        total_capacity_blocks: cluster-wide cache capacity; each node
            gets an equal share (at least one frame).
        days: calendar days in the trace.
        nodes: appliance count.
        server_ids: servers to partition (default: those in the trace);
            requests of any other server are not replayed.
        track_minutes: collect per-minute SSD I/O per node.
    """
    servers = trace.server_ids
    if server_ids is None:
        server_ids = np.unique(servers).tolist()
    partitions = partition_servers(server_ids, nodes)
    per_node_capacity = max(1, total_capacity_blocks // nodes)
    runs = [
        simulate(
            trace.take(np.flatnonzero(np.isin(servers, partition))),
            policy_factory(node),
            per_node_capacity,
            days,
            track_minutes=track_minutes,
        )
        for node, partition in enumerate(partitions)
    ]
    return ClusterResult(
        nodes=nodes,
        partitions=partitions,
        node_stats=[run.stats for run in runs],
        engines=[run.engine for run in runs],
    )
