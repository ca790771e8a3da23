"""Multi-appliance scaling (the paper's Section 7 "scaling" question).

One SieveStore node covers 13 servers comfortably; what happens when
the ensemble outgrows a single appliance?  This module evaluates the
natural scale-out: partition the servers across K appliances, each with
1/K of the total cache capacity.

The interesting trade-off is the mirror image of Section 5.3's
per-server argument: partitioning *reduces* sharing (each node can only
follow the hot sets of its own servers), so capture degrades as K
grows — gracefully while each partition still aggregates several
servers, sharply as K approaches the per-server limit (K = 13 *is*
quadrant III).  Meanwhile per-node IOPS load drops ~linearly, which is
what buys headroom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.traces.columnar import BlockCounts


def partition_servers(server_ids: Sequence[int], nodes: int) -> List[List[int]]:
    """Spread servers across appliances round-robin.

    Round-robin (rather than contiguous ranges) keeps each node's
    traffic mix diverse, which is what lets intra-node sharing keep
    working.
    """
    if nodes <= 0:
        raise ValueError(f"nodes must be positive, got {nodes}")
    if nodes > len(server_ids):
        raise ValueError(
            f"cannot spread {len(server_ids)} servers over {nodes} nodes"
        )
    partitions: List[List[int]] = [[] for _ in range(nodes)]
    for index, server in enumerate(sorted(server_ids)):
        partitions[index % nodes].append(server)
    return partitions


def partitioned_ideal_shares(
    daily_counts: Sequence[BlockCounts],
    partitions: Sequence[Sequence[int]],
    fraction: float = 0.01,
) -> List[float]:
    """Daily ideal capture of a partitioned deployment.

    Each node holds the top ``fraction`` of the blocks accessed *in its
    partition* each day (the day-by-day ideal, i.e. the most generous
    version of each node).  With one partition this is exactly the
    ensemble ideal; with one partition per server it is the Section 5.3
    per-server baseline.
    """
    shares: List[float] = []
    for counts in daily_counts:
        total = counts.total()
        captured = sum(
            counts.of_servers(servers).top(fraction).total()
            for servers in partitions
        )
        shares.append(captured / total if total else 0.0)
    return shares


@dataclass(frozen=True)
class ScalingPoint:
    """Capture/load profile of one K-appliance configuration."""

    nodes: int
    mean_capture: float
    #: capture relative to the single-appliance (fully shared) ideal
    capture_retention: float
    #: mean share of ensemble accesses the busiest node serves
    peak_node_traffic_share: float


def scaling_profile(
    daily_counts: Sequence[BlockCounts],
    server_ids: Sequence[int],
    node_counts: Sequence[int] = (1, 2, 4, 13),
    fraction: float = 0.01,
) -> List[ScalingPoint]:
    """Evaluate ideal capture and load spread across appliance counts."""
    baseline_shares = partitioned_ideal_shares(
        daily_counts, [list(server_ids)], fraction
    )
    baseline = sum(baseline_shares) / len(baseline_shares) if baseline_shares else 0.0

    profile: List[ScalingPoint] = []
    for nodes in node_counts:
        partitions = partition_servers(server_ids, nodes)
        shares = partitioned_ideal_shares(daily_counts, partitions, fraction)
        mean_share = sum(shares) / len(shares) if shares else 0.0

        # Traffic split: how much of the ensemble's accesses each node
        # fields (the busiest node bounds per-node IOPS needs).
        peak_shares = [
            max(counts.of_servers(servers).total() for servers in partitions)
            / counts.total()
            for counts in daily_counts
            if counts.total()
        ]
        profile.append(
            ScalingPoint(
                nodes=nodes,
                mean_capture=mean_share,
                capture_retention=mean_share / baseline if baseline else 0.0,
                peak_node_traffic_share=(
                    sum(peak_shares) / len(peak_shares) if peak_shares else 0.0
                ),
            )
        )
    return profile
