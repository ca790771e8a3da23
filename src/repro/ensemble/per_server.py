"""Per-server caching baselines (quadrants III/IV; paper Section 5.3).

The paper strengthens the case for ensemble-level caching by comparing
SieveStore against *ideal* per-server configurations:

* **Iso-capacity (elastic)**: assume SSD capacity is arbitrarily
  divisible at constant cost-per-byte, and give each server a private
  cache holding exactly the top 1% of its own accessed blocks each day.
  Total capacity (and, by the elasticity assumption, cost) matches the
  ensemble cache.  Because a statically partitioned cache cannot move
  capacity toward whichever server is hot today (O2), it captures fewer
  accesses than the shared ensemble cache.

* **Whole-drive**: real SSDs come in discrete sizes, so per-server
  deployment needs at least one physical drive per server — 13 drives
  for the paper's ensemble versus SieveStore's 1-2 — a strictly worse
  cost point for no more capture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.ideal import ideal_capture_shares
from repro.ensemble.topology import per_server_daily_counts_from_ensemble
from repro.traces.columnar import BlockCounts


@dataclass(frozen=True)
class CaptureComparison:
    """Daily capture of ensemble-ideal vs per-server-ideal caching."""

    ensemble_shares: List[float]
    per_server_shares: List[float]

    @property
    def mean_ensemble(self) -> float:
        """Mean daily capture of the shared ensemble cache."""
        return sum(self.ensemble_shares) / len(self.ensemble_shares)

    @property
    def mean_per_server(self) -> float:
        """Mean daily capture of the per-server configuration."""
        return sum(self.per_server_shares) / len(self.per_server_shares)

    @property
    def ensemble_advantage(self) -> float:
        """Relative capture advantage of ensemble-level caching."""
        if self.mean_per_server == 0:
            return float("inf")
        return self.mean_ensemble / self.mean_per_server - 1.0


def per_server_ideal_shares(
    daily_counts: Sequence[BlockCounts], fraction: float = 0.01
) -> List[float]:
    """Daily capture of the iso-capacity per-server ideal configuration.

    Each server caches the top ``fraction`` of *its own* blocks each
    day; the day's capture is the captured accesses of all servers over
    the ensemble's total accesses.
    """
    shares: List[float] = []
    for counts in daily_counts:
        total = counts.total()
        captured = sum(
            table.top(fraction).total() for table in counts.by_server().values()
        )
        shares.append(captured / total if total else 0.0)
    return shares


def ensemble_ideal_shares(
    daily_counts: Sequence[BlockCounts], fraction: float = 0.01
) -> List[float]:
    """Daily capture of the shared ensemble-level ideal top-fraction cache
    (the ideal sieve's closed form, :func:`ideal_capture_shares`)."""
    return ideal_capture_shares(daily_counts, fraction)


def compare_ensemble_vs_per_server(
    daily_counts: Sequence[BlockCounts], fraction: float = 0.01
) -> CaptureComparison:
    """The Section 5.3 iso-capacity comparison (same total capacity)."""
    return CaptureComparison(
        ensemble_shares=ensemble_ideal_shares(daily_counts, fraction),
        per_server_shares=per_server_ideal_shares(daily_counts, fraction),
    )


@dataclass(frozen=True)
class DriveCostRow:
    """Cost (drives) vs performance (capture) of one configuration."""

    configuration: str
    drives: int
    mean_capture: float

    @property
    def capture_per_drive(self) -> float:
        """Capture bought per physical drive (cost-performance)."""
        return self.mean_capture / self.drives if self.drives else 0.0


def whole_drive_cost_comparison(
    daily_counts: Sequence[BlockCounts],
    server_count: int,
    ensemble_drives: int,
    fraction: float = 0.01,
) -> List[DriveCostRow]:
    """The Section 5.3 whole-drive cost comparison.

    Per-server deployment needs at least one physical drive per server
    (``server_count`` drives); the ensemble appliance needs
    ``ensemble_drives`` (1-2 in the paper, from the Figure 9 analysis).
    Capture numbers are the ideal ones from the iso-capacity analysis —
    maximally generous to per-server caching, which still loses on cost.
    """
    if server_count <= 0 or ensemble_drives <= 0:
        raise ValueError("server_count and ensemble_drives must be positive")
    comparison = compare_ensemble_vs_per_server(daily_counts, fraction)
    return [
        DriveCostRow(
            configuration="ensemble (SieveStore)",
            drives=ensemble_drives,
            mean_capture=comparison.mean_ensemble,
        ),
        DriveCostRow(
            configuration="per-server (one drive each)",
            drives=server_count,
            mean_capture=comparison.mean_per_server,
        ),
    ]


def per_server_capacity_blocks(
    daily_counts: Sequence[BlockCounts], fraction: float = 0.01
) -> Dict[int, int]:
    """Elastic per-server capacity: peak daily top-set size per server.

    This is the capacity the iso-capacity configuration implicitly
    needs; summed over servers it is comparable to the ensemble cache's
    capacity (both hold ~``fraction`` of the daily footprint).
    """
    per_server = per_server_daily_counts_from_ensemble(daily_counts)
    return {
        server: max(
            (len(table.top(fraction)) for table in counters),
            default=0,
        )
        for server, counters in per_server.items()
    }
