"""Popularity-skew *variation* analyses (the paper's Figure 3).

Figure 3 shows that skew varies (a) server-to-server, (b)
volume-to-volume inside a server, (c) day-to-day for one server, and
(d) that the server composition of the ensemble's top-1% block set
shifts over the week — observation O2, the case for ensemble-level
(rather than per-server) caching.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

import numpy as np

from repro.traces.columnar import BlockCounts, ColumnarTrace, as_columnar
from repro.traces.model import Trace


def cumulative_access_curve(counts: BlockCounts, points: int = 100) -> List[dict]:
    """Normalized cumulative-access curve for one block-count table.

    Returns ``points`` samples of (block_fraction, access_fraction) with
    blocks ordered by descending count — the axes of Figures 3(a)-(c).
    A strongly skewed workload bows toward the top-left; a skew-free one
    follows the diagonal.
    """
    if points <= 0:
        raise ValueError(f"points must be positive, got {points}")
    values = np.sort(counts.counts)[::-1]
    if len(values) == 0:
        return []
    total = values.sum()
    cumsum = np.cumsum(values)
    indices = np.unique(
        np.clip((np.linspace(0, 1, points + 1)[1:] * len(values)).astype(int), 1, len(values))
    )
    return [
        {
            "block_fraction": int(i) / len(values),
            "access_fraction": float(cumsum[i - 1] / total),
        }
        for i in indices
    ]


def gini_coefficient(counts: BlockCounts) -> float:
    """Gini coefficient of the access-count distribution.

    A scalar skew summary: 0 means every block is equally accessed
    (Src1-like), values near 1 mean a few blocks absorb nearly all
    accesses (Prxy-like).  Used to *quantify* Figure 3's visual
    contrasts in the benches.
    """
    values = np.sort(counts.counts.astype(np.float64))
    n = len(values)
    if n == 0:
        return 0.0
    total = values.sum()
    if total == 0:
        return 0.0
    ranks = np.arange(1, n + 1)
    return float((2.0 * (ranks * values).sum()) / (n * total) - (n + 1) / n)


def server_day_gini(
    trace: Trace, days: int
) -> Dict[int, List[float]]:
    """Per-server, per-day Gini coefficients (Figures 3(a) and 3(c))."""
    from repro.traces.streams import per_server_daily_counts

    result: Dict[int, List[float]] = {}
    for server_id, counters in per_server_daily_counts(trace, days).items():
        result[server_id] = [gini_coefficient(c) for c in counters]
    return result


def volume_gini(
    trace: Union[Trace, ColumnarTrace], server_id: int, days: int
) -> Dict[int, float]:
    """Whole-trace Gini per volume of one server (Figure 3(b))."""
    columns = as_columnar(trace).filter(server_id=server_id)
    by_volume: Dict[int, float] = {}
    for volume in np.unique(columns.volume_ids).tolist():
        blocks = columns.filter(volume_id=volume).expand_block_addresses()
        by_volume[volume] = gini_coefficient(BlockCounts.of_accesses(blocks))
    return by_volume


def top_set_server_composition(
    daily_counts: Sequence[BlockCounts], fraction: float = 0.01
) -> List[Dict[int, float]]:
    """Figure 3(d): per-day share of the ensemble top-``fraction`` block
    set contributed by each server.

    Returns, for each day, a mapping server_id -> fraction of the top
    set's blocks owned by that server (fractions sum to 1 for non-empty
    days).
    """
    composition: List[Dict[int, float]] = []
    for counts in daily_counts:
        top = counts.top(fraction)
        composition.append(
            {server: len(table) / len(top) for server, table in top.by_server().items()}
        )
    return composition


def composition_variation(composition: Sequence[Dict[int, float]]) -> float:
    """Mean total-variation distance between successive days' compositions.

    Quantifies Figure 3(d)'s time variation: 0 means the same server mix
    every day; 1 means complete turnover.
    """
    distances = []
    for previous, current in zip(composition, composition[1:]):
        if not previous or not current:
            continue
        servers = set(previous) | set(current)
        distances.append(
            0.5 * sum(abs(previous.get(s, 0.0) - current.get(s, 0.0)) for s in servers)
        )
    return float(np.mean(distances)) if distances else 0.0
