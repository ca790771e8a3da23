"""Popularity-skew characterization (the paper's Figure 2).

Figure 2(a) bins each day's blocks into 10,000 equal-population bins by
descending access count and plots each bin's mean count against its
percentile rank; 2(b) plots the cumulative access share against
percentile; 2(c) zooms the CDF into the top 5%.  These are the analyses
behind observation O1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.traces.columnar import BlockCounts

#: The paper's bin count: each bin holds 0.01% of the day's blocks.
PAPER_BINS = 10_000


@dataclass(frozen=True)
class SkewProfile:
    """Binned popularity profile of one day (or any block-count table).

    Attributes:
        percentiles: upper percentile rank of each bin (0.01 .. 100).
        mean_counts: mean access count of blocks in each bin.
        cumulative_share: fraction of all accesses captured by this bin
            and all more-popular bins (Figure 2(b)'s Y value).
        unique_blocks: number of distinct blocks.
        total_accesses: total accesses.
    """

    percentiles: Tuple[float, ...]
    mean_counts: Tuple[float, ...]
    cumulative_share: Tuple[float, ...]
    unique_blocks: int
    total_accesses: int

    def share_of_top(self, fraction: float) -> float:
        """Cumulative access share of the top ``fraction`` of blocks.

        Interpolates between bins; ``fraction`` is e.g. 0.01 for the top
        1%.
        """
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        if not self.percentiles:
            return 0.0
        target = fraction * 100.0
        return float(
            np.interp(target, self.percentiles, self.cumulative_share)
        )

    def count_at_percentile(self, percentile: float) -> float:
        """Mean per-block access count of the bin at a percentile rank."""
        if not self.percentiles:
            return 0.0
        return float(np.interp(percentile, self.percentiles, self.mean_counts))


def skew_profile(counts: BlockCounts, bins: int = PAPER_BINS) -> SkewProfile:
    """Bin a block->count table into a :class:`SkewProfile`.

    Blocks are sorted by descending count and split into ``bins``
    equal-population bins (the last bin absorbs the remainder).  With
    fewer blocks than bins, each block gets its own bin.
    """
    if bins <= 0:
        raise ValueError(f"bins must be positive, got {bins}")
    values = np.sort(counts.counts)[::-1]
    n = len(values)
    if n == 0:
        return SkewProfile((), (), (), 0, 0)
    total = int(values.sum())
    effective_bins = min(bins, n)
    edges = np.linspace(0, n, effective_bins + 1).astype(np.int64)
    cumsum = np.concatenate([[0], np.cumsum(values)])
    mean_counts = []
    cumulative = []
    percentiles = []
    for i in range(effective_bins):
        lo, hi = int(edges[i]), int(edges[i + 1])
        if hi <= lo:
            continue
        mean_counts.append((cumsum[hi] - cumsum[lo]) / (hi - lo))
        cumulative.append(cumsum[hi] / total)
        percentiles.append(hi / n * 100.0)
    return SkewProfile(
        percentiles=tuple(percentiles),
        mean_counts=tuple(mean_counts),
        cumulative_share=tuple(cumulative),
        unique_blocks=n,
        total_accesses=total,
    )


def daily_skew_profiles(
    daily_counts: Sequence[BlockCounts], bins: int = PAPER_BINS
) -> List[SkewProfile]:
    """Figure 2's per-day profiles for a whole trace."""
    return [skew_profile(counts, bins=bins) for counts in daily_counts]


def access_count_quantiles(counts: BlockCounts) -> dict:
    """O1's headline statistics for one day's counts.

    Returns the fractions of blocks with <=4 and <=10 accesses, the
    fraction accessed exactly once, and the top-1% access share — the
    numbers the paper quotes in Section 2.
    """
    values = counts.counts
    if len(values) == 0:
        return {
            "blocks": 0,
            "accesses": 0,
            "fraction_le_4": 0.0,
            "fraction_le_10": 0.0,
            "fraction_single": 0.0,
            "top1_share": 0.0,
        }
    total = int(values.sum())
    top = np.sort(values)[::-1][: max(1, len(values) // 100)]
    return {
        "blocks": int(len(values)),
        "accesses": total,
        "fraction_le_4": float((values <= 4).mean()),
        "fraction_le_10": float((values <= 10).mean()),
        "fraction_single": float((values == 1).mean()),
        "top1_share": float(top.sum() / total),
    }
