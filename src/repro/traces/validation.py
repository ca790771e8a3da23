"""Trace fidelity validation against the paper's published statistics.

Anyone substituting their own trace (real MSR files, another generator)
needs to know whether the paper's conclusions transfer.  This module
checks a trace against the observations the SieveStore design rests on
and returns a structured report:

* **O1** — popularity skew: top-1% share in the published band, 99% of
  blocks ≤ 10 accesses/day, ~97% ≤ 4, roughly half single-access;
* **O2** — hot-set dynamics: yesterday's over-threshold blocks predict
  a large share of today's top-set accesses, yet the hot set drifts;
* **mix** — read-majority traffic, mostly 4-KB-aligned requests.

Every check carries the measured value, the accepted band, and a
pass/fail flag; `validate_trace` aggregates them.  The bands are the
paper's numbers with modest slack — a *warning* instrument, not a
gate (real ensembles legitimately differ).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.traces.model import Trace
from repro.traces.streams import daily_access_totals, daily_block_counts


@dataclass(frozen=True)
class Check:
    """One fidelity check: measured value against an accepted band."""

    name: str
    measured: float
    low: float
    high: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        """Whether the measured value lies inside the band."""
        return self.low <= self.measured <= self.high


@dataclass
class ValidationReport:
    """All checks for one trace."""

    checks: List[Check]

    @property
    def passed(self) -> bool:
        """Whether every check passed."""
        return all(check.passed for check in self.checks)

    def failures(self) -> List[Check]:
        """The checks that fell outside their bands."""
        return [check for check in self.checks if not check.passed]

    def rows(self) -> List[list]:
        """Rows for the report renderer."""
        return [
            [
                check.name,
                round(check.measured, 3),
                f"[{check.low:g}, {check.high:g}]",
                "ok" if check.passed else "FAIL",
            ]
            for check in self.checks
        ]


def _mean_over_days(values: Sequence[float], skip_first: bool) -> float:
    usable = values[1:] if skip_first and len(values) > 1 else values
    usable = [v for v in usable if not np.isnan(v)]
    return float(np.mean(usable)) if usable else float("nan")


def validate_trace(
    trace: Trace,
    days: Optional[int] = None,
    skip_first_day: bool = True,
) -> ValidationReport:
    """Run the O1/O2/mix fidelity checks over a trace.

    Args:
        trace: the trace to validate.
        days: calendar days to analyse (default: inferred from the
            trace's duration).
        skip_first_day: exclude day 0 from the per-day averages (the
            paper's day 1 is a partial calendar day).
    """
    if days is None:
        days = max(1, int(trace.duration // 86400) + 1)
    counts = daily_block_counts(trace, days)
    totals = daily_access_totals(trace, days)

    top1_shares: List[float] = []
    le10: List[float] = []
    le4: List[float] = []
    single: List[float] = []
    predicted: List[float] = []
    drift: List[float] = []
    for day, table in enumerate(counts):
        values = table.counts
        if len(values) == 0:
            top1_shares.append(float("nan"))
            le10.append(float("nan"))
            le4.append(float("nan"))
            single.append(float("nan"))
            continue
        order = np.sort(values)[::-1]
        top = order[: max(1, len(values) // 100)]
        top1_shares.append(float(top.sum() / totals[day]))
        le10.append(float((values <= 10).mean()))
        le4.append(float((values <= 4).mean()))
        single.append(float((values == 1).mean()))
        if day >= 1 and len(counts[day - 1]):
            previous = counts[day - 1]
            prev_hot = previous.addresses[previous.counts > 10]
            today_hot = table.addresses[values > 10]
            captured = int(values[np.isin(table.addresses, prev_hot)].sum())
            ideal = float(top.sum())
            if ideal > 0:
                predicted.append(captured / ideal)
            if len(prev_hot) and len(today_hot):
                shared = len(np.intersect1d(prev_hot, today_hot))
                drift.append(1.0 - shared / max(len(today_hot), 1))

    reads = sum(r.block_count for r in trace if r.is_read)
    total_blocks = max(1, trace.total_blocks())
    aligned = sum(1 for r in trace if r.aligned_4k) / max(1, len(trace))

    checks = [
        Check(
            "O1: top-1% access share",
            _mean_over_days(top1_shares, skip_first_day),
            0.10, 0.60,
            "paper: 14%-53% across days",
        ),
        Check(
            "O1: blocks with <=10 accesses/day",
            _mean_over_days(le10, skip_first_day),
            0.95, 1.0,
            "paper: 99%",
        ),
        Check(
            "O1: blocks with <=4 accesses/day",
            _mean_over_days(le4, skip_first_day),
            0.90, 1.0,
            "paper: 97%",
        ),
        Check(
            "O1: single-access block fraction",
            _mean_over_days(single, skip_first_day),
            0.30, 0.70,
            "paper: ~50%",
        ),
        Check(
            "O2: next-day predictive capture",
            float(np.mean(predicted[1:] if len(predicted) > 1 else predicted))
            if predicted else float("nan"),
            0.4, 1.5,
            "yesterday's >10-count blocks vs today's ideal",
        ),
        Check(
            "O2: daily hot-set drift",
            float(np.mean(drift)) if drift else float("nan"),
            0.02, 0.8,
            "the hot set must move, but not churn completely",
        ),
        Check(
            "mix: read fraction of blocks",
            reads / total_blocks,
            0.4, 0.9,
            "paper assumes ~3:1 reads:writes",
        ),
        Check(
            "mix: 4-KB-aligned request fraction",
            aligned,
            0.80, 1.0,
            "paper: ~94%",
        ),
    ]
    return ValidationReport(checks=checks)
