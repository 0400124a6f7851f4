"""Small statistics used by the benchmark: medians, tail percentiles, spreads."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10
CANDIDATE_PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def _rank(pct: float, n: int) -> int:
    # rounded first so that 99.9% of 10000 is rank 9990, not 9991
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def nearest_rank(values, pct: float) -> float:
    """The pct-th percentile by nearest rank: the ceil(pct/100 * n)-th smallest value."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return ordered[_rank(pct, len(ordered)) - 1]


def top_percentile(n: int, min_beyond: int = MIN_BEYOND,
                   candidates=CANDIDATE_PERCENTILES) -> float | None:
    """Highest candidate percentile with at least ``min_beyond`` of n samples above it.

    None when even the median has fewer than ``min_beyond`` samples above it.
    """
    best = None
    for pct in candidates:
        if n - _rank(pct, n) >= min_beyond:
            best = pct
    return best


def tail_summary(values) -> dict[str, float]:
    """Median, the highest reportable percentile and its rank, and the sample count.

    When too few samples exist for any percentile to have ten beyond it,
    the tail is reported as the median with rank 50.
    """
    values = list(values)
    n = len(values)
    if n == 0:
        return {"p50": 0.0, "ptop": 0.0, "ptop_pct": 0.0, "samples": 0}
    pct = top_percentile(n) or 50
    return {"p50": nearest_rank(values, 50), "ptop": nearest_rank(values, pct),
            "ptop_pct": float(pct), "samples": n}


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def fingerprint_diff(expected: dict, actual: dict) -> list[str]:
    """Keys whose values differ between two result fingerprints, or that one lacks."""
    keys = set(expected) | set(actual)
    return sorted(k for k in keys if k not in expected or k not in actual
                  or expected[k] != actual[k])
