"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics

CANDIDATE_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10  # samples a reported percentile needs beyond it


def nearest_rank(values, p: float) -> float:
    """The p-th percentile by nearest rank: the ceil(p/100 * n)-th smallest."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    k = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[k - 1]


def beyond(n: int, p: float) -> int:
    """Samples ranked above the nearest-rank p-th percentile of n samples."""
    return n - max(1, math.ceil(p / 100.0 * n - 1e-9))


def highest_supported_percentile(n: int):
    """The highest candidate percentile with at least MIN_BEYOND samples
    beyond it, or None when even the lowest has fewer."""
    supported = [p for p in CANDIDATE_PERCENTILES if beyond(n, p) >= MIN_BEYOND]
    return max(supported) if supported else None


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
