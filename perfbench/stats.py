"""Order statistics used to report timings."""

from __future__ import annotations

import statistics


def median(values):
    return statistics.median(values)


def quartiles(values) -> tuple[float, float]:
    """First and third quartile as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def high_percentile(values, beyond: int = 10):
    """Highest percentile with at least `beyond` samples above it.

    Returns (percentile, value), or None when there are too few samples
    (fewer than beyond + 1). Of n sorted samples, the one at 0-based rank
    n - beyond - 1 has exactly `beyond` samples after it; it is the
    100 * (n - beyond) / n percentile.
    """
    n = len(values)
    if n <= beyond:
        return None
    ordered = sorted(values)
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]


def fail_ratio(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no runs attempted")
    return failed / attempted
