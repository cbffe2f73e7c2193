"""Summary statistics the benchmark reports: medians, the tail percentile
rule, quartile spreads and span self time."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

#: candidate tail percentiles, highest first
TAIL_LADDER = (0.999, 0.99, 0.9)

#: a tail percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile of ``n``."""
    return n - math.ceil(q * n)


def tail_quantile(n: int) -> float:
    """Highest percentile of TAIL_LADDER with MIN_BEYOND samples beyond it.

    Falls back to the median (0.5) when ``n`` is too small for any of them,
    so the tail never claims more than the samples support.
    """
    for q in TAIL_LADDER:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return 0.5


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ceil(q*n)-th smallest value."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def per_call_summary(values: Sequence[float]) -> dict[str, float]:
    """Median, tail (by the percentile rule), its quantile and the count."""
    q = tail_quantile(len(values))
    p50 = statistics.median(values)
    return {
        "p50": p50,
        "tail": p50 if q == 0.5 else nearest_rank(values, q),
        "tail_q": q,
        "n": len(values),
    }


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered(children, start, end)
