"""Order statistics used by every workload."""

from __future__ import annotations

import math


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def quantile(values, q: float) -> float:
    """Nearest-rank quantile: the smallest sample with at least a
    ``q`` share of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


#: A tail percentile needs at least this many samples above it.
TAIL_BEYOND = 10


def tail(values) -> "tuple[float, float]":
    """The highest percentile with at least ``TAIL_BEYOND`` samples
    above it.

    Returns ``(value, percentile)``: the sample at rank
    ``n - TAIL_BEYOND`` (1-based) of the sorted values and its
    percentile.  With ``TAIL_BEYOND`` samples or fewer there is no such
    percentile and the maximum is returned as the 100th.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("tail of no samples")
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n


def finite_or(value: float, fallback: float) -> float:
    """``value``, or ``fallback`` where a missing sample made it infinite."""
    return value if math.isfinite(value) else fallback
