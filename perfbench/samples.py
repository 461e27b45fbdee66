"""Quantiles computed from raw samples held in memory, never from
histogram buckets."""

from __future__ import annotations


def quantile(values, q: float) -> float:
    """The ``q`` quantile of ``values`` by linear interpolation between
    the two nearest order statistics (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

