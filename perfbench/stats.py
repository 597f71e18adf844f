"""Order statistics for latency samples."""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """q-th percentile (0 <= q <= 100) by linear interpolation between the
    closest ranks, as numpy's default method computes it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must lie in [0, 100], got {q}")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

