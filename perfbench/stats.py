"""Order statistics for latency samples."""

from __future__ import annotations

import math

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_SAMPLES = 10


def quantile(values, q):
    """Linear-interpolation quantile, q in [0, 1]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no samples")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def tail_percentile(count):
    """Highest listed percentile with at least ten samples beyond it, or None."""
    for p in TAIL_PERCENTILES:
        if count * (1.0 - p / 100.0) >= TAIL_SAMPLES - 1e-9:
            return p
    return None


def summary(values):
    """{"median", "count", "tail_p", "tail"} of a sample list."""
    p = tail_percentile(len(values))
    return {
        "median": median(values),
        "count": len(values),
        "tail_p": p,
        "tail": quantile(values, p / 100.0) if p is not None else None,
    }
