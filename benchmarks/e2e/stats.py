"""Percentiles, and how far the epochs of one run disagree.

A run measures several *epochs*, each the same fixed work on a freshly
set-up cluster, and reports the best of the per-epoch values.  The spread
of those values is printed beside each metric: it says how much the host
disturbed the run.
"""

from __future__ import annotations

import statistics
from typing import Sequence

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def spread(values: Sequence[float]) -> float:
    """(max - min) / median of the per-epoch values of one metric."""
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0
