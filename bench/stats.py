"""Order statistics shared by the runner, calibration and comparison."""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def median(values: Sequence[float]) -> float:
    return quartiles(values)[1]


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one sample)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def percentile(sorted_values: List[float], share: float) -> float:
    """Nearest-rank percentile of an already sorted list (``share`` in 0..1)."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(len(sorted_values) * share))
    return sorted_values[rank - 1]
