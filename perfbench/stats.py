"""Order statistics shared by the workloads."""

from __future__ import annotations

import math
import statistics
from bisect import bisect_left, bisect_right
from typing import Sequence

#: Samples that must lie beyond a reported tail quantile.
TAIL_SAMPLES = 10


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending, non-empty sequence."""
    if not sorted_values:
        raise ValueError("quantile of an empty sample")
    rank = max(math.ceil(q * len(sorted_values)), 1)
    return sorted_values[rank - 1]


def tail_supported(n: int, q: float) -> bool:
    """Whether at least :data:`TAIL_SAMPLES` of ``n`` samples lie beyond ``q``."""
    return n - max(math.ceil(q * n), 1) >= TAIL_SAMPLES


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tick_quantile(sorted_ticks: Sequence[int | float], q: float) -> float:
    """Quantile of whole-tick waits, reading a wait of ``w`` ticks as spread
    evenly over ``(w - 1, w]``.

    The nearest-rank quantile of whole ticks jumps a full tick when a seed
    moves a few samples across a tick boundary; this one moves by the
    share of samples that crossed.
    """
    target = q * len(sorted_ticks)
    k = quantile(sorted_ticks, q)
    below = bisect_left(sorted_ticks, k)
    at = bisect_right(sorted_ticks, k) - below
    return float(k - 1 + (target - below) / at)
