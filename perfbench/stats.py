"""Small statistics helpers shared by the benchmark and its tests."""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: strictly beyond its rank; otherwise the sample cannot support it.
MIN_TAIL_SAMPLES = 10


def supports_percentile(count: int, p: float) -> bool:
    """True when ``count`` samples leave at least MIN_TAIL_SAMPLES beyond
    the nearest-rank ``p``-quantile (``p`` in (0, 1))."""
    if count <= 0:
        return False
    rank = math.ceil(p * count)
    return count - rank >= MIN_TAIL_SAMPLES


def percentile(values: Sequence[float], p: float) -> Optional[float]:
    """Nearest-rank ``p``-quantile, or None when the sample is too small
    to support it (see :func:`supports_percentile`)."""
    if not supports_percentile(len(values), p):
        return None
    ordered = sorted(values)
    return ordered[math.ceil(p * len(ordered)) - 1]
