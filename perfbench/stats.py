"""The benchmark's own arithmetic: percentiles, the tail rule, ratios.

Kept free of any ``repro`` import so ``selfcheck.py`` can exercise it in
isolation.
"""

from __future__ import annotations

import statistics
from typing import Iterable, Optional, Sequence, Tuple

#: a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least ``beyond`` samples beyond it.

    Returns ``(value, percentile, sample_count)``: the value at nearest rank
    ``n - beyond`` of the sorted samples, which leaves exactly ``beyond``
    samples above that rank, and the percentile that rank stands for
    (``100 * (n - beyond) / n``).  ``None`` when there are too few samples
    for any percentile to qualify.
    """
    n = len(values)
    rank = n - beyond
    if rank < 1:
        return None
    ordered = sorted(values)
    return float(ordered[rank - 1]), 100.0 * rank / n, n


def failed_ratio(submitted: int, completed: int) -> float:
    """Submitted transactions that never completed (stranded), over submitted."""
    if submitted <= 0:
        raise ValueError("failed_ratio needs at least one submitted transaction")
    return (submitted - completed) / submitted
