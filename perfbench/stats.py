"""Order statistics used by the benchmark's timing metrics."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple

#: A reported tail percentile must have at least this many samples
#: beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Tuple[float, float, int]:
    """Highest percentile that has at least ``beyond`` samples after it.

    Returns ``(percentile, value, sample_count)``: ``value`` is the
    sample with exactly ``beyond`` samples ranked after it, and
    ``percentile`` its rank as a percentage of the sample count.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= beyond:
        raise ValueError(f"{count} samples cannot support a tail with {beyond} beyond it")
    rank = count - beyond
    return 100.0 * rank / count, float(ordered[rank - 1]), count
