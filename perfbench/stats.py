"""Summary statistics for the benchmark's timings.

Every timing is reported as a median plus the highest percentile that
still has at least ten samples beyond it, together with the sample
count, so a tail figure is never read off a handful of points.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: tail percentiles the rule may pick from, highest first.  Capped at 95
#: so a faster program (more samples per run) does not silently switch a
#: metric from p95 to p99.
TAIL_LADDER = (95, 90, 75, 50)

#: samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


def samples_beyond(count: int, pct: float) -> float:
    """How many of ``count`` samples lie above the ``pct`` percentile."""
    return count * (100.0 - pct) / 100.0


def tail_percentile(count: int, ladder: Sequence[int] = TAIL_LADDER) -> Optional[int]:
    """The highest percentile in ``ladder`` with ``MIN_BEYOND`` samples beyond.

    None when even the lowest rung has too few samples beyond it.
    """
    for pct in ladder:
        if samples_beyond(count, pct) >= MIN_BEYOND:
            return pct
    return None


def min_samples(pct: int) -> int:
    """Smallest sample count for which ``pct`` satisfies the rule."""
    return math.ceil(MIN_BEYOND * 100.0 / (100.0 - pct))


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (same convention as numpy's default)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def summarize(values: Sequence[float]) -> Tuple[float, float, int, int]:
    """``(median, tail value, tail percentile, sample count)`` of ``values``.

    Raises ValueError when there are too few samples for any percentile
    to have ``MIN_BEYOND`` samples beyond it: the workload must measure
    more, not report a tail it does not have.
    """
    pct = tail_percentile(len(values))
    if pct is None:
        raise ValueError(
            f"{len(values)} samples: need at least {min_samples(TAIL_LADDER[-1])} "
            f"for a percentile with {MIN_BEYOND} samples beyond it"
        )
    return statistics.median(values), percentile(values, pct), pct, len(values)
