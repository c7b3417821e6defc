"""Arithmetic shared by the runner, the calibration and the comparison.

Percentiles are exact (nearest rank over the recorded samples, no buckets);
spreads are the inter-quartile distance as a share of the median, computed
with ``statistics.quantiles(values, n=4)`` because that is the rule the
benchmark's bounds are judged by.
"""

from __future__ import annotations

import statistics
from typing import List, Optional, Sequence, Tuple


def percentile(samples: Sequence[float], fraction: float) -> float:
    """The nearest-rank *fraction* quantile of *samples* (which must be non-empty)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


def slice_counts(times: Sequence[float], start: float, slices: int, width: float = 1.0) -> List[int]:
    """How many of *times* fall in each of *slices* consecutive windows of *width*."""
    counts = [0] * slices
    for t in times:
        index = int((t - start) / width)
        if 0 <= index < slices and t >= start:
            counts[index] += 1
    return counts


def slice_rate(
    times: Sequence[float], start: float, slices: int, fraction: float, width: float = 1.0
) -> float:
    """The nearest-rank *fraction* quantile of completions per second over
    consecutive slices.

    Whatever else runs on the host only ever takes time away from a slice,
    so a high quantile reads what the program can do and the window mean
    reads what the host let it do: over ten 20-s runs on the reference box
    the mean spread 0.11, the median slice 0.15 and the upper-decile slice
    0.03.
    """
    return percentile(slice_counts(times, start, slices, width), fraction) / width


def stall_windows(
    requests: Sequence[Tuple[float, float]], cycle_starts: Sequence[float], limit: float
) -> List[float]:
    """Per cycle, how long service was degraded.

    *requests* are ``(due, done)`` pairs; cycle ``i`` owns those due in
    ``[cycle_starts[i], cycle_starts[i + 1])``.  Its stall runs from the due
    instant of the first request that took longer than *limit* to the
    completion of the last one that did.  A cycle in which none did counts
    *limit*: the stall was shorter than the schedule can show.
    """
    stalls = []
    for index, begin in enumerate(cycle_starts):
        end = cycle_starts[index + 1] if index + 1 < len(cycle_starts) else float("inf")
        late = [(due, done) for due, done in requests if begin <= due < end and done - due > limit]
        if late:
            stalls.append(max(done for _, done in late) - min(due for due, _ in late))
        else:
            stalls.append(limit)
    return stalls


def trimmed_mean(values: Sequence[float], share: float) -> float:
    """The mean of *values* with the *share* largest and the *share* smallest
    left out (rounded down): as steady as a mean on samples spread evenly
    over a range, and not moved by one wild sample, as a median is not."""
    ordered = sorted(values)
    cut = int(share * len(ordered))
    return statistics.mean(ordered[cut:len(ordered) - cut])


def relative_iqr(values: Sequence[float]) -> Optional[float]:
    """``(Q3 - Q1) / median`` of *values*; None below two values or at median 0."""
    if len(values) < 2:
        return None
    median = statistics.median(values)
    if median == 0:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)
