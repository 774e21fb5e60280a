"""Order statistics for the benchmark's reports.

Every timing the benchmark prints is a nearest-rank percentile over
raw samples. A percentile is only reported when at least
:data:`MIN_BEYOND` samples lie beyond it, so a "p99" from 200 samples
(two samples beyond) is refused rather than printed.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie strictly above a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def samples_beyond(n: int, q: float) -> int:
    """Samples ranked above the nearest-rank ``q``-th percentile."""
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    return n - math.ceil(q / 100.0 * n)


def min_samples_for(q: float, beyond: int = MIN_BEYOND) -> int:
    """Smallest sample size with ``beyond`` samples above ``q``."""
    n = 1
    while samples_beyond(n, q) < beyond:
        n += 1
    return n


def percentile(
    values: Sequence[float], q: float, *, beyond: int = MIN_BEYOND
) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Raises :class:`TooFewSamples` unless at least ``beyond`` samples
    lie above the returned rank. ``inf`` entries (failed operations)
    sort last, so they count against the percentile as a miss.
    """
    n = len(values)
    if n == 0:
        raise TooFewSamples(f"p{q:g} of an empty sample")
    if samples_beyond(n, q) < beyond:
        raise TooFewSamples(
            f"p{q:g} needs {min_samples_for(q, beyond)} samples "
            f"for {beyond} beyond it, got {n}"
        )
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * n) - 1)]


def median(values: Sequence[float]) -> float:
    """Middle value (mean of the two middle ones for even sizes)."""
    if not values:
        raise TooFewSamples("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def chunked_percentile(
    values: Sequence[float], q: float, *, beyond: int = MIN_BEYOND
) -> float:
    """Median over consecutive chunks of the ``q``-th percentile.

    ``values`` (in arrival order) are cut into the fewest-sample chunks
    that each support the percentile (a trailing remainder joins the
    last chunk). One stall on a shared host then moves one chunk's
    percentile instead of the whole run's.
    """
    size = min_samples_for(q, beyond)
    chunks = len(values) // size
    if chunks == 0:
        raise TooFewSamples(
            f"p{q:g} needs {size} samples for {beyond} beyond it, "
            f"got {len(values)}"
        )
    edges = [i * size for i in range(chunks)] + [len(values)]
    return median([
        percentile(values[a:b], q, beyond=beyond)
        for a, b in zip(edges, edges[1:])
    ])
