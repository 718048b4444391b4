"""Percentile and window rules shared by every workload.

A timing is reported as its median and its p99 with the sample count.
Throughput, the median and the p99 are each computed per window and the
*median of the windows* is reported with min/max beside it, so that one
disturbed window (a stall, a noisy neighbour) moves no figure. A p99
needs ten samples beyond it in every window.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10
#: so a window's p99 needs this many samples (1,100 * 1 % = 11 beyond)
P99_MIN_SAMPLES = 1100

_CANDIDATES = (50.0, 90.0, 95.0, 99.0, 99.9)


class MisSized(Exception):
    """A latency class has too few samples for its p99: fix the
    workload's size, not the percentile."""


def _rank(q: float, count: int) -> int:
    """Nearest rank of percentile ``q`` among ``count`` samples (the
    epsilon keeps 99.9 % of 10,000 at 9,990 despite binary floats)."""
    return max(1, math.ceil(q * count / 100.0 - 1e-9))


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (q in 0..100)."""
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(q, len(ordered)) - 1]


def highest_supported_percentile(count: int) -> float:
    """The highest candidate percentile with ``MIN_BEYOND`` samples
    beyond it (50 when even the median has too few)."""
    best = _CANDIDATES[0]
    for q in _CANDIDATES:
        if count - _rank(q, count) >= MIN_BEYOND:
            best = q
    return best


def window_median(values: Sequence[float]) -> dict[str, float]:
    """Median of per-window values, with the min and max kept beside it."""
    return {
        "value": statistics.median(values),
        "min": min(values),
        "max": max(values),
    }


def latency_summary(windows: Sequence[Sequence[float]], label: str) -> dict:
    """p50 and p99 per window; the median of the windows is reported."""
    if any(len(window) < P99_MIN_SAMPLES for window in windows):
        raise MisSized(
            f"{label}: windows of {[len(w) for w in windows]} samples; "
            f"a p99 needs {P99_MIN_SAMPLES} in each"
        )
    ordered = [sorted(window) for window in windows]
    return {
        "p50": window_median([percentile(w, 50.0) for w in ordered]),
        "p99": window_median([percentile(w, 99.0) for w in ordered]),
        "samples": sum(len(w) for w in windows),
    }
