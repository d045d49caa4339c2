"""Percentiles and spreads, with the sample-count rule the guide asks for."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: A percentile is reported as a supported tail only when at least this
#: many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10
TAIL_PERCENTILES = (90, 99)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    *pct* percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of *count* samples lie above the nearest-rank *pct*."""
    return count - min(count, max(1, math.ceil(pct / 100.0 * count)))


def highest_supported(count: int,
                      candidates: Sequence[float] = TAIL_PERCENTILES
                      ) -> Optional[float]:
    """The highest candidate percentile with enough samples beyond it."""
    supported = [pct for pct in candidates
                 if samples_beyond(count, pct) >= MIN_SAMPLES_BEYOND]
    return max(supported) if supported else None


def summarize_ms(seconds: Sequence[float]) -> Dict[str, float]:
    """Median, p90, p99 and the supported tail of *seconds*, in ms.

    ``tail`` is the highest of p90/p99 with at least ten samples beyond
    it, or the median when the sample supports neither.
    """
    ms = [value * 1e3 for value in seconds]
    summary = {
        "n": len(ms),
        "p50": statistics.median(ms),
        "p90": percentile(ms, 90),
        "p99": percentile(ms, 99),
    }
    supported = highest_supported(len(ms))
    summary["tail_pct"] = supported or 50
    summary["tail"] = percentile(ms, supported) if supported else summary["p50"]
    return summary


def quartile_spread(values: List[float]) -> float:
    """Distance between the first and third quartile over the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
