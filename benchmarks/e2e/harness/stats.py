"""Percentiles the sample can support, class placement, and verdicts."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: a percentile is printed only with at least this many samples beyond it
MIN_BEYOND = 10
#: p50 / p95 must sit at least this far (share of ops) from a class boundary
BOUNDARY_MARGIN = 0.02


def percentile(samples: Sequence[float], q: float) -> float | None:
    """Nearest-rank percentile, or None when fewer than ``MIN_BEYOND``
    samples would lie beyond it (p95 needs 200 samples, p50 needs 20)."""
    n = len(samples)
    if round(n * (1.0 - q), 9) < MIN_BEYOND:
        return None
    return sorted(samples)[math.ceil(round(q * n, 9)) - 1]


def class_placement(latencies: dict[str, list[float]], q: float) -> tuple[str, float]:
    """Which op class the ``q`` percentile of the pooled samples falls in,
    and its distance (share of all ops) to the nearest class boundary.

    Classes are ordered by their median latency; a class owns the stretch
    of the cumulative share its ops cover.
    """
    total = sum(len(samples) for samples in latencies.values())
    ordered = sorted(latencies, key=lambda cls: statistics.median(latencies[cls]))
    low = 0.0
    for cls in ordered:
        high = low + len(latencies[cls]) / total
        if q < high or cls == ordered[-1]:
            interior = [edge for edge in (low, high) if 0.0 < edge < 1.0]
            margin = min((abs(q - edge) for edge in interior), default=1.0)
            return cls, margin
        low = high
    raise AssertionError("unreachable")


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return abs(q3 - q1) / abs(middle) if middle else 0.0


def verdict(
    base: Sequence[float], new: Sequence[float], *, better: str, bound: float
) -> tuple[str, float]:
    """``better`` / ``same`` / ``worse`` / ``unresolved`` for one (workload,
    metric) pair, and the new median as a ratio of the base median.

    ``worse``: the median moved the wrong way by more than ``bound`` (a
    share of the base median). ``unresolved``: the run-to-run spread is
    wider than the bound and the two sets of runs overlap, so neither
    "unchanged" nor "regressed" can be said. ``better``: every new run
    beats every base run and the medians differ by more than the spread.
    """
    base_mid = statistics.median(base)
    new_mid = statistics.median(new)
    ratio = new_mid / base_mid if base_mid else float("inf") if new_mid else 1.0
    sign = 1.0 if better == "lower" else -1.0
    # positive = worse, as a share of the base median
    worsening = sign * (new_mid - base_mid) / abs(base_mid) if base_mid else sign * new_mid
    noise = max(spread(base), spread(new))
    if better == "lower":
        all_better = max(new) < min(base)
        all_worse = min(new) > max(base)
    else:
        all_better = min(new) > max(base)
        all_worse = max(new) < min(base)
    if noise > bound and not (all_better or all_worse):
        return "unresolved", ratio
    if worsening > bound:
        return "worse", ratio
    if all_better and -worsening > noise:
        return "better", ratio
    return "same", ratio
