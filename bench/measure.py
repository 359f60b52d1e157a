"""Measurement helpers shared by the runner and the comparer."""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Percentiles a tail may be reported at, in ascending order.
TAIL_LADDER = (67.0, 75.0, 85.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is reported only when at least this many samples lie
#: beyond it (choosing-metrics guide, section 1).
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))          # ceil
    return ordered[int(min(rank, len(ordered))) - 1]


def samples_beyond(count: int, pct: float) -> float:
    """How many of ``count`` samples lie beyond the ``pct`` percentile."""
    return count * (100.0 - pct) / 100.0


def highest_tail(count: int) -> Optional[float]:
    """The highest percentile of ``TAIL_LADDER`` that still leaves at least
    ``MIN_BEYOND`` of ``count`` samples beyond it; ``None`` when even the
    lowest does not."""
    chosen = None
    for pct in TAIL_LADDER:
        if samples_beyond(count, pct) >= MIN_BEYOND:
            chosen = pct
    return chosen


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); a single sample is its own
    quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, middle, third = statistics.quantiles(values, n=4)
    return first, middle, third


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    first, middle, third = quartiles(values)
    return (third - first) / middle if middle else 0.0


@contextlib.contextmanager
def measured_region() -> Iterator[None]:
    """Bracket one timed region.

    Everything alive at entry (inputs, modules, the state set-up built) is
    frozen out of the collector's view, so a collection that starts inside
    the region only walks what the region itself allocated: without this the
    same work costs 5-40 % more or less depending on how large a heap earlier
    repeats and earlier days left behind.  The collector stays enabled, so
    the region's own allocations are collected as in production.  Afterwards
    the region must have left no child process.
    """
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()
    children = multiprocessing.active_children()
    if children:
        raise RuntimeError(f"measured region left child processes: {children}")


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 1024.0 if sys.platform != "darwin" else peak / 1048576.0


def calibration_seconds(iterations: int = 2_000_000) -> float:
    """Wall seconds of a fixed pure-Python loop, so numbers from hosts of
    different speed can be put side by side."""
    started = time.perf_counter()
    total = 0
    for value in range(iterations):
        total += value * value & 0xFF
    return time.perf_counter() - started


def environment(seed: int, scale: float, seconds: Optional[float],
                repeats: Optional[int]) -> Dict[str, object]:
    """The header every output file carries."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "repeats": repeats,
        "calibration_s": calibration_seconds(),
    }


def per_second(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def column_medians(rows: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Key-wise median over repeats (every repeat carries every key)."""
    keys: List[str] = list(rows[0]) if rows else []
    return {key: median([row[key] for row in rows]) for key in keys}
