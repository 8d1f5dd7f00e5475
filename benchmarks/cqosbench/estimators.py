"""Quiet-floor estimators over per-call samples, and the driver's spread rule.

Interference on a shared host only ever adds time, so the statistic that
repeats between identical runs is the *floor* of short slices, not a pooled
quantile: the run is cut into consecutive 4-call slices and the best slice
is reported.  Four calls, because on a busy host a quiet moment lasts about
a millisecond: the floor of 4-call slices repeated within 1-5 % where that
of 32-call slices moved 2-13 % (see README, "Method").  Everything here is
pure arithmetic on lists of numbers, so the parent process and the tests
use it without importing the system under test.
"""

from __future__ import annotations

import statistics

#: Calls in a slice: a multiple of every workload's op cycle (2 or 4 calls),
#: so that every slice holds the same mix of operations.
SLICE = 4
WINDOW = 128
#: Samples above the reported p90 in one window ("at least ten beyond it").
P90_BEYOND = 13


def slices(count: int, size: int = SLICE, step: int | None = None) -> list[tuple[int, int]]:
    """Index ranges of the full ``size``-call slices of a ``count``-call run."""
    step = step or size
    return [(lo, lo + size) for lo in range(0, count - size + 1, step)]


def best_slice_median(latencies: list[int], size: int = SLICE) -> float:
    """Lowest per-slice median latency."""
    spans = slices(len(latencies), size)
    if not spans:
        raise ValueError(f"need at least {size} samples, got {len(latencies)}")
    return min(statistics.median(latencies[lo:hi]) for lo, hi in spans)


def best_slice_rate(starts_ns: list[int], ends_ns: list[int], size: int = SLICE) -> float:
    """Highest per-slice completion rate (calls per second of wall time)."""
    spans = slices(len(starts_ns), size)
    if not spans:
        raise ValueError(f"need at least {size} samples, got {len(starts_ns)}")
    return max(size * 1e9 / (ends_ns[hi - 1] - starts_ns[lo]) for lo, hi in spans)


def window_p90(window: list[int]) -> int:
    """The value with ``P90_BEYOND`` samples above it (p90 of 128 calls)."""
    return sorted(window)[len(window) - 1 - P90_BEYOND]


def best_window_p90(latencies: list[int], window: int = WINDOW) -> float:
    """Lowest p90 over 128-call windows, stepping one slice at a time.

    Diagnostic only: a window is clean only when 128 calls in a row were
    left alone, which a busy host does not grant (README, "Method").
    """
    spans = slices(len(latencies), window, step=SLICE)
    if not spans:
        raise ValueError(f"need at least {window} samples, got {len(latencies)}")
    return min(window_p90(latencies[lo:hi]) for lo, hi in spans)


def pooled_quantile(values: list[int], q: float) -> float:
    """Nearest-rank quantile of the whole sample (diagnostics only)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def stage_means(stamps: list[tuple[int, ...]]) -> tuple[list[float], float]:
    """Mean length of each stage between consecutive stamps, and their sum
    over the mean of last stamp minus first.

    Means add up where medians do not.  Differences telescope, so a stage
    that ran backwards (a hook that never fired left a zero behind) is
    clamped to nothing and the sum, no longer one, gives it away.
    """
    stages = len(stamps[0]) - 1
    means = [
        statistics.fmean(max(0, stamp[i + 1] - stamp[i]) for stamp in stamps)
        for i in range(stages)
    ]
    return means, sum(means) / statistics.fmean(stamp[-1] - stamp[0] for stamp in stamps)


def spread(values: list[float]) -> float:
    """Interquartile range over the median: the driver's acceptance rule."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(base: float, new: float, better: str) -> float:
    """Share of ``base`` by which ``new`` is worse (negative when better)."""
    return (new - base) / base if better == "lower" else (base - new) / base
