"""Arithmetic shared by the benchmark's worker and parent: closed-form
ball sizes for the memory preflight, percentiles, self time of nested
spans, the log-log size exponent, and the speed probe.

Standard library only, so the parent process can use it without importing
numpy or the package under test.
"""

from __future__ import annotations

import gc
import math
import re
from collections import defaultdict
from fractions import Fraction
from math import comb
from time import perf_counter
from typing import Dict, Iterable, List, Sequence, Tuple

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10
_SIMPSON_STEPS = 8

_GROUP_RE = re.compile(r"^(Z\^([1-9][0-9]*)|F_([1-9][0-9]*))$")


def ball_size(group: str, r: int) -> int:
    """Number of points in a closed word-metric ball of radius r, in closed
    form: sum_i 2^i C(d,i) C(r,i) for Z^d, and 1 + k((2k-1)^r - 1)/(k-1)
    for F_k with k >= 2 (F_1 is Z^1)."""
    m = _GROUP_RE.match(group)
    if not m:
        raise ValueError(f"unknown group {group!r}")
    if r < 0:
        return 0
    if m.group(2):
        d = int(m.group(2))
        return sum(2**i * comb(d, i) * comb(r, i) for i in range(min(d, r) + 1))
    k = int(m.group(3))
    if k == 1:
        return 2 * r + 1
    return 1 + k * ((2 * k - 1) ** r - 1) // (k - 1)


def percentile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile: the mean of the sorted
    values, the i-th of n weighted by the Beta(p(n+1), (1-p)(n+1)) mass on
    [(i-1)/n, i/n], p = q/100. Job latencies come in clusters, one per kind
    of job; where the nearest rank would jump from one cluster to the next
    as a seed or the host's noise shifts a few samples, this moves
    smoothly."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    n, p = len(xs), q / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    # Simpson's rule, _SIMPSON_STEPS steps per value
    h = 1.0 / (n * _SIMPSON_STEPS)
    weights = []
    for i in range(n):
        lo = i / n
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, _SIMPSON_STEPS))
        weights.append(density(lo) + inner + density(lo + _SIMPSON_STEPS * h))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _rank(q: float, n: int) -> int:
    # exact arithmetic: 99.9% of 10,000 must be rank 9,990, not 9,991
    return max(1, math.ceil(Fraction(str(q)) * n / 100))


def tail_percentile(n: int) -> float:
    """The highest percentile of TAIL_LADDER that leaves at least
    MIN_BEYOND_TAIL of n samples beyond it (the median if none does)."""
    for q in TAIL_LADDER:
        if n - _rank(q, n) >= MIN_BEYOND_TAIL:
            return q
    return 50.0


def median(values: Sequence[float]) -> float:
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no values")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Each span's duration minus the time its direct child spans cover.
    Children of one span run one after another (a single thread), so their
    durations do not overlap and can be summed."""
    covered = [0.0] * len(starts)
    for i, p in enumerate(parents):
        if p >= 0:
            covered[p] += ends[i] - starts[i]
    return [ends[i] - starts[i] - covered[i] for i in range(len(starts))]


def size_exponent(samples: Iterable[Tuple[str, float, float]]) -> Tuple[float, int]:
    """Log-log slope of time against input size, pooled over series.

    ``samples`` holds (series, size, seconds) per call. Each series (one
    group or geometry family) is centred on its own means, so only the
    variation of size within a series drives the fit; a series with a
    single size adds nothing. Returns (slope, number of series used), and
    (0.0, 0) when no series has two sizes.
    """
    by_series: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for series, size, seconds in samples:
        if size > 0 and seconds > 0:
            by_series[series].append((math.log(size), math.log(seconds)))
    sxy = sxx = 0.0
    used = 0
    for pts in by_series.values():
        if len({x for x, _ in pts}) < 2:
            continue
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
        used += 1
    if not used:
        return 0.0, 0
    return sxy / sxx, used


def speed_probe() -> float:
    """Seconds taken by one run of a fixed pure-Python kernel (integer
    arithmetic, dict and set updates, string formatting), with the cyclic
    collector off so that no garbage left by a job is collected inside it.
    Its time follows only how fast the machine runs the interpreter at
    that moment."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        table = {}
        acc = 0
        for i in range(12000):
            table[(i * 7919) % 1009] = i
            acc += len(str(i)) + (i * i) % 13
        acc += len(set(table))
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def probe_means(spans: Sequence[Tuple[float, float]], probes: Sequence[Tuple[float, float]],
                window: float) -> List[float]:
    """For each job's (start, end), the mean of the probe seconds timed
    within ``window`` seconds of it. ``probes`` holds (time taken at,
    seconds) of one probe before the first job and one after each job; the
    two around a job always count."""
    means = []
    for i, (start, end) in enumerate(spans):
        near = [p for k, (at, p) in enumerate(probes)
                if k in (i, i + 1) or start - window <= at <= end + window]
        means.append(sum(near) / len(near))
    return means
