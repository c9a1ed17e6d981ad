"""Small statistics helpers shared by every workload of the benchmark.

Stdlib only, so the load generator and the self-tests import nothing heavy.
"""

from __future__ import annotations

import math
import re

#: Metric names the result line may carry: up to 64 letters, digits, ``_ . -``.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Percentiles the tail helper may report, highest last.
TAIL_CANDIDATES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples a reported percentile needs beyond it.
MIN_BEYOND = 10


def valid_metric_name(name: str) -> bool:
    """Whether ``name`` is a legal metric name (letters, digits, ``_ . -``)."""
    return METRIC_NAME.fullmatch(name) is not None


def percentile(values, q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation, q in [0, 100])."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q``-th percentile rank."""
    return n - math.ceil(n * q / 100.0)


def tail_percentile(values, candidates=TAIL_CANDIDATES, min_beyond: int = MIN_BEYOND):
    """The highest candidate percentile with ``min_beyond`` samples beyond it.

    Returns ``(q, value)``, or ``None`` when not even the lowest candidate has
    enough samples beyond it.
    """
    n = len(values)
    best = None
    for q in candidates:
        if samples_beyond(n, q) >= min_beyond:
            best = q
    if best is None:
        return None
    return best, percentile(values, best)


def slo_fraction(outcomes, limit_s: float) -> float:
    """Share of attempted requests that succeeded within ``limit_s``.

    ``outcomes`` holds one ``(ok, latency_s)`` pair per attempted request;
    a failed or refused request (``ok`` false, or no latency) is a miss.
    """
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("SLO fraction of zero attempted requests")
    met = sum(1 for ok, latency in outcomes if ok and latency is not None and latency <= limit_s)
    return met / len(outcomes)


def objective_ratio(objective: float, baseline: float) -> float:
    """Objective against the classical baseline, 1.0 meaning "matches it".

    Lower is better in both orientations: minimisation domains report
    ``objective / baseline``; domains that negate a maximised score (schema
    matching) report ``baseline / objective``, i.e. baseline score over
    achieved score.
    """
    if baseline > 0:
        return objective / baseline
    if baseline < 0:
        return baseline / objective if objective < 0 else math.inf
    return 1.0 if objective == 0 else math.inf
