"""Order statistics shared by the benchmark runner and the comparison command.

Timings are reported as the median plus the highest standard percentile
that still has at least ten samples beyond it, together with the sample
count, so a tail figure never rests on one or two outliers.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

STANDARD_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """Highest standard percentile with at least ``min_beyond`` of ``n`` samples beyond it."""
    best = None
    for q in STANDARD_PERCENTILES:
        # the epsilon absorbs float error in n * (1 - q/100), e.g. 1000 * 0.01
        if n * (1.0 - q / 100.0) >= min_beyond - 1e-6:
            best = q
    return best


def summarize(values: Sequence[float]) -> dict:
    """Median, the supported tail percentile and the sample count."""
    n = len(values)
    if n == 0:
        return {"n": 0, "p50": None, "tail_q": None, "tail": None}
    q = tail_percentile(n)
    return {
        "n": n,
        "p50": percentile(values, 50.0),
        "tail_q": q,
        "tail": percentile(values, q) if q is not None else None,
        "max": max(values),
    }


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as statistics.quantiles gives them."""
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    pairs: Sequence[tuple[float, float]],
    better: str,
    bound: float,
) -> str:
    """Judge one metric on one workload.

    ``pairs`` holds (parent, change) values of runs made on the same seed.
    "improved" needs the change to win at least nine tenths of the pairs,
    ties counting for neither, and a median gap larger than the parent's
    quartile distance. When either side spreads wider than the bound the
    metric is "unresolved", unless every change run beats every parent run.
    Otherwise it is "no worse" while the change's median stays within the
    bound of the parent's, and "worse" beyond it.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    gain = lambda p, c: sign * (p - c)  # noqa: E731 - positive when the change is better

    med_p = statistics.median(parent)
    med_c = statistics.median(change)
    q1, _, q3 = quartiles(parent)
    wins = sum(1 for p, c in pairs if gain(p, c) > 0)
    if pairs and wins >= 0.9 * len(pairs) and gain(med_p, med_c) > q3 - q1:
        return "improved"
    if max(relative_spread(parent), relative_spread(change)) > bound:
        worst_change = max(change) if better == "lower" else min(change)
        best_parent = min(parent) if better == "lower" else max(parent)
        return "no worse" if gain(best_parent, worst_change) > 0 else "unresolved"
    return "no worse" if -gain(med_p, med_c) <= bound * abs(med_p) else "worse"
