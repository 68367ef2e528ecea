"""The benchmark's own arithmetic, as pure functions over plain numbers.

Percentiles are nearest-rank, or Harrell-Davis estimates where a tail
lies among a few sparse samples; a tail percentile is only trusted when
at least :data:`MIN_BEYOND` samples lie beyond its nearest rank.  Self time is a span's
duration minus the part of it that its child spans cover, and only the
outermost activation of a recursive entry point counts.  A failed or
shed request counts as missing every latency limit.
"""

from __future__ import annotations

import math

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: A ladder rung shows a growing backlog when it delivers less than this
#: share of its offered rate.
DELIVERED_SHARE = 0.97


def rank_of(n: int, q: float) -> int:
    """1-based nearest rank of the *q*-quantile in a sample of *n*."""
    if n < 1:
        raise ValueError("empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be within (0, 1] (got {q})")
    # round() first: 0.95 * 200 is 190.00000000000003 in binary floating point
    return max(1, math.ceil(round(q * n, 9)))


def percentile(values, q: float) -> dict:
    """Nearest-rank *q*-quantile of *values* with its sample count and
    the number of samples beyond it."""
    ordered = sorted(values)
    rank = rank_of(len(ordered), q)
    return {
        "value": ordered[rank - 1],
        "n": len(ordered),
        "beyond": len(ordered) - rank,
    }


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified
    Lentz), converging for ``x < (a + 1) / (a + b + 2)``."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function ``I_x(a, b)``."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def hd_percentile(values, q: float) -> dict:
    """Harrell-Davis estimate of the *q*-quantile of *values*: every
    order statistic weighted by the Beta((n+1)q, (n+1)(1-q)) mass of
    its rank, so the estimate leans on the neighbours of the
    nearest-rank one instead of on one sample.  Reported with the
    sample count and the nearest-rank samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    rank = rank_of(n, q)
    if q >= 1.0:
        raise ValueError(f"quantile must be within (0, 1) (got {q})")
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    value, below = 0.0, 0.0
    for i, sample in enumerate(ordered, start=1):
        upto = beta_cdf(i / n, a, b)
        if upto > below:  # far ranks weigh exactly nothing
            value += (upto - below) * sample
        below = upto
    return {"value": value, "n": n, "beyond": n - rank}


def min_samples(q: float, beyond: int = MIN_BEYOND) -> int:
    """Smallest sample whose nearest-rank *q*-quantile keeps *beyond*
    samples past it."""
    n = 1
    while n - rank_of(n, q) < beyond:
        n += 1
    return n


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping (start, end) pairs."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict:
    """``name -> [self_s, inclusive_s, count]`` over *spans*.

    Each span is ``(name, start, end, parent)`` where *parent* indexes an
    earlier span of the list, or is None.  A span nested (at any depth)
    inside a counted span of the same name is a recursive activation: it
    is not counted, and its children hang under its nearest counted
    ancestor.  Self time clips child intervals to the parent's.
    """
    kept_parent: list = []  # nearest counted ancestor per span (or None)
    counted: list = []
    for index, (name, _start, _end, parent) in enumerate(spans):
        if parent is not None and parent >= index:
            raise ValueError(f"span {index} names a later parent {parent}")
        ancestor = parent
        if ancestor is not None and not counted[ancestor]:
            ancestor = kept_parent[ancestor]
        recursive = False
        walk = ancestor
        while walk is not None:
            if spans[walk][0] == name:
                recursive = True
                break
            walk = kept_parent[walk]
        kept_parent.append(ancestor)
        counted.append(not recursive)
    children: dict = {}
    for index, is_counted in enumerate(counted):
        if is_counted and kept_parent[index] is not None:
            children.setdefault(kept_parent[index], []).append(index)
    totals: dict = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        if not counted[index]:
            continue
        covered = union_length(
            (max(start, spans[c][1]), min(end, spans[c][2]))
            for c in children.get(index, ())
            if min(end, spans[c][2]) > max(start, spans[c][1])
        )
        entry = totals.setdefault(name, [0.0, 0.0, 0])
        entry[0] += (end - start) - covered
        entry[1] += end - start
        entry[2] += 1
    return totals


def geomean(values) -> float:
    """Geometric mean of positive *values*."""
    values = list(values)
    if not values:
        raise ValueError("geomean of an empty sample")
    if any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def failure_share(outcomes) -> tuple:
    """``(attempted, failed)`` over per-request outcome labels: anything
    but ``"ok"`` -- an error, a shed request, a timeout, a wrong answer --
    is a failure."""
    outcomes = list(outcomes)
    return len(outcomes), sum(1 for o in outcomes if o != "ok")


def limit_latencies(latencies, outcomes) -> list:
    """Latencies with every failed request set to infinity, so that it
    misses any latency limit."""
    return [
        lat if outcome == "ok" else math.inf
        for lat, outcome in zip(latencies, outcomes)
    ]


def window_passes(latencies, offered_rps: float, delivered_rps: float,
                  limit: float, q: float = 0.99) -> bool:
    """One measurement window meets the limit: its *q* tail (failures
    at infinity) keeps :data:`MIN_BEYOND` samples beyond it and is
    within *limit*, and it delivered its offered rate (no growing
    backlog)."""
    tail = percentile(latencies, q)
    return (
        tail["beyond"] >= MIN_BEYOND
        and tail["value"] <= limit
        and delivered_rps >= DELIVERED_SHARE * offered_rps
    )


def rung_verdict(window_results, windows: int):
    """A rung of *windows* measurement windows passes when most of them
    pass, so one stalled window cannot decide it.  Returns True/False
    once the majority is settled, None while it is still open."""
    need = windows // 2 + 1
    passed = sum(1 for ok in window_results if ok)
    if passed >= need:
        return True
    if len(window_results) - passed >= need:
        return False
    return None


def ladder_result(rungs) -> tuple:
    """Climb *rungs* -- ``(offered_rps, passed)`` pairs in ascending
    order -- and stop at the first that fails.  Returns the index of the
    highest passing rung below it (None when the first rung fails) and
    how many rungs were climbed."""
    best = None
    for index, (_rate, passed) in enumerate(rungs):
        if not passed:
            return best, index + 1
        best = index
    return best, len(rungs)
