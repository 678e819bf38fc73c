"""Paired Wilcoxon signed-rank and Shapiro-Wilk tests, R-compatible.

The published replication numbers (V and p values) are only reproducible
under the semantics of R's ``wilcox.test`` and ``shapiro.test``, so those
semantics are implemented here precisely:

- Wilcoxon: zero differences are dropped (count recorded), absolute
  differences are mid-ranked, and V is the rank sum of the positive
  differences. The exact two-sided p is used iff fewer than 50 pairs remain
  *and* there were no ties and no zeros; otherwise the normal approximation
  applies, with tie-corrected variance ``n(n+1)(2n+1)/24 - sum(t^3-t)/48``
  and continuity correction ``sign(V - mean) * 0.5``.
- Shapiro-Wilk: the Royston AS R94 approximation (the algorithm behind both
  R and the usual scientific-Python implementation), with the high-precision
  AS 241 normal quantile that the standard library's ``NormalDist.inv_cdf``
  implements.

Tie detection happens on double-precision differences, exactly as a user
feeding the same columns to R would get: values that are equal on paper but
differ in the last ulp do not tie.

Everything here is a pure function of its inputs and thread-safe.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence


class StatsError(ValueError):
    pass


class TooFewSamplesError(StatsError):
    pass


class AllZeroDifferencesError(StatsError):
    pass


@dataclass(frozen=True)
class StatsResult:
    """Outcome of a hypothesis test.

    ``method`` is the name that ``stats.json`` and ``redustat stats`` print.
    ``statistic`` is W for Shapiro-Wilk and V (positive-rank sum) for
    Wilcoxon. ``n_used`` is the number of pairs left after zero removal for
    Wilcoxon, and the sample size for Shapiro-Wilk.
    """

    method: str
    statistic: float
    p_value: float
    n_used: int
    ties_present: bool = False
    zeros_dropped: int = 0


# -- Wilcoxon signed-rank ----------------------------------------------------


def wilcoxon_signed_rank(x: Sequence[float], y: Sequence[float]) -> StatsResult:
    """Two-sided paired Wilcoxon signed-rank test of ``x`` against ``y``."""
    if len(x) != len(y):
        raise StatsError(f"paired vectors differ in length: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise TooFewSamplesError("need at least 2 pairs")
    diffs = [float(a) - float(b) for a, b in zip(x, y)]
    nonzero = [d for d in diffs if d != 0.0]
    zeros_dropped = len(diffs) - len(nonzero)
    if not nonzero:
        raise AllZeroDifferencesError("every pair ties exactly")

    n = len(nonzero)
    magnitudes = [abs(d) for d in nonzero]
    ranks = _midranks(magnitudes)
    v = sum(rank for rank, d in zip(ranks, nonzero) if d > 0)
    ties = len(set(magnitudes)) != len(magnitudes)

    if n < 50 and not ties and zeros_dropped == 0:
        p = _exact_two_sided_p(int(round(v)), n)
        method = "WilcoxonSignedRankExact"
    else:
        p = _approx_two_sided_p(v, n, magnitudes)
        method = "WilcoxonSignedRankNormalApprox"
    return StatsResult(method=method, statistic=v, p_value=p, n_used=n,
                       ties_present=ties, zeros_dropped=zeros_dropped)


def _midranks(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        midrank = (i + j + 2) / 2.0  # average of 1-based ranks i+1..j+1
        for k in range(i, j + 1):
            ranks[order[k]] = midrank
        i = j + 1
    return ranks


def signed_rank_distribution(n: int) -> list[int]:
    """Counts of subsets of ``{1..n}`` by rank sum; index ``s`` holds the
    number of sign assignments with positive-rank sum ``s`` (out of ``2^n``)."""
    counts = [1]
    for rank in range(1, n + 1):
        nxt = counts + [0] * rank
        for total, ways in enumerate(counts):
            nxt[total + rank] += ways
        counts = nxt
    return counts


def _exact_two_sided_p(v: int, n: int) -> float:
    counts = signed_rank_distribution(n)
    total = 2 ** n
    if v > n * (n + 1) / 4:
        tail = sum(counts[v:])
    else:
        tail = sum(counts[: v + 1])
    return min(2.0 * tail / total, 1.0)


def _approx_two_sided_p(v: float, n: int, magnitudes: Sequence[float]) -> float:
    tie_sizes = Counter(magnitudes).values()
    correction_for_ties = sum(t ** 3 - t for t in tie_sizes) / 48.0
    sigma2 = n * (n + 1) * (2 * n + 1) / 24.0 - correction_for_ties
    sigma = math.sqrt(sigma2)
    centred = v - n * (n + 1) / 4.0
    continuity = 0.5 if centred > 0 else (-0.5 if centred < 0 else 0.0)
    z = (centred - continuity) / sigma
    return min(2.0 * min(_norm_sf(z), 1.0 - _norm_sf(z)), 1.0)


# -- Shapiro-Wilk (Royston AS R94) -------------------------------------------

_C1 = (0.0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056)
_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
_C3 = (0.5440, -0.39978, 0.025054, -6.714e-4)
_C4 = (1.3822, -0.77857, 0.062767, -0.0020322)
_C5 = (-1.5861, -0.31082, -0.083751, 0.0038915)
_C6 = (-0.4803, -0.082676, 0.0030302)
_G = (-2.273, 0.459)
_SMALL = 1e-19


def shapiro_wilk(x: Sequence[float]) -> StatsResult:
    """Shapiro-Wilk normality test for ``3 <= len(x) <= 5000``."""
    n = len(x)
    if n < 3:
        raise TooFewSamplesError("need at least 3 observations")
    if n > 5000:
        raise StatsError("at most 5000 observations supported")
    data = sorted(float(v) for v in x)
    value_range = data[-1] - data[0]
    if value_range < _SMALL:
        raise StatsError("all observations are (numerically) identical")

    w = _w_statistic(data)
    p = _w_p_value(w, n)
    return StatsResult(method="ShapiroWilk", statistic=w,
                       p_value=p, n_used=n)


def _w_statistic(data: list[float]) -> float:
    n = len(data)
    half = n // 2
    if n == 3:
        coeffs = [math.sqrt(0.5)]
    else:
        an25 = n + 0.25
        quantile = NormalDist().inv_cdf
        m = [quantile((i - 0.375) / an25) for i in range(1, half + 1)]
        summ2 = 2.0 * sum(v * v for v in m)
        ssumm2 = math.sqrt(summ2)
        rsn = 1.0 / math.sqrt(n)
        a1 = _poly(_C1, rsn) - m[0] / ssumm2
        if n > 5:
            a2 = _poly(_C2, rsn) - m[1] / ssumm2
            fac = math.sqrt((summ2 - 2.0 * m[0] ** 2 - 2.0 * m[1] ** 2)
                            / (1.0 - 2.0 * a1 ** 2 - 2.0 * a2 ** 2))
            coeffs = [a1, a2] + [-v / fac for v in m[2:]]
        else:
            fac = math.sqrt((summ2 - 2.0 * m[0] ** 2) / (1.0 - 2.0 * a1 ** 2))
            coeffs = [a1] + [-v / fac for v in m[1:]]

    # Antisymmetric coefficient vector: -a_i at the low end, +a_i mirrored.
    c = [0.0] * n
    for i, a in enumerate(coeffs):
        c[i] = -a
        c[n - 1 - i] = a

    value_range = data[-1] - data[0]
    xs = [v / value_range for v in data]
    x_mean = sum(xs) / n
    c_mean = sum(c) / n
    ssa = sum((ci - c_mean) ** 2 for ci in c)
    ssx = sum((xi - x_mean) ** 2 for xi in xs)
    sax = sum((ci - c_mean) * (xi - x_mean) for ci, xi in zip(c, xs))
    ssassx = math.sqrt(ssa * ssx)
    # 1 - W computed as a product to avoid cancellation for W near 1.
    w1 = (ssassx - sax) * (ssassx + sax) / (ssa * ssx)
    return 1.0 - w1


def _w_p_value(w: float, n: int) -> float:
    if n == 3:
        stqr = math.asin(math.sqrt(0.75))
        p = (6.0 / math.pi) * (math.asin(math.sqrt(w)) - stqr)
        return min(max(p, 0.0), 1.0)
    y = math.log(1.0 - w)
    if n <= 11:
        gamma = _poly(_G, float(n))
        if y >= gamma:
            return _SMALL
        y = -math.log(gamma - y)
        mu = _poly(_C3, float(n))
        sigma = math.exp(_poly(_C4, float(n)))
    else:
        log_n = math.log(n)
        mu = _poly(_C5, log_n)
        sigma = math.exp(_poly(_C6, log_n))
    return _norm_sf((y - mu) / sigma)


def _poly(coefficients: Sequence[float], x: float) -> float:
    result = coefficients[0]
    power = 1.0
    for c in coefficients[1:]:
        power *= x
        result += c * power
    return result


# -- normal distribution helpers ---------------------------------------------


def _norm_sf(z: float) -> float:
    """Upper tail of the standard normal distribution."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))

