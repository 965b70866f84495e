"""Numerically careful Poisson probabilities.

Everything downstream reduces to two quantities: the probability mass
``pmf(k, mu) = mu^k e^(-mu) / k!`` and the interval mass
``interval_prob(k_lo, k_hi, mu) = sum of pmf over max(0, k_lo) <= k <= k_hi``.

The mass function is evaluated through the deviance decomposition

    pmf(k, mu) = exp(-stirlerr(k) - bd0(k, mu)) / sqrt(2 pi k),    k >= 1,

where ``stirlerr(k) = ln k! - ln sqrt(2 pi k) - k ln k + k`` and
``bd0(k, mu) = k ln(k / mu) + mu - k``.  Both pieces are small, cancellation
free numbers, so the result keeps close to full double precision even for
means in the thousands, where the naive ``exp(k ln mu - mu - ln k!)`` loses
several digits to rounding inside the large exponent.

Interval masses are summed outward from the in-range index nearest the mode
with the two-term recurrence ``p(k+1) = p(k) mu / (k+1)``, compensated
Fast2Sum addition, and a relative cutoff of 1e-18 once terms are falling.
Fast2Sum's error term is exact because no term exceeds the running total:
the anchor is the largest in-range term and the total never drops below it.

A sum's length grows like sqrt(mu) (0.3 s at mu = 1e10), so a mean above
_MAX_MEAN = 2**38 (about 2.7e11; the candidate stream's spacing guard keeps
n * b below 1.25e11), a non-finite mean or a non-finite count raises.
"""

from __future__ import annotations

import math

_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)

# Coefficients of the asymptotic series stirlerr(n) ~ 1/(12n) - 1/(360n^3) + ...
_S0 = 1.0 / 12.0
_S1 = 1.0 / 360.0
_S2 = 1.0 / 1260.0
_S3 = 1.0 / 1680.0
_S4 = 1.0 / 1188.0

_TERM_CUTOFF = 1e-18
_MAX_MEAN = 2.0 ** 38

__all__ = ["pmf", "interval_prob"]


def _stirlerr(n: float) -> float:
    """ln n! - ln(sqrt(2 pi n) (n/e)^n) for integer n >= 1."""
    if n <= 15.0:
        # Direct evaluation; the intermediate terms stay O(40), so the
        # cancellation costs only a few ulps of absolute error.
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _HALF_LN_2PI
    nn = n * n
    if n > 500.0:
        return (_S0 - _S1 / nn) / n
    if n > 80.0:
        return (_S0 - (_S1 - _S2 / nn) / nn) / n
    if n > 35.0:
        return (_S0 - (_S1 - (_S2 - _S3 / nn) / nn) / nn) / n
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, mu: float) -> float:
    """Deviance term x ln(x/mu) + mu - x, stable for x near mu.

    Near x = mu the direct formula subtracts two large, nearly equal
    quantities; the expansion in v = (x - mu)/(x + mu) avoids that.
    """
    if abs(x - mu) < 0.1 * (x + mu):
        v = (x - mu) / (x + mu)
        s = (x - mu) * v
        ej = 2.0 * x * v
        v2 = v * v
        j = 1
        while True:
            ej *= v2
            s1 = s + ej / (2 * j + 1)
            if s1 == s:
                return s1
            s = s1
            j += 1
    return x * math.log(x / mu) + mu - x


def pmf(k: int, mu: float) -> float:
    """Poisson probability mass mu^k e^(-mu) / k!.

    Args:
        k: nonnegative integer count.
        mu: mean in [0, 2**38]; pmf(0, 0.0) is 1.0 by convention.

    Returns:
        The mass as a float, with relative error a few ulps (well inside
        1e-13) throughout the supported range; underflows to 0.0 in the far
        tails rather than raising.
    """
    if k < 0 or k != k // 1:  # inf // 1 and NaN // 1 are NaN
        raise ValueError(f"count must be a nonnegative integer, got {k!r}")
    if not (0.0 <= mu <= _MAX_MEAN):
        raise ValueError(f"mean must lie in [0, 2**38], got {mu!r}")
    if mu == 0.0:
        return 1.0 if k == 0 else 0.0
    if k == 0:
        return math.exp(-mu)
    kf = float(k)
    return math.exp(-_stirlerr(kf) - _bd0(kf, mu)) / math.sqrt(2.0 * math.pi * kf)


def interval_prob(k_lo: int, k_hi: int, mu: float) -> float:
    """Probability that a Poisson(mu) variate lies in [max(0, k_lo), k_hi].

    An empty range (k_hi < max(0, k_lo)) has probability 0.  The sum is
    anchored at the admissible index nearest the mode floor(mu) and extended
    outward by the term recurrence, so every term is reached through
    decreasing ratios and no factorials are formed.

    Absolute error is far below 1e-12 for means up to 1e6 and ranges up to
    1e6 terms.  The result is clamped to [0, 1].
    """
    if not (0.0 <= mu <= _MAX_MEAN):
        raise ValueError(f"mean must lie in [0, 2**38], got {mu!r}")
    if not (abs(k_hi - k_lo) < math.inf):  # inf or NaN: a count is not finite
        raise ValueError(f"counts must be finite, got [{k_lo!r}, {k_hi!r}]")
    lo = max(0, k_lo)
    if k_hi < lo:
        return 0.0
    if mu == 0.0:
        return 1.0 if lo == 0 else 0.0

    # The pmf is unimodal with mode floor(mu), so the clamped anchor is the
    # largest in-range term.  Each recurrence factor (mu/k with k > mu, k/mu
    # with k <= floor(mu)) rounds to at most 1 and a sum of positive terms
    # never drops below the anchor mass, so total >= term at every step.
    anchor = min(max(math.floor(mu), lo), k_hi)
    anchor_mass = pmf(anchor, mu)
    if anchor_mass == 0.0:
        # The largest in-range term underflows; the whole range is
        # negligible at double precision.
        return 0.0

    total = anchor_mass
    comp = 0.0

    term = anchor_mass
    k = anchor
    while k < k_hi:
        k += 1
        term *= mu / k
        fresh = total + term
        comp += (total - fresh) + term
        total = fresh
        if term <= _TERM_CUTOFF * total:
            break

    term = anchor_mass
    k = anchor
    while k > lo:
        term *= k / mu
        k -= 1
        fresh = total + term
        comp += (total - fresh) + term
        total = fresh
        if term <= _TERM_CUTOFF * total:
            break

    out = total + comp
    if out < 0.0:
        return 0.0
    if out > 1.0:
        return 1.0
    return out
