"""Exponential tail bounds for the rate estimate.

For K ~ Poisson(n lam) and estimate K/n, standard exponential-moment
arguments give, for 0 < eps < 1,

    Pr{ K/n <= (1 - eps) lam }  <  [e^-eps / (1-eps)^(1-eps)]^(n lam)
                                <  exp(-lam n eps^2 / 2)
    Pr{ K/n >= (1 + eps) lam }  <  [e^eps / (1+eps)^(1+eps)]^(n lam)
                                <  exp(-(2 ln 2 - 1) lam n eps^2)

Both tails shrink exponentially in lam, so for a relative margin there is a
threshold rate above which the two closed-form bounds together already
spend less than the whole risk budget: coverage exceeds 1 - delta for every
lam above `lambda_threshold` and only rates below it need explicit checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .types import _check_delta, _check_margin, _check_rate, _check_sample_size

TWO_LN2_MINUS_1 = 2.0 * math.log(2.0) - 1.0

__all__ = ["TWO_LN2_MINUS_1", "TailBounds", "tail_bounds", "lambda_threshold"]


@dataclass(frozen=True, slots=True)
class TailBounds:
    """Upper bounds on the two relative-deviation tails, each capped at 1."""

    lower: float
    upper: float


def tail_bounds(n: int, lam: float, eps: float) -> TailBounds:
    """Closed-form exponential bounds on both relative tails."""
    _check_sample_size(n)
    _check_rate(lam)
    _check_margin(eps)
    x = n * lam * eps * eps
    return TailBounds(
        lower=min(1.0, math.exp(-0.5 * x)),
        upper=min(1.0, math.exp(-TWO_LN2_MINUS_1 * x)),
    )


def lambda_threshold(n: int, eps_r: float, delta: float) -> float:
    """Rate above which relative coverage certifiably exceeds 1 - delta.

    Splitting delta across the two tails and inverting the slower of the two
    closed-form bounds gives

        threshold = ln(2 / delta) / ((2 ln 2 - 1) n eps_r^2).

    Every lam > threshold satisfies Pr{|K/n - lam| < eps_r lam} > 1 - delta,
    so a search only needs to evaluate rates in [a, min(b, threshold)].
    When eps_r is so small that the denominator underflows to 0, no finite
    rate is certified and the threshold is inf.
    """
    _check_sample_size(n)
    _check_margin(eps_r)
    _check_delta(delta)
    return _threshold(n, eps_r, delta)


def _threshold(n: int, eps_r: float, delta: float) -> float:
    """`lambda_threshold` of arguments already checked, for a search that
    checks its query once."""
    denom = TWO_LN2_MINUS_1 * n * eps_r * eps_r
    if denom == 0.0:
        return math.inf
    return math.log(2.0 / delta) / denom
