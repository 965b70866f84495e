"""Acceptance windows and coverage probability.

With n observations the rate estimate is K/n where K, the total count, is
Poisson(n * lam).  For each criterion the error event "the estimate is
within margin of lam" holds exactly when K lands in an integer window
[g(lam), h(lam)]:

    absolute, margin eps:   g = max(0, floor(n (lam - eps)) + 1)
                            h = ceil(n (lam + eps)) - 1
    relative, margin eps:   g = floor(n lam (1 - eps)) + 1
                            h = ceil(n lam (1 + eps)) - 1

(strict inequalities in the event translate into the +1/-1 corrections).
A mixed criterion uses the absolute window at rates up to the crossover
eps_a / eps_r and the relative window above it; the two windows agree at
the crossover itself.

Coverage at lam is then the Poisson(n * lam) mass of the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kernel import interval_prob
from .types import (
    Absolute,
    CandidateKind,
    CandidatePoint,
    CoverageResult,
    ErrorCriterion,
    Mixed,
    Relative,
)

# Products such as n * (lam - eps) are snapped to an integer when they land
# within this relative distance of one; rates fed through the command line
# routinely sit within an ulp of a window boundary and the snap makes the
# floor/ceil deterministic there.  The window must stay far below the 1e-10
# oracle tolerances: snapping reads the post-jump window slightly early, by
# at most ~sqrt(mu) * SNAP_TOL in coverage.
SNAP_TOL = 1e-12

__all__ = [
    "SNAP_TOL",
    "AcceptanceBounds",
    "acceptance_bounds",
    "coverage_at",
    "coverage_at_point",
]


@dataclass(frozen=True, slots=True)
class AcceptanceBounds:
    """Integer window [g, h]; g > h means the window is empty."""

    g: int
    h: int


def _snap(x: float) -> float:
    if not math.isfinite(x):
        raise ValueError(
            f"acceptance window bound {x!r} is not finite: the rate is too "
            "large for this sample size")
    r = round(x)
    if abs(x - r) <= SNAP_TOL * max(1.0, abs(x)):
        return float(r)
    return x


def _absolute_bounds(n: int, lam: float, eps: float) -> AcceptanceBounds:
    g = max(0, math.floor(_snap(n * (lam - eps))) + 1)
    h = math.ceil(_snap(n * (lam + eps))) - 1
    return AcceptanceBounds(g, h)


def _relative_bounds(n: int, lam: float, eps: float) -> AcceptanceBounds:
    g = math.floor(_snap(n * lam * (1.0 - eps))) + 1
    h = math.ceil(_snap(n * lam * (1.0 + eps))) - 1
    return AcceptanceBounds(g, h)


def acceptance_bounds(criterion: ErrorCriterion, n: int, lam: float) -> AcceptanceBounds:
    """Window of total counts for which the error event holds at rate lam."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n!r}")
    if not (lam >= 0.0):
        raise ValueError(f"rate must be nonnegative, got {lam!r}")
    if isinstance(criterion, Absolute):
        return _absolute_bounds(n, lam, criterion.eps)
    if isinstance(criterion, Relative):
        return _relative_bounds(n, lam, criterion.eps)
    if isinstance(criterion, Mixed):
        if lam <= criterion.crossover:
            return _absolute_bounds(n, lam, criterion.eps_a)
        return _relative_bounds(n, lam, criterion.eps_r)
    raise TypeError(f"unknown criterion type: {criterion!r}")


def coverage_at(criterion: ErrorCriterion, n: int, lam: float) -> CoverageResult:
    """Probability that the error event holds at rate lam with n samples."""
    bounds = acceptance_bounds(criterion, n, lam)
    cov = interval_prob(bounds.g, bounds.h, n * lam)
    return CoverageResult(lam=lam, g=bounds.g, h=bounds.h, coverage=cov)


def coverage_at_point(
    criterion: ErrorCriterion, n: int, point: CandidatePoint
) -> CoverageResult:
    """Coverage at a candidate point through the exact tagged window.

    At a breakpoint one side of the window sits exactly on an integer jump;
    the stored ell resolves that side in integer arithmetic instead of
    trusting a floating floor or ceiling:

        value = ell/n + eps            ->  g = max(0, ell + 1)
        value = ell/(n (1 - eps))      ->  g = ell + 1
        value = ell/n - eps            ->  h = ell - 1
        value = ell/(n (1 + eps))      ->  h = ell - 1

    Untagged sides (and untagged points such as plain endpoints) keep the
    window of `acceptance_bounds`.
    """
    bounds = acceptance_bounds(criterion, n, point.value)
    g, h = bounds.g, bounds.h
    # Tags are only the four grid kinds: the else is ABS_MINUS or REL_UPPER.
    for kind, ell in point.grid_tags():
        if kind is CandidateKind.ABS_PLUS:
            g = max(0, ell + 1)
        elif kind is CandidateKind.REL_LOWER:
            g = ell + 1
        else:
            h = ell - 1
    cov = interval_prob(g, h, n * point.value)
    return CoverageResult(lam=point.value, g=g, h=h, coverage=cov)
