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

At a candidate breakpoint the side its tag names comes from the integer
ell instead (`coverage_at_point`); only untagged sides use the float rule
above.  The scan calls that step with plain fields, building no objects.
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
    r = round(x)
    if abs(x - r) <= SNAP_TOL * max(1.0, abs(x)):
        return float(r)
    return x


def _products(criterion: ErrorCriterion, n: int, lam: float) -> tuple[float, float, bool]:
    """(lower, upper, absolute): g = floor(lower) + 1, clamped at 0 when
    absolute, and h = ceil(upper) - 1, both through `_snap`."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n!r}")
    if not (lam >= 0.0):
        raise ValueError(f"rate must be nonnegative, got {lam!r}")
    if isinstance(criterion, Absolute):
        absolute, eps = True, criterion.eps
    elif isinstance(criterion, Relative):
        absolute, eps = False, criterion.eps
    elif isinstance(criterion, Mixed):
        absolute = lam <= criterion.crossover
        eps = criterion.eps_a if absolute else criterion.eps_r
    else:
        raise TypeError(f"unknown criterion type: {criterion!r}")
    if absolute:
        lower, upper = n * (lam - eps), n * (lam + eps)
    else:
        lower, upper = n * lam * (1.0 - eps), n * lam * (1.0 + eps)
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise ValueError(
            f"acceptance window bound {upper if math.isfinite(lower) else lower!r} "
            "is not finite: the rate is too large for this sample size")
    return lower, upper, absolute


def _floor_g(lower: float, absolute: bool) -> int:
    g = math.floor(_snap(lower)) + 1
    return max(0, g) if absolute else g


def acceptance_bounds(criterion: ErrorCriterion, n: int, lam: float) -> AcceptanceBounds:
    """Window of total counts for which the error event holds at rate lam."""
    lower, upper, absolute = _products(criterion, n, lam)
    return AcceptanceBounds(_floor_g(lower, absolute), math.ceil(_snap(upper)) - 1)


def coverage_at(criterion: ErrorCriterion, n: int, lam: float) -> CoverageResult:
    """Probability that the error event holds at rate lam with n samples."""
    bounds = acceptance_bounds(criterion, n, lam)
    cov = interval_prob(bounds.g, bounds.h, n * lam)
    return CoverageResult(lam=lam, g=bounds.g, h=bounds.h, coverage=cov)


def _tagged_coverage(criterion: ErrorCriterion, n: int, value: float, kind: CandidateKind,
                     ell: int | None, extra_tags: tuple) -> tuple[int, int, float]:
    """(g, h, coverage) at the point (value, kind, ell, extra_tags).  Tags
    apply in order, own tag first; only untagged sides use `_snap`."""
    lower, upper, absolute = _products(criterion, n, value)
    g = h = None
    for tag, k in ((kind, ell),) + extra_tags:
        if tag is CandidateKind.ABS_PLUS:
            g = max(0, k + 1)
        elif tag is CandidateKind.REL_LOWER:
            g = k + 1
        elif tag is CandidateKind.ABS_MINUS or tag is CandidateKind.REL_UPPER:
            h = k - 1
    if g is None:
        g = _floor_g(lower, absolute)
    if h is None:
        h = math.ceil(_snap(upper)) - 1
    return g, h, interval_prob(g, h, n * value)


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
    g, h, cov = _tagged_coverage(
        criterion, n, point.value, point.kind, point.ell, point.extra_tags)
    return CoverageResult(lam=point.value, g=g, h=h, coverage=cov)
