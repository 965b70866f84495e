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
ell instead.  The whole rule, float and tagged sides, lives in `_window`,
which every public function here and the scan's first candidates go
through; the scan passes plain fields and builds no objects.  `_windows`
is the same rule over arrays, for the scan's blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import interval_prob
from .types import (
    Absolute,
    CandidateKind,
    CandidatePoint,
    CoverageResult,
    ErrorCriterion,
    Mixed,
    _check_margins,
    _check_sample_size,
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


# The side of the window each breakpoint family pins at its own members,
# as in `_window`: 0 for g, 1 for h.
_PIN_SIDE = {CandidateKind.ABS_PLUS: 0, CandidateKind.REL_LOWER: 0,
             CandidateKind.ABS_MINUS: 1, CandidateKind.REL_UPPER: 1}

# The ell of a side no tag pins, in the arrays `_windows` reads; far from
# any ell a scan can reach (below 2**38 in size), so ell -+ 1 cannot wrap.
_UNPINNED = -(2 ** 62)


def _snap(x: float) -> float:
    r = round(x)
    if abs(x - r) <= SNAP_TOL * max(1.0, abs(x)):
        return float(r)
    return x


def _window(criterion: ErrorCriterion, n: int, lam: float, tags: tuple) -> tuple[int, int]:
    """The window (g, h) at rate lam.  Each (kind, ell) in ``tags``, a
    point's own tag first, pins one side in integer arithmetic, since at a
    breakpoint that side sits exactly on an integer jump; a kind that is
    not a breakpoint family pins nothing:

        value = ell/n + eps            ->  g = max(0, ell + 1)
        value = ell/(n (1 - eps))      ->  g = ell + 1
        value = ell/n - eps            ->  h = ell - 1
        value = ell/(n (1 + eps))      ->  h = ell - 1

    Unpinned sides take the float rule above through `_snap`.  The caller
    has checked the criterion's margins."""
    _check_sample_size(n)
    if not (lam >= 0.0):
        raise ValueError(f"rate must be nonnegative, got {lam!r}")
    if isinstance(criterion, Mixed):
        absolute = lam <= criterion.crossover
        eps = criterion.eps_a if absolute else criterion.eps_r
    else:
        absolute, eps = isinstance(criterion, Absolute), criterion.eps
    if absolute:
        lower, upper = n * (lam - eps), n * (lam + eps)
    else:
        lower, upper = n * lam * (1.0 - eps), n * lam * (1.0 + eps)
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise ValueError(
            f"acceptance window bound {upper if math.isfinite(lower) else lower!r} "
            "is not finite: the rate is too large for this sample size")
    g = h = None
    for kind, ell in tags:
        if kind is CandidateKind.ABS_PLUS:
            g = max(0, ell + 1)
        elif kind is CandidateKind.REL_LOWER:
            g = ell + 1
        elif kind is CandidateKind.ABS_MINUS or kind is CandidateKind.REL_UPPER:
            h = ell - 1
    if g is None:  # a relative lower product is >= 0: only absolute g clamps
        g = max(0, math.floor(_snap(lower)) + 1)
    if h is None:
        h = math.ceil(_snap(upper)) - 1
    return g, h


def _windows(
    criterion: ErrorCriterion, n: int, lams: np.ndarray, g_ell: np.ndarray,
    h_ell: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """`_window` over an array of rates, as int64 arrays g and h equal
    element for element to its values.  ``g_ell`` and ``h_ell`` hold, per
    rate, the ell of the last tag pinning that side (`_PIN_SIDE`), or
    `_UNPINNED`.  A g pin is max(0, ell + 1) for both families: a
    REL_LOWER member of a candidate set has ell >= 0.

    The float rule takes the same operations in the same order; ``np.rint``
    rounds half to even like ``round``.  A negative rate or a non-finite
    product raises `_window`'s ValueError for the first such rate."""
    with np.errstate(over="ignore"):  # a product overflows to inf, as in floats
        if isinstance(criterion, Mixed):
            absolute = lams <= criterion.crossover
            eps = np.where(absolute, criterion.eps_a, criterion.eps_r)
            lower = np.where(absolute, n * (lams - eps), n * lams * (1.0 - eps))
            upper = np.where(absolute, n * (lams + eps), n * lams * (1.0 + eps))
        elif isinstance(criterion, Absolute):
            lower, upper = n * (lams - criterion.eps), n * (lams + criterion.eps)
        else:
            mu = n * lams
            lower, upper = mu * (1.0 - criterion.eps), mu * (1.0 + criterion.eps)
    bad = ~((lams >= 0.0) & np.isfinite(lower) & np.isfinite(upper))
    if bad.any():
        _window(criterion, n, float(lams[bad.argmax()]), ())  # raises
    g = np.maximum(np.floor(_snaps(lower)) + 1.0, 0.0).astype(np.int64)
    h = (np.ceil(_snaps(upper)) - 1.0).astype(np.int64)
    g = np.where(g_ell != _UNPINNED, np.maximum(g_ell + 1, 0), g)
    h = np.where(h_ell != _UNPINNED, h_ell - 1, h)
    return g, h


def _snaps(x: np.ndarray) -> np.ndarray:
    """`_snap` over an array."""
    r = np.rint(x)
    return np.where(np.abs(x - r) <= SNAP_TOL * np.maximum(1.0, np.abs(x)), r, x)


def _coverage(
    criterion: ErrorCriterion, n: int, lam: float, tags: tuple
) -> tuple[int, int, float]:
    """(g, h, coverage) at rate lam; see `_window`."""
    g, h = _window(criterion, n, lam, tags)
    return g, h, interval_prob(g, h, n * lam)


def acceptance_bounds(criterion: ErrorCriterion, n: int, lam: float) -> AcceptanceBounds:
    """Window of total counts for which the error event holds at rate lam."""
    _check_margins(criterion)
    return AcceptanceBounds(*_window(criterion, n, lam, ()))


def coverage_at(criterion: ErrorCriterion, n: int, lam: float) -> CoverageResult:
    """Probability that the error event holds at rate lam with n samples."""
    _check_margins(criterion)
    g, h, cov = _coverage(criterion, n, lam, ())
    return CoverageResult(lam=lam, g=g, h=h, coverage=cov)


def coverage_at_point(
    criterion: ErrorCriterion, n: int, point: CandidatePoint
) -> CoverageResult:
    """Coverage at a candidate point through the window its tags pin
    (`_window`); an untagged point gets `acceptance_bounds`' window."""
    _check_margins(criterion)
    g, h, cov = _coverage(criterion, n, point.value,
                          ((point.kind, point.ell),) + point.extra_tags)
    return CoverageResult(lam=point.value, g=g, h=h, coverage=cov)
