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

At a candidate breakpoint the side its tag pins (`types._PIN_SIDE`) comes
from the integer ell instead.  The whole rule, float and pinned sides, and
its errors live in `_window`, which takes the ell of each pinned side.
`_coverage` reads a point's tags into those pins and sums the window; every
public function here and the scan's first candidates go through it, and
the scan passes plain fields and builds no objects.  The public functions
check the margins and n once (`types`); `_window` checks only the rate, so
a scan's probe sums do not check n again.  `_windows` is the same rule
over arrays, with the same pins, for the scan's chunks, the grid oracle
and a batched run's rows of several n, one n per row; it raises each error
by calling `_window` on the row at fault.  `_blocks` sums the rows of both
``coverage`` routes, candidates and grid, a chunk at a time.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .kernel import interval_prob, interval_probs
from .types import (
    Absolute,
    CandidatePoint,
    CoverageResult,
    ErrorCriterion,
    MarginTooNarrow,
    Mixed,
    _PIN_SIDE,
    _check_margins,
    _check_rate,
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


# The ell of a side no tag pins, in the arrays `_windows` reads; far from
# any ell a scan can reach (below 2**38 in size), so ell -+ 1 cannot wrap.
_UNPINNED = -(2 ** 62)


def _snap(x: float) -> float:
    r = round(x)
    if abs(x - r) <= SNAP_TOL * max(1.0, abs(x)):
        return float(r)
    return x


def _window(
    criterion: ErrorCriterion, n: int, lam: float, g_ell: int = _UNPINNED, h_ell: int = _UNPINNED
) -> tuple[int, int]:
    """The window (g, h) at rate lam.  ``g_ell`` and ``h_ell`` are the ells
    of the tags pinning each side, the side `types._PIN_SIDE` names for the
    tag's family, or `_UNPINNED`.  At a breakpoint the pinned side sits
    exactly on an integer jump, so it comes from the ell in integers:

        g = max(0, g_ell + 1)          h = h_ell - 1

    (only ABS_PLUS needs the clamp: a REL_LOWER member of a candidate set
    has ell >= 0).  Unpinned sides take the float rule above through
    `_snap`.  Where both sides, snapped or pinned, fall on one count
    strictly between the products, the margin is below what the rule
    resolves and the window would drop that count: that raises
    `MarginTooNarrow`.  The caller has checked the criterion's margins and
    n, once per call or per search, so a scan's probe sums check neither;
    the rate is checked here."""
    _check_rate(lam)
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
    if g_ell == _UNPINNED:  # a relative lower product is >= 0: only absolute g clamps
        g_ell = math.floor(_snap(lower))
    if h_ell == _UNPINNED:
        h_ell = math.ceil(_snap(upper))
    g, h = max(0, g_ell + 1), h_ell - 1
    if h == g - 2 and g >= 1 and lower < g - 1 < upper:
        raise MarginTooNarrow(
            f"the margin is too narrow at rate {lam!r} for n = {n!r}: both window "
            f"ends, {lower!r} and {upper!r}, fall on the count {g - 1} between them")
    return g, h


def _windows(
    criterion: ErrorCriterion, n: int | np.ndarray, lams: np.ndarray,
    g_ell=_UNPINNED, h_ell=_UNPINNED,
) -> tuple[np.ndarray, np.ndarray]:
    """`_window` over an array of rates, as int64 arrays g and h equal
    element for element to its values.  ``n``, ``g_ell`` and ``h_ell`` are
    each one value for every rate or an int64 array of one per rate; the
    defaults pin no side.

    The float rule takes the same operations in the same order; ``np.rint``
    rounds half to even like ``round``.  A negative rate, a non-finite
    product or a window too narrow to resolve raises the error `_window`
    raises for the first such rate with its own n and pins; the last costs
    a subtraction and a max over the rows where no window is."""
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
    if not bad.any():
        g = np.maximum(np.floor(_snaps(lower)) + 1.0, 0.0).astype(np.int64)
        h = (np.ceil(_snaps(upper)) - 1.0).astype(np.int64)
        g = np.where(g_ell != _UNPINNED, np.maximum(g_ell + 1, 0), g)
        h = np.where(h_ell != _UNPINNED, h_ell - 1, h)
        if not lams.size or (g - h).max() <= 1:  # no two ends on one count
            return g, h
        bad = (h == g - 2) & (g >= 1) & (lower < g - 1) & (g - 1 < upper)
        if not bad.any():
            return g, h
    i = bad.argmax()  # the first row at fault, whichever way
    _window(criterion, *(np.broadcast_to(column, lams.shape)[i].item()
                         for column in (n, lams, g_ell, h_ell)))  # raises


def _snaps(x: np.ndarray) -> np.ndarray:
    """`_snap` over an array."""
    r = np.rint(x)
    return np.where(np.abs(x - r) <= SNAP_TOL * np.maximum(1.0, np.abs(x)), r, x)


def _blocks(
    criterion: ErrorCriterion, n: int, chunks: Iterable[tuple[np.ndarray, ...]]
) -> Iterator[tuple[np.ndarray, ...]]:
    """(lams, g, h, coverage) arrays over the rows (value, g_ell, h_ell) of
    ``chunks``, each chunk built when asked for and summed in one
    `interval_probs` call, wide enough for the kernel's lean pre-pass."""
    for lams, g_ell, h_ell in chunks:
        gs, hs = _windows(criterion, n, lams, g_ell, h_ell)
        yield lams, gs, hs, interval_probs(gs, hs, n * lams)


def _coverage(
    criterion: ErrorCriterion, n: int, lam: float, tags: tuple
) -> tuple[int, int, float]:
    """(g, h, coverage) at rate lam, each (kind, ell) of ``tags`` pinning
    the side `_PIN_SIDE` names for its kind, the last for each side; a
    kind that is not a breakpoint family pins nothing (see `_window`)."""
    pins = [_UNPINNED, _UNPINNED]
    for kind, ell in tags:
        side = _PIN_SIDE.get(kind)  # one lookup: an Enum hashes in Python
        if side is not None:
            pins[side] = ell
    g, h = _window(criterion, n, lam, *pins)
    return g, h, interval_prob(g, h, n * lam)


def acceptance_bounds(criterion: ErrorCriterion, n: int, lam: float) -> AcceptanceBounds:
    """Window of total counts for which the error event holds at rate lam."""
    _check_margins(criterion)
    _check_sample_size(n)
    return AcceptanceBounds(*_window(criterion, n, lam))


def coverage_at(criterion: ErrorCriterion, n: int, lam: float) -> CoverageResult:
    """Probability that the error event holds at rate lam with n samples."""
    _check_margins(criterion)
    _check_sample_size(n)
    g, h, cov = _coverage(criterion, n, lam, ())
    return CoverageResult(lam=lam, g=g, h=h, coverage=cov)


def coverage_at_point(
    criterion: ErrorCriterion, n: int, point: CandidatePoint
) -> CoverageResult:
    """Coverage at a candidate point through the window its tags pin
    (`_coverage`); an untagged point gets `acceptance_bounds`' window."""
    _check_margins(criterion)
    _check_sample_size(n)
    g, h, cov = _coverage(criterion, n, point.value, point.grid_tags())
    return CoverageResult(lam=point.value, g=g, h=h, coverage=cov)
