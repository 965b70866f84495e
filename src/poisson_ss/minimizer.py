"""Worst-case coverage over a rate interval.

Evaluating coverage on the candidate set and taking the smallest value
yields the exact minimum over the whole continuum of rates; between
consecutive candidates the coverage never dips below the smaller of the two
adjacent candidate values.

The scan reads candidates as plain tuples, keeps the best point as
scalars and builds one `CoverageResult` on return.  The first _PREFIX
candidates are evaluated one at a time with the scalar kernel: a failing n
is usually decided there (a Relative search spends ~2.4 evaluations per
n), and a numpy call would cost more than those few sums.  The rest come in
blocks of _FIRST_BLOCK candidates, doubling up to _MAX_BLOCK, whose windows
are resolved one by one and whose coverages come from one `interval_probs`
call, bit for bit the scalar values.  So the scan returns what a
point-by-point scan returns: ties go to the first minimum in a block and to
the earlier block across blocks, and ``evaluations`` counts the candidates
up to and including the witness.  A fail-fast stop inside a block has built
and summed the rest of that block, so at most one block past the witness is
built.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .candidates import _point_tuples
from .coverage import _coverage, _window
from .kernel import interval_probs
from .types import CoverageResult, ErrorCriterion, ParamInterval

__all__ = ["min_coverage", "scan_min_coverage"]

_PREFIX = 8
_FIRST_BLOCK = 64
_MAX_BLOCK = 512


def scan_min_coverage(
    criterion: ErrorCriterion,
    n: int,
    interval: ParamInterval,
    fail_fast_threshold: float | None = None,
) -> tuple[CoverageResult, int]:
    """Minimum coverage plus the number of coverage evaluations spent.

    Candidates are scanned in ascending rate order and ties go to the
    smaller rate.  When a fail-fast threshold is given the scan stops at the
    first candidate with coverage <= threshold; the returned result is then
    that witness rather than the global minimum, which is all a pass/fail
    decision needs.  Candidates are streamed, so an early stop also stops
    building them.
    """
    points = _point_tuples(criterion, n, interval)
    best_cov = None
    count = 0
    for value, kind, ell, extra_tags in islice(points, _PREFIX):
        g, h, cov = _coverage(criterion, n, value, ((kind, ell),) + extra_tags)
        count += 1
        if best_cov is None or cov < best_cov:
            best_lam, best_g, best_h, best_cov = value, g, h, cov
            # Only a new best can first reach the threshold.
            if fail_fast_threshold is not None and cov <= fail_fast_threshold:
                return CoverageResult(lam=value, g=g, h=h, coverage=cov), count

    size = _FIRST_BLOCK
    while block := list(islice(points, size)):
        lams = [point[0] for point in block]
        windows = [_window(criterion, n, value, ((kind, ell),) + extra_tags)
                   for value, kind, ell, extra_tags in block]
        gs, hs = zip(*windows)
        covs = interval_probs(gs, hs, n * np.array(lams))
        if fail_fast_threshold is not None:
            # Every earlier coverage is above the threshold, so the first
            # one at or below it is a new best and the witness.
            hits = np.flatnonzero(covs <= fail_fast_threshold)
            if hits.size:
                i = int(hits[0])
                g, h = windows[i]
                return (CoverageResult(lam=lams[i], g=g, h=h, coverage=float(covs[i])),
                        count + i + 1)
        count += len(block)
        i = int(covs.argmin())
        if covs[i] < best_cov:
            best_lam, (best_g, best_h), best_cov = lams[i], windows[i], float(covs[i])
        size = min(2 * size, _MAX_BLOCK)
    return CoverageResult(lam=best_lam, g=best_g, h=best_h, coverage=best_cov), count


def min_coverage(
    criterion: ErrorCriterion,
    n: int,
    interval: ParamInterval,
    fail_fast_threshold: float | None = None,
) -> CoverageResult:
    """Smallest coverage attained over [a, b] for sample size n.

    Deterministic: repeated calls return identical results bit for bit.
    """
    result, _ = scan_min_coverage(criterion, n, interval, fail_fast_threshold)
    return result
