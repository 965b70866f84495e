"""Worst-case coverage over a rate interval.

Evaluating coverage on the candidate set and taking the smallest value
yields the exact minimum over the whole continuum of rates; between
consecutive candidates the coverage never dips below the smaller of the two
adjacent candidate values.

The scan reads candidates as plain tuples, keeps the best point as
scalars and builds one `CoverageResult` on return.
"""

from __future__ import annotations

from .candidates import _point_tuples
from .coverage import _coverage
from .types import CoverageResult, ErrorCriterion, ParamInterval

__all__ = ["min_coverage", "scan_min_coverage"]


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
    best_cov = None
    count = 0
    for value, kind, ell, extra_tags in _point_tuples(criterion, n, interval):
        g, h, cov = _coverage(criterion, n, value, ((kind, ell),) + extra_tags)
        count += 1
        if best_cov is None or cov < best_cov:
            best_lam, best_g, best_h, best_cov = value, g, h, cov
            # Only a new best can first reach the threshold.
            if fail_fast_threshold is not None and cov <= fail_fast_threshold:
                break
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
