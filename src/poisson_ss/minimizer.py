"""Worst-case coverage over a rate interval.

Evaluating coverage on the candidate set and taking the smallest value
yields the exact minimum over the whole continuum of rates; between
consecutive candidates the coverage never dips below the smaller of the two
adjacent candidate values.
"""

from __future__ import annotations

from .candidates import candidate_stream
from .coverage import coverage_at_point
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
    best: CoverageResult | None = None
    count = 0
    for point in candidate_stream(criterion, n, interval):
        result = coverage_at_point(criterion, n, point)
        count += 1
        if best is None or result.coverage < best.coverage:
            best = result
        if fail_fast_threshold is not None and best.coverage <= fail_fast_threshold:
            break
    assert best is not None
    return best, count


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
