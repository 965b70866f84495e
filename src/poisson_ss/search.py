"""Search for the smallest sufficient sample size.

A sample size n is sufficient when the minimum coverage over the rate
interval strictly exceeds 1 - delta.  Sufficiency is not monotone in n
(isolated insufficient values above the answer do occur), so the search
walks n upward from start_n and returns the first sufficient value.  Each
n is decided by a candidate scan that stops at the first failing rate; at
the returned n no rate fails, so that scan is complete and reports the
minimum over the scanned rates.  The scan sums a candidate's coverage only
where a cheap floor on it cannot rule the candidate out (see `minimizer`);
``evaluations`` counts the candidates it went through in rate order, summed
or not, so it does not depend on how many sums were needed.

For relative and mixed criteria the exponential tail bounds discharge all
rates above `lambda_threshold`, so each decision only scans candidates in
[a, min(b, threshold)]; the threshold shrinks like 1/n, which keeps large
searches cheap.  Truncation is always on and never changes a decision,
only the work done: rates above the threshold are certified, not skipped.
An Absolute criterion has no tails to bound and scans all of [a, b].  The
global worst case at the returned n, over all of [a, b], is
`min_coverage(criterion, plan.n_min, interval)`.

A failing n whose witness lies past the scan's scalar probe costs
mostly fixed per-n overhead (building arrays, `interval_probs` calls), not
sums.  So once an n's witness lies there, the search decides the following
n in batched runs: it takes the next consecutive n, never above max_n,
whose `cardinality_bound` over their scanned intervals sum to at most one
chunk of the array layout, lays out each n's whole candidate set over
[a, scan_b] as arrays, and runs the scan's fail-fast pass over all of them
at once, one segment of rows per n (`minimizer._fail_ranks`).  Each n's
decision there is the sequential one: its segment holds exactly its own
candidates, and the pass stops it at its first coverage at or below
1 - delta in rate order, so a failure found is the fail-fast scan's
witness and its rank the scan's ``evaluations``.  The leading n that fail
are decided by the run; the first n that does not goes through the
sequential scan, which is then complete and gives the plan.  So do an n
whose layout alone exceeds a chunk and one whose tail bound leaves only a.
An error building an n's layout ends the run before that n, which goes
through the sequential scan if the search gets there, so an error
surfaces only at an n the sequential search reaches.  The n of a run past
the answer are speculative: they cost work but never change the answer.

Where the relative margin governs, the count K = 0 is never inside the
acceptance window.  So the coverage at r0, the least such rate of [a, b]
(a, or for a mixed criterion the crossover where it lies above a), is at
most 1 - exp(-n r0), and every sufficient n exceeds ln(1/delta) / r0; r0
is a candidate, and the crossover's absolute window excludes K = 0 too.
A budget max_n below that bound is reported before any scan.
"""

from __future__ import annotations

import math

from .candidates import _CHUNK, _layout, cardinality_bound
from .chernoff import lambda_threshold
from .coverage import coverage_at
from .minimizer import _PREFIX, _fail_ranks, scan_min_coverage
from .types import (
    ConfidenceSpec,
    CoverageResult,
    ErrorCriterion,
    Mixed,
    ParamInterval,
    Relative,
    SampleSizePlan,
    validate,
)

__all__ = ["MaxSampleSizeExceeded", "min_sample_size"]

# The lower bound on n is only trusted when it clears max_n by more than
# float rounding, so a near tie is left to the scan.
_LOWER_BOUND_SLACK = 1e-9


class MaxSampleSizeExceeded(RuntimeError):
    """No sample size within the budget met the coverage requirement."""

    def __init__(self, max_n: int, reason: str = ""):
        message = f"no sufficient sample size found with n <= {max_n}"
        super().__init__(f"{message}: {reason}" if reason else message)
        self.max_n = max_n


def _relative_eps(criterion: ErrorCriterion) -> float | None:
    if isinstance(criterion, Relative):
        return criterion.eps
    if isinstance(criterion, Mixed):
        return criterion.eps_r
    return None


def _scan_b(criterion: ErrorCriterion, interval: ParamInterval, delta: float, n: int) -> float:
    """Upper end of the rates that decide n: the tail-bound threshold where
    it falls below b."""
    eps_r = _relative_eps(criterion)
    if eps_r is not None:
        threshold = lambda_threshold(n, eps_r, delta)
        if threshold < interval.b:
            return threshold
    return interval.b


def _decide(
    criterion: ErrorCriterion,
    interval: ParamInterval,
    delta: float,
    n: int,
) -> tuple[bool, CoverageResult, int, float]:
    """Pass/fail at one n: (passed, witness, evaluations, scanned upper end)."""
    a = interval.a
    scan_b = _scan_b(criterion, interval, delta, n)
    if scan_b <= a:
        # The tail bounds certify every rate above a; only a itself is left.
        result = coverage_at(criterion, n, a)
        return result.coverage > 1.0 - delta, result, 1, a
    result, evals = scan_min_coverage(
        criterion, n, ParamInterval(a, scan_b), 1.0 - delta)
    return result.coverage > 1.0 - delta, result, evals, scan_b


def _fail_run(
    criterion: ErrorCriterion,
    interval: ParamInterval,
    delta: float,
    start: int,
    max_n: int,
) -> tuple[list[int], int]:
    """(evaluations of each n from ``start`` on that one batch shows
    failing, number of n built for the batch); see the module docstring."""
    a = interval.a
    layouts, rows = [], 0.0
    for n in range(start, max_n + 1):
        try:
            scan_b = _scan_b(criterion, interval, delta, n)
            if scan_b <= a:
                break
            scanned = ParamInterval(a, scan_b)
            rows += cardinality_bound(criterion, n, scanned)
            if rows > _CHUNK:
                break
            layouts.append((n, _layout(criterion, n, scanned)))
        except ValueError:
            break
    return _fail_ranks(criterion, layouts, 1.0 - delta), len(layouts)


def min_sample_size(
    criterion: ErrorCriterion,
    interval: ParamInterval,
    conf: ConfidenceSpec,
    *,
    start_n: int = 1,
    max_n: int = 1_000_000,
) -> SampleSizePlan:
    """Smallest n >= start_n whose worst-case coverage exceeds 1 - delta.

    The returned plan reports the worst rate and its coverage at the chosen
    n (over the scanned interval; ties on coverage go to the smaller rate)
    and the total number of coverage evaluations spent by the search.

    Raises MaxSampleSizeExceeded when every n up to max_n fails, and
    ValueError when start_n < 1 or max_n < start_n.  Note the search begins at
    start_n = 1 by default; set start_n=2 to reproduce conventions that
    treat a single observation as no estimate at all.
    """
    validate(criterion, interval, conf)
    if start_n < 1:
        raise ValueError(f"start_n must be >= 1, got {start_n!r}")
    if max_n < start_n:
        raise ValueError(
            f"max_n must be >= start_n, got max_n={max_n!r} start_n={start_n!r}")
    delta = conf.delta
    # r0 of the module docstring, if the relative margin governs anywhere
    r0 = interval.a if isinstance(criterion, Relative) else None
    if isinstance(criterion, Mixed) and criterion.crossover < interval.b:
        r0 = max(interval.a, criterion.crossover)
    if r0 is not None:
        n_lower = math.log(1.0 / delta) / r0
        if max_n <= n_lower * (1.0 - _LOWER_BOUND_SLACK):
            name = "a" if r0 == interval.a else "crossover"
            raise MaxSampleSizeExceeded(
                max_n,
                f"relative coverage at {name} = {r0!r} needs "
                f"n > ln(1/delta) / {name} = {n_lower:.6g}")

    evaluations = evals = 0
    n = start_n
    while n <= max_n:
        if evals > _PREFIX:
            ranks, built = _fail_run(criterion, interval, delta, n, max_n)
            evaluations += sum(ranks)
            n += len(ranks)
            if ranks and len(ranks) == built:
                evals = ranks[-1]
                continue
        passed, result, evals, scan_b = _decide(criterion, interval, delta, n)
        evaluations += evals
        if passed:
            return SampleSizePlan(
                n_min=n,
                worst_lambda=result.lam,
                worst_coverage=result.coverage,
                evaluations=evaluations,
                truncated_b=scan_b,
            )
        n += 1
    raise MaxSampleSizeExceeded(max_n)
