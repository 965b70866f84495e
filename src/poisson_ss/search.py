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

Every n gets one verdict, a (result, count) pair: where the tail bound
leaves only a, the coverage at a, with count 1; otherwise what the public
fail-fast scan `scan_min_coverage(criterion, n, [a, scan_b], 1 - delta)`
returns, the witness and rank of the n's first coverage at or below
1 - delta in rate order or, without one, its minimum and number of
candidates.  The search adds each count to ``evaluations`` and returns
the plan at the first verdict above 1 - delta.  Where the n before was
decided within the scan's scalar probe, n gets the public scan's own
decision, `minimizer._verdict`, on n's layout: the coverage at a's own
point first, built alone as the span of rates below a + tol, the spans
of the rest of the probe only if a passes, then the pass over the rest.
Most n of a Relative search fail at a, for one sum, a layout and one
small span, and the search decides most of them at a in blocks (below).
A failing n whose witness lies past the probe costs mostly fixed per-n
overhead (building arrays, `interval_probs` calls), not sums.  So after
such an n the search skips the probe and decides the next n in a batched
run, the scan's own pass `minimizer._decide` over the n `_run` packs:
that n and the consecutive n after it, never above max_n.  Each n m of a
run gets the end of its first span of rates, a guess of where it fails
from the last failing n, n0, whose witness has rate lam* and rank r*:

    end = a + _GROWTH * max((lam* - a) * m / n0, r* / (2 m)),

the witness moved in proportion to n, or its rank at the 2 m candidates
a unit of rate holds, whichever is further.  The run holds at most _RUN
n, whose `cardinality_bound` over [a, min(end, scan_b)] sum to at most
one chunk of the array layout.  The pass builds every n's first span
with one set of array calls, not one per n; an n with no failure there
goes on over the rest of its layout in the pass's next round, a span of
about a chunk at a time.  The run returns the verdict the public scan
would for each leading n that fails, and then for the first n that does
not, whose minimum reads the rows of its spans.  The spans split each
n's candidates in rate order, so where they end changes the work, never
a verdict or a count.  The n of a run past the answer are speculative:
they cost work but never change the answer.

Blocks at a.  The search decides a block of n at a together,
`minimizer._fails_at_a`: each n's scan_b in one numpy expression
(`_scan_bs`, `_threshold`'s operations in its order), the pins of a's
point for every n in closed form (`candidates._pins_at_a`), one
`_windows` call with one n per row and one `interval_probs` call.  The
blocks are sized from a prediction first.  The normal approximation of
the coverage at a, 2 Phi(m sqrt(n / a)) - 1 with m the margin's
half-width at a, first exceeds 1 - delta at n_a = a (z / m)**2,
z = Phi^-1(1 - delta / 2) (`_n_at_a`; 0 where a = 0).  While more than
_STREAK n lie below n_a (1 + _SLACK), the next block runs from n up to
that point, the first one from start_n.  Once a block ends early the
prediction is spent, and after that a block opens only once _STREAK n
in a row have failed at a, with rank 1, and holds twice as many n as
that streak, so while every n of its blocks fails the streak triples
with each block.  Like every build, a block holds at most _CHUNK n, and
no n past max_n.  A block counts the n that fail at a, each with count
1, by the sum its own decision reads, bit for bit: the same window, pins
and sum from the same numbers, and a fail at a has rank 1 whichever
route sums it.  So no verdict and no count depends on the blocks.  A block
ends before the first n whose a passes; that n is decided on its own,
as above.  The n a block holds past that n, past the answer too, cost
work but never count.

Blocks and runs decide several n at once only for speed, so they raise
nothing that deciding each n alone would not: where one raises a
ValueError, the search drops it whole and decides its first n alone.

Where the relative margin governs, the count K = 0 is never inside the
acceptance window.  So the coverage at r0, the least such rate of [a, b]
(a, or for a mixed criterion the crossover where it lies above a), is at
most 1 - exp(-n r0), and every sufficient n exceeds ln(1/delta) / r0; r0
is a candidate, and the crossover's absolute window excludes K = 0 too.
A budget max_n below that bound is reported before any scan.

The query is checked once per search, not at every n.  `validate` checks
the margins, delta and [a, b], start_n and max_n are integers
(`types._check_integer`), and the fixed-n rule of the public calls,
`candidates._check_scan`, runs once, for start_n over [a, scan_b].  No
part of that rule that passes there fails at a later n.  scan_b only
shrinks as n grows, so it stays finite if it is finite at start_n, and
an n is scanned only where scan_b lies above a.  `_layout` refuses every
n above about 1.25e11 as too wide, long before n could pass the largest
float.  Where only a is left, its coverage (`coverage._coverage`) does
not check n either: an n past the largest float there is summed at the
float it rounds to, as its threshold already is.  So each n is laid out
(`_layout`), truncated (`chernoff._threshold`) and summed with no
checks.  What depends on n is still raised at the n it comes from: rates
too large or an interval too wide for n's layout, and a margin too
narrow for the window rule at some rate (`MarginTooNarrow`).
"""

from __future__ import annotations

import math

import numpy as np

from .candidates import _CHUNK, _bound, _check_scan, _layout, _Layout
from .chernoff import TWO_LN2_MINUS_1, _threshold
from .coverage import _coverage
from .minimizer import _PREFIX, _decide, _fails_at_a, _verdict
from .types import (
    ConfidenceSpec,
    CoverageResult,
    ErrorCriterion,
    Mixed,
    ParamInterval,
    Relative,
    SampleSizePlan,
    _check_integer,
    _check_sample_size,
    _margin,
    validate,
)

__all__ = ["MaxSampleSizeExceeded", "min_sample_size"]

# The lower bound on n is only trusted when it clears max_n by more than
# float rounding, so a near tie is left to the scan.
_LOWER_BOUND_SLACK = 1e-9

# How far an n's first span in a batched run reaches past the guess of its
# witness, as a factor from a; see the module docstring.
_GROWTH = 1.25

# A search decides n at a in blocks (see the module docstring): up to its
# predicted n_a while more than _STREAK n lie below it, and later once
# _STREAK n in a row have failed at a, each such block twice as long as
# the streak; like every build, a block holds at most _CHUNK n.  A block
# costs about ten one-n decisions in fixed numpy overhead, so short runs,
# common near the answer, are left to them.  An n fails at a only below
# about 1.25e11, where `_layout` refuses it (at larger n the tail bounds
# leave only a, where a passes), so a block's n are exact as floats.
_STREAK = 16

# How far past the predicted n_a the blocks at a reach, as a share of n_a.
# The prediction is within a few percent where n a is large, and erring
# high costs less than erring low: a block past the first n whose a passes
# only sums rows that never count, while a prediction that falls short
# leaves the streak rule a block of twice the streak, far past that n.
_SLACK = 0.1

# Most n a batched run holds.  The n past the answer in the run that holds
# it cost work for nothing: a layout, a piece of each build and a verdict
# each, however few their rows.
_RUN = 32


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


def _n_at_a(criterion: ErrorCriterion, a: float, delta: float) -> float:
    """The n at which the coverage at a first exceeds 1 - delta, as its
    normal approximation predicts: n_a = a (z / m)**2, with z the
    1 - delta / 2 quantile of the standard normal and m the margin's
    half-width at a.  A float in [0, inf]; 0 where a = 0."""
    if a == 0.0:
        return 0.0
    from statistics import NormalDist  # only searches need it, not the import

    z = -NormalDist().inv_cdf(delta / 2.0)
    m = _margin(criterion, a)
    # the products overflow to inf and an underflowed m gives inf, not an error
    return a * (z / m) * (z / m) if m > 0.0 else math.inf


def _scan_b(criterion: ErrorCriterion, interval: ParamInterval, delta: float, n: int) -> float:
    """Upper end of the rates that decide n: the tail-bound threshold where
    it falls below b.  The search has checked the arguments."""
    eps_r = _relative_eps(criterion)
    if eps_r is not None:
        threshold = _threshold(n, eps_r, delta)
        if threshold < interval.b:
            return threshold
    return interval.b


def _scan_bs(
    criterion: ErrorCriterion, interval: ParamInterval, delta: float, ns: np.ndarray
) -> np.ndarray:
    """`_scan_b` of each n of the int64 array ``ns``, with `_threshold`'s
    operations in its order."""
    eps_r = _relative_eps(criterion)
    if eps_r is None:
        return np.full(ns.size, float(interval.b))
    with np.errstate(divide="ignore"):  # a zero denominator gives inf, as there
        threshold = math.log(2.0 / delta) / (TWO_LN2_MINUS_1 * ns * eps_r * eps_r)
    return np.minimum(threshold, interval.b)


def _run(
    criterion: ErrorCriterion, interval: ParamInterval, delta: float, n: int, max_n: int,
    last: tuple[int, float, int],
) -> list[tuple[int, _Layout, float]]:
    """(m, layout, end) of ``n`` and of the n after it that a batched run
    decides with it, end the end of m's first span, predicted from ``last``,
    the (n, witness rate, rank) of the last failing n; see the module
    docstring."""
    a = interval.a
    n0, lam, rank = last
    runs, rows = [], 0.0
    for m in range(n, max_n + 1):
        scan_b = _scan_b(criterion, interval, delta, m)
        if scan_b <= a:
            break
        end = a + _GROWTH * max((lam - a) * m / n0, rank / (2.0 * m))
        rows += _bound(criterion, m, min(end, scan_b) - a)
        if runs and (rows > _CHUNK or len(runs) == _RUN):
            break
        runs.append((m, _layout(criterion, m, ParamInterval(a, scan_b)), end))
    return runs


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
    ValueError when start_n or max_n is not an integer (a bool is not),
    start_n < 1 or max_n < start_n.  Note the search begins at start_n = 1
    by default; set start_n=2 to reproduce conventions that treat a single
    observation as no estimate at all.
    """
    validate(criterion, interval, conf)
    _check_integer("start_n", start_n)
    _check_integer("max_n", max_n)
    start_n, max_n = int(start_n), int(max_n)
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

    level, a = 1.0 - delta, interval.a
    # The fixed-n rule, once (see the module docstring).
    _check_sample_size(start_n)
    scan_b = _scan_b(criterion, interval, delta, start_n)
    if scan_b > a:
        _check_scan(criterion, start_n, ParamInterval(a, scan_b))
    # where blocks at a stop while the prediction holds (see the module docstring)
    limit = _n_at_a(criterion, a, delta) * (1.0 + _SLACK)
    evaluations = rank = streak = 0
    n = start_n
    while n <= max_n:
        stop = n
        if limit - n > _STREAK:
            stop = math.ceil(min(limit, n + _CHUNK, max_n + 1))
        elif streak >= _STREAK:
            stop = min(n + min(2 * streak, _CHUNK), max_n + 1)
        if stop > n:
            ns = np.arange(n, stop)
            try:
                fails = _fails_at_a(criterion, ns, float(a),
                                    _scan_bs(criterion, interval, delta, ns), level)
            except ValueError:  # dropped whole: n is decided alone and the streak restarts
                fails = streak = 0
            evaluations, streak, n = evaluations + fails, streak + fails, n + fails
            if n == stop:  # every n of the block fails at a
                continue
            limit = 0.0  # the block ended early: the prediction is spent
        scan_b = _scan_b(criterion, interval, delta, n)
        verdicts = []
        if scan_b <= a:
            # The tail bounds certify every rate above a; only a itself is left.
            verdicts = [(CoverageResult(a, *_coverage(criterion, n, a, ())), 1)]
        elif rank > _PREFIX:
            try:
                verdicts = _decide(criterion, _run(criterion, interval, delta, n, max_n, last),
                                   level)
            except ValueError:  # dropped whole: n is decided alone, below
                pass
        if not verdicts:
            verdicts = [_verdict(criterion, n, _layout(criterion, n, ParamInterval(a, scan_b)),
                                 level)]
        for result, rank in verdicts:
            evaluations += rank
            if result.coverage > level:
                return SampleSizePlan(
                    n_min=n,
                    worst_lambda=result.lam,
                    worst_coverage=result.coverage,
                    evaluations=evaluations,
                    # a where the tail bounds leave only a; a float, as b may be an int
                    truncated_b=float(max(a, _scan_b(criterion, interval, delta, n))),
                )
            last = (n, result.lam, rank)
            streak = streak + 1 if rank == 1 else 0
            n += 1
    raise MaxSampleSizeExceeded(max_n)
