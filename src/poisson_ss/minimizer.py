"""Worst-case coverage over a rate interval.

Evaluating coverage on the candidate set and taking the smallest value
yields the exact minimum over the whole continuum of rates; between
consecutive candidates the coverage never dips below the smaller of the two
adjacent candidate values.

A scan with a threshold first probes its first _PREFIX candidates, one
at a time with the scalar kernel, and returns the first one at or below
the threshold: a failing n is usually decided there (a Relative search
spends ~2.4 evaluations per n, most of its n failing at a), and building
arrays or calling numpy would cost more than those few sums.  The probe,
`_probe`, builds its points as tuples with `candidates._span_points` over
the spans `candidates._spans` cuts at a + tol and then every _PREFIX
points.  The first, the rates below a + tol, holds a's group alone, as
every other group lies over tol above a; the probe sums a's point and
builds the next spans only when a passes: building them costs more than
the sum at a.  The probe only looks for a failure; a full scan skips it.
`scan_min_coverage` checks its arguments (`_check_scan`) and lays the n
out; a search, which checks its query once, hands `_verdict` each n's
layout itself.  `_fails_at_a` reads the probe's first verdict, a's, for
a block of consecutive n at once and counts the leading n that fail
there: one `_windows` and one `interval_probs` call over one row per n.

Past the probe the scan takes the array layout from its first row, one
chunk at a time, resolves a chunk's windows at once with `_windows` and
gives every row a coverage floor, `kernel._floors`: one minus geometric
bounds on the two Poisson tails outside the window.  The floor is within
1e-10 of a true lower bound on the coverage and the kernel within 1e-12
of the coverage, so a row whose floor is above some value by more than
_MARGIN = 1e-9 has a kernel value above it.  The rows the floor cannot
rule out are the rows in doubt.  Where a fail-fast call has at least
_BRACKET_ROWS of them, `kernel._brackets` refines them first: a sharper
floor, from continued fractions for the tails, written over the cheap
one, and a ceiling, within 1e-10 of a true upper bound, so a row whose
ceiling is below some value by more than _MARGIN has a kernel value
below it.  Below that gate the refinement costs more than the sums it
saves (see _BRACKET_ROWS).  Only rows still in doubt are summed, by
`interval_probs` in blocks of _BLOCK rows, bit for bit the scalar
values; so a probed row read again has the value the probe saw, above
the threshold.

One pass, `_decide`, settles an n, for a scan with a threshold and for a
batched run of consecutive n (see `search`).  It builds each n's rows a
span of rates at a time (`candidates._spans`): the first from -inf to the
n's own end, then spans of about a chunk, the last up to inf.  A scan's
end is inf, so its spans are the chunks of `_point_arrays`; a run's ends
are the search's guess of where each n fails.  The spans split the rates
into disjoint pieces in order, so an n's rows come in rate order however
the spans fall, and so do its rank and its minimum.

The pass goes in rounds.  A round takes the next span of every n still
open, in n order up to the first n known to pass, as many as fit a chunk:
one `_point_rows` call builds their rows, one segment per n, one
`_windows` call resolves their windows with each row's own n, and one
`_floors` call floors them.  `_first_fails` then sums the rows whose
floor is within the margin of the threshold, the next block of every
segment without a failure yet in one `interval_probs` call, up to each
segment's first value at or below it.  With the brackets, a segment's
rows end at its first row whose ceiling is below the threshold by the
margin: that row fails for certain, so no row after it can be its n's
first failure and none is summed, while the row itself is, so every
witness is a summed value.  An n fails at the first such value of its
spans in rate order, its rank carried across them; an n whose last span
has none passes; any other n goes on from the end of its span in the
next round.  So the first round of a run decides every n whose witness
lies in its first span for the fixed costs of one, and an n that stops
builds nothing past the span that holds its witness.

`_decide` returns one verdict per n, in order: the (witness, count) of
each leading n that fails, then the (minimum, count) of the first n that
does not, if any.  That n passes, and `_minimum` gives its minimum: it
sums the rows not summed yet in ascending order of their floor while the
floor is within the margin of the least value summed so far.  A chunk's
first _BLOCK such rows in doubt are summed alone; the rows they leave in
doubt are bracketed, with no gate, and the least value drops to their
least ceiling, if lower: the row that has it is summed, as its floor is
at most its ceiling, and a row whose floor lies above that ceiling by the
margin is above that row's value.  Bracketing before the first block
would refine every row of a full scan's first chunk, all in doubt while
the least value is inf (see `_minimum`).  It reads the rows the
fail-fast pass floored, the n's segments of each round; an n of more
than a chunk of rows builds them again, a chunk at a time, from the
least value the pass summed.  A full scan builds each chunk once.  A row
left out has a coverage above a summed value, so the minimum and its
ties do not change.

So the scan returns what a point-by-point scan returns: ties go to the
smallest rate, and ``evaluations`` counts the candidates in rate order up
to and including the witness, whether a bound or a sum decided them.  No
build holds more than about a chunk of rows.  The ``coverage`` command,
which needs every value, sums whole chunks with no floors instead
(`coverage._blocks`).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from itertools import accumulate

import numpy as np

from .candidates import (
    _CHUNK,
    _bound,
    _check_scan,
    _layout,
    _Layout,
    _pins_at_a,
    _point_arrays,
    _point_rows,
    _span_points,
    _spans,
)
from .coverage import _coverage, _windows
from .kernel import _brackets, _floors, interval_probs
from .types import CoverageResult, ErrorCriterion, ParamInterval

__all__ = ["min_coverage", "scan_min_coverage"]

_PREFIX = 8
_BLOCK = 64
# A row whose coverage floor is above a threshold by more than this has a
# coverage above it, and one whose ceiling is below it by more than this a
# coverage below it: floors and ceilings are within 1e-10 of true bounds
# and the kernel within 1e-12 of the exact mass.
_MARGIN = 1e-9
# Fewest rows in doubt for which `_first_fails` refines them with
# `kernel._brackets` before summing any: where refining first overtook
# summing alone on the `_first_fails` calls of three Absolute and Mixed, three
# Relative and 60 drawn searches (best of 7 timings a call, numpy 2.4, a
# 2-core x86 host).  Refining took 1.07-1.12 of the time at 192-320 rows in
# doubt, 0.82 at 320-384 and 0.27-0.5 past 384.  `_minimum` has no gate.
_BRACKET_ROWS = 320

_Hit = tuple[CoverageResult, int]
_Chunk = tuple[np.ndarray, ...]


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
    decision needs.  Such a scan, `_verdict`, probes its first _PREFIX
    candidates, `_probe`, then settles the rest in one pass, `_decide`,
    which gives the witness or, without one, the minimum.  A full scan
    only takes the minimum, `_minimum`.  Candidates are built a chunk at a
    time, so an early stop also stops building them.

    In the array path a candidate's coverage is summed only where its
    coverage floor cannot show that it is above the threshold, or above the
    least coverage summed so far or a ceiling, and, with a threshold, where
    no earlier candidate's ceiling shows a failure (see the module
    docstring).  The count still covers every candidate up to and
    including the witness, or all of them, whether a bound or its sum
    decided it.
    """
    _check_scan(criterion, n, interval)
    layout = _layout(criterion, n, interval)
    if fail_fast_threshold is None:
        return _minimum(_chunks(criterion, n, layout))
    return _verdict(criterion, n, layout, fail_fast_threshold)


def _verdict(criterion: ErrorCriterion, n: int, layout: _Layout, threshold: float) -> _Hit:
    """What a fail-fast `scan_min_coverage` returns for n, from n's
    layout of checked arguments: `_probe`, else `_decide`."""
    return (_probe(criterion, n, layout, threshold)
            or _decide(criterion, [(n, layout, math.inf)], threshold)[0])


def _fails_at_a(
    criterion: ErrorCriterion, ns: np.ndarray, a: float, bs: np.ndarray, threshold: float
) -> int:
    """The number of leading n of the int64 array ``ns`` whose coverage at
    a is at or below ``threshold``, each n laid out over [a, b] with its b
    in ``bs``.  Each n counted has the verdict (its result at a, 1): the
    one `_verdict` gives it where b lies above a, and the untagged coverage
    at a alone where it does not.  a's windows come from one `_windows`
    call with one n per row and the pins of `_pins_at_a`, their sums from
    one `interval_probs` call.  An n whose layout, window or sum would
    raise makes the call raise."""
    gs, hs = _windows(criterion, ns, np.full(ns.size, a), *_pins_at_a(criterion, ns, a, bs))
    passed = interval_probs(gs, hs, ns * a) > threshold
    return int(passed.argmax()) if passed.any() else ns.size


def _probe(criterion: ErrorCriterion, n: int, layout: _Layout, threshold: float) -> _Hit | None:
    """(witness, rank) of the first of the first _PREFIX candidates with a
    coverage at or below ``threshold``, or None, summed one at a time with
    the scalar kernel, each span built only when its first point is due."""
    tol, specials, _ = layout
    count = 0
    for start, end in _spans(layout, specials[0][0] + tol, _PREFIX):
        for value, kind, ell, extra_tags in _span_points(layout, start, end):
            count += 1
            g, h, cov = _coverage(criterion, n, value, ((kind, ell),) + extra_tags)
            if cov <= threshold:
                return CoverageResult(lam=value, g=g, h=h, coverage=cov), count
            if count == _PREFIX:
                return None
    return None


def _decide(
    criterion: ErrorCriterion, runs: list[tuple[int, _Layout, float]], threshold: float
) -> list[_Hit]:
    """The verdicts of consecutive (n, layout, end), in order, with no
    scalar probe: the (witness, count) that a fail-fast `scan_min_coverage`
    would return for each leading layout with a coverage at or below
    ``threshold``, then the (minimum, count) of the first layout without
    one, if any.  Each n's rows come a span at a time, the first span
    ending at its ``end`` (see the module docstring)."""
    spans = [_spans(layout, end) for _, layout, end in runs]
    ahead = [next(cuts) for cuts in spans]  # each n's next span, None past its last
    hits: list[_Hit | None] = [None] * len(runs)
    seen, least = [0] * len(runs), [math.inf] * len(runs)
    kept: list[list[_Chunk] | None] = [[] for _ in runs]  # an n's rows, up to a chunk
    verdicts: list[_Hit] = []
    while True:
        for k in range(len(verdicts), len(runs)):
            if hits[k] is not None:
                verdicts.append(hits[k])
            elif ahead[k] is None:  # no failure in any span: the n passes
                n, layout, _ = runs[k]
                chunks = _chunks(criterion, n, layout) if kept[k] is None else kept[k]
                return verdicts + [_minimum(chunks, least[k])]
            else:
                break
        if len(verdicts) == len(runs):
            return verdicts
        # the next span of each n still open, up to the first n that passes,
        # as many as fit a chunk
        ks, rows = [], 0.0
        for k in range(len(verdicts), len(runs)):
            if hits[k] is None:
                if ahead[k] is None:
                    break
                n, (_, specials, _), _ = runs[k]
                start, end = ahead[k]
                # `cardinality_bound` of the span's part of [a, b]
                rows += _bound(criterion, n, max(0.0, min(end, specials[-1][0])
                                                 - max(start, specials[0][0])))
                if ks and rows > _CHUNK:
                    break
                ks.append(k)
        lams, g_ell, h_ell, sizes = _point_rows([(runs[k][1], *ahead[k]) for k in ks])
        chunk = _floored(criterion, np.repeat([runs[k][0] for k in ks], sizes),
                         lams, g_ell, h_ell)
        for k in ks:
            ahead[k] = next(spans[k], None)
        bounds = list(accumulate(sizes.tolist(), initial=0))
        fails = _first_fails(chunk, bounds, threshold, [ahead[k] is None for k in ks])
        # the segments past the first that passes no longer count
        for i, k in enumerate(ks[:len(fails) + 1]):
            row = fails[i] if i < len(fails) else -1
            if row >= 0:
                hits[k] = (CoverageResult(lam=float(lams[row]), g=int(chunk[1][row]),
                                          h=int(chunk[2][row]),
                                          coverage=float(chunk[5][row])),
                           seen[k] + row - bounds[i] + 1)
            elif bounds[i] < bounds[i + 1]:
                segment = tuple(column[bounds[i]:bounds[i + 1]] for column in chunk)
                seen[k] += segment[0].size
                least[k] = min(least[k], segment[5].min())
                if kept[k] is not None:
                    kept[k].append(segment)
                    if seen[k] > _CHUNK:
                        kept[k] = None


def _minimum(chunks: Iterable[_Chunk], least: float = math.inf) -> _Hit:
    """(minimum, count) over the floored ``chunks`` of one layout, ties to
    the smaller rate, from ``least``, the least coverage summed so far.  A
    chunk sums its _BLOCK rows in doubt of lowest floor first; the rows
    they leave in doubt are bracketed, and their least ceiling lowers
    ``least``, before any of them is summed."""
    best, count = None, 0
    for lams, gs, hs, mus, floors, covs in chunks:
        least = min(least, covs.min())
        rows = np.flatnonzero(covs == np.inf)  # the rows not summed yet
        rows = rows[floors[rows] <= least + _MARGIN]  # the rows in doubt
        rows = rows[floors[rows].argsort()]
        first, rows = rows[:_BLOCK], rows[_BLOCK:]
        if first.size:
            covs[first] = interval_probs(gs[first], hs[first], mus[first])
            least = min(least, covs[first].min())
        rows = rows[floors[rows] <= least + _MARGIN]
        # Bracketing the rows in doubt before the first block was 1.4-1.8
        # times as slow as summing alone on the first chunks of `certify`'s
        # verify scans, where least starts at inf and so every row is in
        # doubt; those chunks leave none after it.  After it, on full scans
        # at n - 1, n and n + 5 of 120 drawn answers n, bracketing won on
        # all 42 chunks with rows left in doubt, at 0.77-0.80 of the time of
        # summing alone for 8-64 rows and 0.37-0.55 past 64 (best of 7 a
        # chunk, numpy 2.4, a 2-core x86 host).  At drawn n far above the
        # answer, where coverage near 1 keeps floors within the margin of
        # least, it took 0.73-1.10 a row-count bin and 1.01 overall.
        if rows.size:
            floors[rows], ceilings = _brackets(gs[rows], hs[rows], mus[rows])
            least = min(least, ceilings.min())
            rows = rows[floors[rows].argsort()]
        start = 0
        while start < rows.size and floors[rows[start]] <= least + _MARGIN:
            block = rows[start:start + _BLOCK]
            block = block[floors[block] <= least + _MARGIN]
            start += block.size
            covs[block] = interval_probs(gs[block], hs[block], mus[block])
            least = min(least, covs[block].min())
        count += lams.size
        i = int(covs.argmin())
        if best is None or covs[i] < best.coverage:
            best = CoverageResult(lam=float(lams[i]), g=int(gs[i]), h=int(hs[i]),
                                  coverage=float(covs[i]))
    return best, count


def _chunks(criterion: ErrorCriterion, n: int, layout: _Layout) -> Iterator[_Chunk]:
    """The floored chunks of the layout's `_point_arrays`, in rate order."""
    return (_floored(criterion, n, *rows) for rows in _point_arrays(layout))


def _floored(
    criterion: ErrorCriterion, ns: int | np.ndarray, lams: np.ndarray, g_ell: np.ndarray,
    h_ell: np.ndarray,
) -> _Chunk:
    """The rows (value, g_ell, h_ell) as a floored chunk (lams, g, h, mus,
    floors, covs) for ``ns``, one n or one per row; covs are inf until summed."""
    gs, hs = _windows(criterion, ns, lams, g_ell, h_ell)
    mus = ns * lams
    return lams, gs, hs, mus, _floors(gs, hs, mus), np.full(lams.size, np.inf)


def _first_fails(
    chunk: _Chunk, bounds: list[int], threshold: float, closed: list[bool]
) -> list[int]:
    """Rows of the first coverage at or below ``threshold``, in rate order,
    of the segments of a floored ``chunk`` before the first closed one
    without such a coverage, and -1 for an open one without; segment k is
    rows bounds[k] to bounds[k + 1], and closed[k] when no rows of its n
    come after it.

    Only rows whose floor is within _MARGIN of the threshold are summed,
    into the chunk's coverages; at least _BRACKET_ROWS of them are first
    narrowed by `_refined`.  Each round sums the next _BLOCK of them
    in every segment without a failure yet, in one `interval_probs` call.
    The rounds stop once no segment without a failure, up to the first
    closed one, has rows left: that closed segment's n passes, and the
    segments past it no longer count."""
    _, gs, hs, mus, floors, covs = chunk
    rows = np.flatnonzero(floors <= threshold + _MARGIN)
    if rows.size >= _BRACKET_ROWS:
        rows = _refined(chunk, rows, bounds, threshold)
    pos, end = rows.searchsorted(bounds[:-1]), rows.searchsorted(bounds[1:])
    hits = np.full(pos.size, -1)
    closed = np.array(closed, bool)
    while True:
        last = np.flatnonzero((hits < 0) & closed)
        last = last[0] if last.size else hits.size
        if not ((hits < 0) & (pos < end))[:last + 1].any():
            return hits[:last].tolist()
        take = np.where(hits < 0, np.minimum(end - pos, _BLOCK), 0)
        # segment k's next take[k] rows, segment after segment
        block = rows[np.repeat(pos - take.cumsum() + take, take) + np.arange(take.sum())]
        covs[block] = interval_probs(gs[block], hs[block], mus[block])
        fails = np.flatnonzero(covs[block] <= threshold)
        segment = np.repeat(np.arange(take.size), take)[fails]
        first = np.flatnonzero(np.diff(segment, prepend=-1))
        hits[segment[first]] = block[fails[first]]
        pos += take


def _refined(chunk: _Chunk, rows: np.ndarray, bounds: list[int], threshold: float) -> np.ndarray:
    """The ``rows`` in doubt of `_first_fails` that still need a sum once
    `kernel._brackets` refines them: it writes their sharper floors into
    the chunk, drops the rows whose floor now clears the threshold by
    _MARGIN, and ends each segment at its first row whose ceiling is below
    the threshold by _MARGIN, a certain failure."""
    _, gs, hs, mus, floors, _ = chunk
    floors[rows], ceilings = _brackets(gs[rows], hs[rows], mus[rows])
    sure = ceilings <= threshold - _MARGIN
    # how many certain failures come before each row in its segment
    ahead = np.concatenate(([0], np.cumsum(sure)))
    starts = rows.searchsorted(bounds)
    ahead = ahead[:-1] - np.repeat(ahead[starts[:-1]], np.diff(starts))
    return rows[((floors[rows] <= threshold + _MARGIN) | sure) & (ahead == 0)]


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
