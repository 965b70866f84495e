"""Worst-case coverage over a rate interval.

Evaluating coverage on the candidate set and taking the smallest value
yields the exact minimum over the whole continuum of rates; between
consecutive candidates the coverage never dips below the smaller of the two
adjacent candidate values.

A scan with a threshold first probes its first _PREFIX candidates from
the lazy tuple stream, one at a time with the scalar kernel, and returns
the first one at or below the threshold: a failing n is usually decided
there (a Relative search spends ~2.4 evaluations per n), and building
arrays or calling numpy would cost more than those few sums.  The probe
only looks for a failure; a full scan skips it.

Past the probe the scan takes the array layout from its first row, one
chunk at a time, resolves a chunk's windows at once with `_windows` and
gives every row a coverage floor, `kernel._floors`: one minus geometric
bounds on the two Poisson tails outside the window.  The floor is within
1e-14 of a true lower bound on the coverage and the kernel within 1e-12
of the coverage, so a row whose floor is above some value by more than
_MARGIN = 1e-9 has a kernel value above it.  Only the rows the floor
cannot rule out are summed, by `interval_probs` in blocks of _BLOCK rows,
bit for bit the scalar values; so a probed row read again has the value
the probe saw, above the threshold.  There are two passes:

* the fail-fast pass, `_fail_ranks`, is shared by a scan with a threshold
  and a batched run of consecutive n (see `search`).  It goes over the
  rows of each n in rate order and sums those whose floor is within the
  margin of the threshold, up to the first value at or below it: the
  first failing candidate in rate order.  Several n that fit a chunk
  together share one floored chunk, one segment of rows per n: one
  `_point_rows` call builds every n's rows, one `_windows` call resolves
  their windows with each row's own n, and one `_floors` call floors them.
  `_first_fails` then sums the next block of every segment without a
  failure yet in one `interval_probs` call; so a run decides its n for the
  fixed costs of one.  A lone n goes a chunk at a time, its rank carried
  across chunks, so a stop builds the chunk that holds its witness and
  nothing past it.
* the minimum pass, for a full scan or a threshold scan that found no
  failure, builds the chunks afresh and sums each chunk's rows in
  ascending order of their floor while the floor is within the margin of
  the least value summed so far, which starts at infinity: the first
  chunk's lowest floors set it.  A failing n never pays for it.

So the scan returns what a point-by-point scan returns: ties go to the
smallest rate, and ``evaluations`` counts the candidates in rate order up
to and including the witness, whether a floor or a sum decided them.  A
scan holds at most one chunk at a time.  `_blocks` evaluates the
``coverage`` command's rows, which need every value: it shares the chunk
loop, `_chunk_windows`, and sums each whole chunk in one `interval_probs`
call, wide enough for the kernel's step-by-step sweep, where the scan's
pruned blocks of _BLOCK rows take its batched one.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import accumulate, islice

import numpy as np

from .candidates import _layout, _Layout, _point_arrays, _point_rows, _point_tuples
from .coverage import _coverage, _windows
from .kernel import _floors, interval_probs
from .types import CoverageResult, ErrorCriterion, ParamInterval

__all__ = ["min_coverage", "scan_min_coverage"]

_PREFIX = 8
_BLOCK = 64
# A row whose coverage floor is above a threshold by more than this has a
# coverage above it: the floor is within 1e-14 of a true lower bound and
# the kernel within 1e-12 of the exact mass.
_MARGIN = 1e-9


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
    decision needs.  Such a scan first probes the first _PREFIX candidates
    one at a time, then runs the fail-fast pass, `_fail_ranks`, over its
    whole layout.  A full scan, or a threshold scan without a failure, then
    runs the minimum pass.  Both passes build candidates a chunk at a time,
    so an early stop also stops building them.

    In the array path a candidate's coverage is summed only where its
    coverage floor cannot show that it is above the threshold, or above the
    least coverage summed so far (see the module docstring).  The count
    still covers every candidate up to and including the witness, or all of
    them, whether its floor or its sum decided it.
    """
    layout = _layout(criterion, n, interval)
    if fail_fast_threshold is not None:
        probe = islice(_point_tuples(layout), _PREFIX)
        for count, (value, kind, ell, extra_tags) in enumerate(probe, 1):
            g, h, cov = _coverage(criterion, n, value, ((kind, ell),) + extra_tags)
            if cov <= fail_fast_threshold:
                return CoverageResult(lam=value, g=g, h=h, coverage=cov), count
        # The probed rows are above the threshold, so the array pass finds
        # no failure among them.
        hits = _fail_ranks(criterion, [(n, layout)], fail_fast_threshold)
        if hits:
            return hits[0]

    best, count, least = None, 0, np.inf  # least: the least coverage summed so far
    for lams, gs, hs in _chunk_windows(criterion, n, _point_arrays(layout)):
        _, _, _, mus, floors, covs = _floored(lams, gs, hs, n * lams)
        # A row left out here has a coverage above the least one summed, so
        # it can be neither the chunk's minimum nor tie with it.
        rows = floors.argsort()
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


def _fail_ranks(
    criterion: ErrorCriterion, layouts: list[tuple[int, _Layout]], threshold: float
) -> list[tuple[CoverageResult, int]]:
    """The (witness, count) that a fail-fast `scan_min_coverage` of each
    (n, layout) would return, its first coverage at or below ``threshold``
    in rate order and that row's rank, for the leading layouts that have
    such a coverage.

    There is no scalar probe: the floors rule out the low rates.  Several
    layouts go into one floored chunk, one segment of rows per n, built by
    one `_point_rows` call over their whole layouts and given windows and
    means with one n per row.  A lone layout goes one `_point_arrays` chunk
    at a time, its rank carried across chunks, so a stop builds nothing
    past its witness's chunk."""
    if len(layouts) > 1:
        lams, g_ell, h_ell, sizes, _ = _point_rows(
            [(layout, -math.inf, math.inf) for _, layout in layouts])
        ns = np.repeat([n for n, _ in layouts], sizes)
        passes = [(lams, *_windows(criterion, ns, lams, g_ell, h_ell), ns * lams, sizes.tolist())]
    else:
        passes = ((lams, gs, hs, n * lams, [lams.size])
                  for n, layout in layouts
                  for lams, gs, hs in _chunk_windows(criterion, n, _point_arrays(layout)))
    seen = 0
    for *rows, sizes in passes:
        chunk = _floored(*rows)
        bounds = list(accumulate(sizes, initial=0))
        lams, gs, hs, _, _, covs = chunk
        hits = [(CoverageResult(lam=float(lams[i]), g=int(gs[i]), h=int(hs[i]),
                                coverage=float(covs[i])), seen + i - start + 1)
                for i, start in zip(_first_fails(chunk, bounds, threshold), bounds)]
        if hits:
            return hits
        seen += lams.size
    return []


def _floored(
    lams: np.ndarray, gs: np.ndarray, hs: np.ndarray, mus: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The rows as a floored chunk (lams, g, h, mus, floors, covs): their
    coverage floors, and coverages that are inf until summed."""
    return lams, gs, hs, mus, _floors(gs, hs, mus), np.full(lams.size, np.inf)


def _first_fails(chunk: tuple[np.ndarray, ...], bounds: list[int], threshold: float) -> list[int]:
    """Rows of the first coverage at or below ``threshold``, in rate order,
    of the leading segments of a floored ``chunk`` that have one; segment k
    is rows bounds[k] to bounds[k + 1].

    Only rows whose floor is within _MARGIN of the threshold are summed,
    into the chunk's coverages.  Each round sums the next _BLOCK of them
    in every segment without a failure yet, in one `interval_probs` call.
    The rounds stop once the first segment without a failure has no rows
    left, since the segments past it no longer count."""
    _, gs, hs, mus, floors, covs = chunk
    rows = np.flatnonzero(floors <= threshold + _MARGIN)
    pos, end = rows.searchsorted(bounds[:-1]), rows.searchsorted(bounds[1:])
    hits = np.full(pos.size, -1)
    lead = 0
    while True:
        while lead < hits.size and hits[lead] >= 0:
            lead += 1
        if lead == hits.size or pos[lead] == end[lead]:
            return hits[:lead].tolist()
        take = np.where(hits < 0, np.minimum(end - pos, _BLOCK), 0)
        # segment k's next take[k] rows, segment after segment
        block = rows[np.repeat(pos - take.cumsum() + take, take) + np.arange(take.sum())]
        covs[block] = interval_probs(gs[block], hs[block], mus[block])
        fails = np.flatnonzero(covs[block] <= threshold)
        segment = np.repeat(np.arange(take.size), take)[fails]
        first = np.flatnonzero(np.diff(segment, prepend=-1))
        hits[segment[first]] = block[fails[first]]
        pos += take


def _chunk_windows(
    criterion: ErrorCriterion, n: int, chunks: Iterator[tuple[np.ndarray, ...]]
) -> Iterator[tuple[np.ndarray, ...]]:
    """(lams, g, h) arrays over the candidates of `_point_arrays`' ``chunks``,
    a chunk at a time in rate order."""
    for lams, g_ell, h_ell in chunks:
        yield (lams, *_windows(criterion, n, lams, g_ell, h_ell))


def _blocks(
    criterion: ErrorCriterion, n: int, chunks: Iterator[tuple[np.ndarray, ...]]
) -> Iterator[tuple[np.ndarray, ...]]:
    """(lams, g, h, coverage) arrays over every candidate of `_point_arrays`'
    ``chunks``, a chunk at a time in rate order, each chunk summed in one
    `interval_probs` call; a chunk is built only when it is asked for."""
    for lams, gs, hs in _chunk_windows(criterion, n, chunks):
        yield lams, gs, hs, interval_probs(gs, hs, n * lams)


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
