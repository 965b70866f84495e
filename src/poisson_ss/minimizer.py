"""Worst-case coverage over a rate interval.

Evaluating coverage on the candidate set and taking the smallest value
yields the exact minimum over the whole continuum of rates; between
consecutive candidates the coverage never dips below the smaller of the two
adjacent candidate values.

The scan keeps the best point as scalars and builds one `CoverageResult`
on return.  Its first _PREFIX candidates come from the lazy tuple stream
and are evaluated one at a time with the scalar kernel: a failing n is
usually decided there (a Relative search spends ~2.4 evaluations per n),
and building arrays or calling numpy would cost more than those few sums.

Past them the scan takes the array layout one chunk at a time, resolves
the chunk's windows at once with `_windows` and gives every row a coverage
floor, `kernel._floors`: one minus geometric bounds on the two Poisson
tails outside the window.  The floor is within 1e-14 of a true lower bound
on the coverage and the kernel within 1e-12 of the coverage, so a row whose
floor is above some value by more than _MARGIN = 1e-9 has a kernel value
above it.  Only the rows the floor cannot rule out are summed, by
`interval_probs` in blocks of _FIRST_BLOCK rows, doubling up to
_MAX_BLOCK, bit for bit the scalar values.  There are two passes:

* the fail-fast pass, for a scan with a threshold, goes over each chunk
  in rate order and sums the rows whose floor is within the margin of the
  threshold, up to the first value at or below it: the first failing
  candidate in rate order;
* the minimum pass, for a full scan or a threshold scan that found no
  failure, sums each chunk's other rows in ascending order of their floor
  while the floor is within the margin of the least value summed so far.
  A threshold scan rebuilds the chunks before the one it still holds, so
  a failing n never pays for a minimum.

So the scan returns what a point-by-point scan returns: ties go to the
smallest rate, and ``evaluations`` counts the candidates in rate order up
to and including the witness, whether a floor or a sum decided them.  A
fail-fast stop has built the chunk that holds its witness and nothing past
it, and at most one chunk is held at a time.  `_blocks` evaluates the
``coverage`` command's rows, which need every value: it shares the chunk
loop, `_chunk_windows`, and sums every row.

`_first_fails` holds the fail-fast pass for any number of segments of
rows, each gone through in rate order: every round sums the next block of
each segment without a failure yet, all in one `interval_probs` call.  A
chunk of the scan is one segment.  `_fail_ranks` makes one segment of each
whole layout of a run of consecutive n, with no scalar prefix, and so
decides a run of failing n for the fixed costs of one; see `search`.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate, chain, islice

import numpy as np

from .candidates import _layout, _Layout, _point_arrays, _point_tuples
from .coverage import _coverage, _windows
from .kernel import _floors, interval_probs
from .types import CoverageResult, ErrorCriterion, ParamInterval

__all__ = ["min_coverage", "scan_min_coverage"]

_PREFIX = 8
_FIRST_BLOCK = 64
_MAX_BLOCK = 512
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
    decision needs.  Candidates are built as they are scanned, a chunk at
    a time past the first few, so an early stop also stops building them.

    Past the first few, a candidate's coverage is summed only where its
    coverage floor cannot show that it is above the threshold, or above the
    least coverage summed so far (see the module docstring).  The count
    still covers every candidate up to and including the witness, or all of
    them, whether its floor or its sum decided it.
    """
    layout = _layout(criterion, n, interval)
    best_cov = None
    count = 0
    for value, kind, ell, extra_tags in islice(_point_tuples(layout), _PREFIX):
        g, h, cov = _coverage(criterion, n, value, ((kind, ell),) + extra_tags)
        count += 1
        if best_cov is None or cov < best_cov:
            best_lam, best_g, best_h, best_cov = value, g, h, cov
            # Only a new best can first reach the threshold.
            if fail_fast_threshold is not None and cov <= fail_fast_threshold:
                return CoverageResult(lam=value, g=g, h=h, coverage=cov), count
    if count < _PREFIX:
        return CoverageResult(lam=best_lam, g=best_g, h=best_h, coverage=best_cov), count

    sizes = _block_sizes()
    chunks = _floored_chunks(criterion, n, layout)
    least = best_cov  # the least exact coverage summed so far
    if fail_fast_threshold is not None:
        # Every earlier coverage is above the threshold, and so is that of
        # every row left out here, so the first summed row at or below it
        # is a new best and the witness.
        seen, built, last = count, 0, []
        for chunk in chunks:
            lams, gs, hs, _, _, covs = chunk
            hit = _first_fails(chunk, [0, lams.size], fail_fast_threshold, sizes)
            if hit:
                i = hit[0]
                return (CoverageResult(lam=float(lams[i]), g=int(gs[i]), h=int(hs[i]),
                                       coverage=float(covs[i])), seen + i + 1)
            least = min(least, covs.min())
            seen += lams.size
            built, last = built + 1, [chunk]
        # No failure: the minimum pass rebuilds the chunks before the last,
        # which it still holds.
        chunks = chain(islice(_floored_chunks(criterion, n, layout), max(built - 1, 0)), last)

    for lams, gs, hs, mus, floors, covs in chunks:
        # A row left out here has a coverage above the least one summed, so
        # it can be neither the chunk's minimum nor tie with it.
        rows = np.flatnonzero(covs == np.inf)
        rows = rows[floors[rows].argsort()]
        start = 0
        while start < rows.size and floors[rows[start]] <= least + _MARGIN:
            block = rows[start:start + next(sizes)]
            block = block[floors[block] <= least + _MARGIN]
            start += block.size
            covs[block] = interval_probs(gs[block], hs[block], mus[block])
            least = min(least, covs[block].min())
        count += lams.size
        i = int(covs.argmin())
        if covs[i] < best_cov:
            best_lam, best_g, best_h = float(lams[i]), int(gs[i]), int(hs[i])
            best_cov = float(covs[i])
    return CoverageResult(lam=best_lam, g=best_g, h=best_h, coverage=best_cov), count


def _floored_chunks(
    criterion: ErrorCriterion, n: int, layout: _Layout
) -> Iterator[tuple[np.ndarray, ...]]:
    """(lams, g, h, mus, floors, covs) arrays over the candidates of
    ``layout`` past the scalar prefix, a chunk at a time in rate order:
    means, coverage floors, and coverages that are inf until summed."""
    for lams, gs, hs in _chunk_windows(criterion, n, _point_arrays(layout), _PREFIX):
        yield _floored(lams, gs, hs, n * lams)


def _fail_ranks(
    criterion: ErrorCriterion, layouts: list[tuple[int, _Layout]], threshold: float
) -> list[int]:
    """The count a fail-fast `scan_min_coverage` of each (n, layout) would
    return, the rank in rate order of its first coverage at or below
    ``threshold``, for the leading layouts that have such a coverage.

    The whole array layout of every n goes into one floored chunk, one
    segment per n, with no scalar prefix: the floors rule out the low rates."""
    if not layouts:
        return []
    parts = [[(lams, gs, hs, n * lams)
              for lams, gs, hs in _chunk_windows(criterion, n, _point_arrays(layout))]
             for n, layout in layouts]
    bounds = list(accumulate((sum(lams.size for lams, *_ in part) for part in parts),
                             initial=0))
    chunk = _floored(*map(np.concatenate, zip(*chain.from_iterable(parts))))
    del parts  # the per-n arrays, before the sums' temporaries
    hits = _first_fails(chunk, bounds, threshold, _block_sizes())
    return [hit - start + 1 for hit, start in zip(hits, bounds)]


def _floored(
    lams: np.ndarray, gs: np.ndarray, hs: np.ndarray, mus: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The rows as a chunk of `_floored_chunks`."""
    return lams, gs, hs, mus, _floors(gs, hs, mus), np.full(lams.size, np.inf)


def _first_fails(
    chunk: tuple[np.ndarray, ...], bounds: list[int], threshold: float, sizes: Iterator[int]
) -> list[int]:
    """Rows of the first coverage at or below ``threshold``, in rate order,
    of the leading segments of a floored ``chunk`` that have one; segment k
    is rows bounds[k] to bounds[k + 1].

    Only rows whose floor is within _MARGIN of the threshold are summed,
    into the chunk's coverages.  Each round sums the next ``next(sizes)``
    of them in every segment without a failure yet, in one `interval_probs`
    call.  The rounds stop once the first segment without a failure has no
    rows left, since the segments past it no longer count."""
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
        take = np.where(hits < 0, np.minimum(end - pos, next(sizes)), 0)
        # segment k's next take[k] rows, segment after segment
        block = rows[np.repeat(pos - take.cumsum() + take, take) + np.arange(take.sum())]
        covs[block] = interval_probs(gs[block], hs[block], mus[block])
        fails = np.flatnonzero(covs[block] <= threshold)
        segment = np.repeat(np.arange(take.size), take)[fails]
        first = np.flatnonzero(np.diff(segment, prepend=-1))
        hits[segment[first]] = block[fails[first]]
        pos += take


def _chunk_windows(
    criterion: ErrorCriterion, n: int, chunks: Iterator[tuple[np.ndarray, ...]], skip: int = 0
) -> Iterator[tuple[np.ndarray, ...]]:
    """(lams, g, h) arrays over the candidates of `_point_arrays`' ``chunks``
    past the first ``skip``, a nonempty chunk at a time in rate order."""
    for chunk in chunks:
        lams, g_ell, h_ell = (column[skip:] for column in chunk)
        skip = max(0, skip - chunk[0].size)
        if lams.size:
            yield (lams, *_windows(criterion, n, lams, g_ell, h_ell))


def _block_sizes() -> Iterator[int]:
    """Rows per `interval_probs` call: _FIRST_BLOCK, doubling up to _MAX_BLOCK."""
    size = _FIRST_BLOCK
    while True:
        yield size
        size = min(2 * size, _MAX_BLOCK)


def _blocks(
    criterion: ErrorCriterion, n: int, chunks: Iterator[tuple[np.ndarray, ...]]
) -> Iterator[tuple[np.ndarray, ...]]:
    """(lams, g, h, coverage) arrays over every candidate of `_point_arrays`'
    ``chunks``, a block at a time in rate order; a chunk is built only when
    its first block is asked for."""
    sizes = _block_sizes()
    for lams, gs, hs in _chunk_windows(criterion, n, chunks):
        start = 0
        while start < lams.size:
            block = slice(start, start + next(sizes))
            start = block.stop
            yield (lams[block], gs[block], hs[block],
                   interval_probs(gs[block], hs[block], n * lams[block]))


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
