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
The rest go through `_blocks`, the one candidate evaluator, which the
``coverage`` command's rows read too: it takes the array layout one chunk
at a time, resolves the chunk's windows at once with `_windows`, and sums
it in blocks of _FIRST_BLOCK candidates, doubling up to _MAX_BLOCK, by one
`interval_probs` call each, bit for bit the scalar values.  So the scan
returns what a point-by-point scan returns: ties go to the first minimum
in a block and to the earlier block across blocks, and ``evaluations``
counts the candidates up to and including the witness.  A fail-fast stop
has built the chunk that holds its witness and nothing past it, so at most
one chunk is held at a time.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice

import numpy as np

from .candidates import _layout, _point_arrays, _point_tuples
from .coverage import _coverage, _windows
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
    decision needs.  Candidates are built as they are scanned, a chunk at
    a time past the first few, so an early stop also stops building them.
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

    for lams, gs, hs, covs in _blocks(criterion, n, _point_arrays(layout), _PREFIX):
        if fail_fast_threshold is not None:
            # Every earlier coverage is above the threshold, so the first
            # one at or below it is a new best and the witness.
            hits = np.flatnonzero(covs <= fail_fast_threshold)
            if hits.size:
                i = int(hits[0])
                return (CoverageResult(lam=float(lams[i]), g=int(gs[i]), h=int(hs[i]),
                                       coverage=float(covs[i])), count + i + 1)
        count += covs.size
        i = int(covs.argmin())
        if covs[i] < best_cov:
            best_lam, best_g, best_h = float(lams[i]), int(gs[i]), int(hs[i])
            best_cov = float(covs[i])
    return CoverageResult(lam=best_lam, g=best_g, h=best_h, coverage=best_cov), count


def _blocks(
    criterion: ErrorCriterion, n: int, chunks: Iterator[tuple[np.ndarray, ...]], skip: int = 0
) -> Iterator[tuple[np.ndarray, ...]]:
    """(lams, g, h, coverage) arrays over the candidates of `_point_arrays`'
    ``chunks`` past the first ``skip``, a block at a time in rate order; a
    chunk is built only when its first block is asked for."""
    size = _FIRST_BLOCK
    for chunk in chunks:
        lams, g_ell, h_ell = (column[skip:] for column in chunk)
        skip = max(0, skip - chunk[0].size)
        gs, hs = _windows(criterion, n, lams, g_ell, h_ell)
        start = 0
        while start < lams.size:
            block = slice(start, start + size)
            yield (lams[block], gs[block], hs[block],
                   interval_probs(gs[block], hs[block], n * lams[block]))
            start += size
            size = min(2 * size, _MAX_BLOCK)


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
