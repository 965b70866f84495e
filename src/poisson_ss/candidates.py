"""Finite candidate sets that pin down the worst-case coverage.

Coverage, as a function of the rate, is piecewise smooth: the window bounds
g and h are step functions that only jump where n(lam -+ eps) (absolute) or
n lam (1 -+ eps) (relative) crosses an integer.  Between consecutive jumps
the window is constant and coverage is a smooth function whose minimum over
a closed stretch sits at one of its ends.  The minimum over the whole
interval is therefore attained on the finite set assembled here: the two
endpoints, every in-range breakpoint of the governing families, and, for
the mixed criterion, the crossover rate.

For the mixed criterion the absolute window governs on [a, crossover] and
the relative window on [crossover, b], so the absolute breakpoint families
are enumerated on the left piece and the relative families on the right
piece.  A crossover at or outside the interval reduces the criterion to a
pure one and the reduced families are used over all of [a, b].

The set is streamed in ascending rate order, not built as a list: each
breakpoint family is a progression ell / div + shift over an integer range
of ell, generated lazily, and a k-way merge of the families with the
endpoints and the crossover yields the points one at a time.  A scan that
stops at an early witness builds only the points it has evaluated.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator
from itertools import chain
from operator import itemgetter

from .types import (
    Absolute,
    CandidateKind,
    CandidatePoint,
    ErrorCriterion,
    Mixed,
    NonFiniteBound,
    ParamInterval,
    Relative,
    effective_criterion,
)

# Two candidate values closer than this (relative to the interval scale)
# are treated as one point; the merged point keeps every breakpoint tag so
# both window sides stay exact.
DEDUP_REL_TOL = 1e-12

# Order among equal values, and the kind a merged point keeps: endpoints,
# crossover, then the four families.  CandidateKind declares its members
# in this order.
_KIND_PRIORITY = {kind: rank for rank, kind in enumerate(CandidateKind)}

# A stream entry is (value, kind priority, kind, ell), ell None for the
# endpoints and the crossover.  No two merged sources share a priority, so
# comparisons never reach the unorderable kind.  _END closes the last group.
_Entry = tuple[float, int, CandidateKind, int | None]
_END = ((math.inf, 0, CandidateKind.ENDPOINT_B, None),)

__all__ = ["DEDUP_REL_TOL", "candidate_set", "candidate_stream", "cardinality_bound"]


class _Points(tuple):
    """A plain tuple of points whose ``points`` is the tuple itself: the
    traced benchmark run (``perfbench/layers.py``) still reads
    ``candidate_set(...).points``."""

    __slots__ = ()

    @property
    def points(self) -> tuple[CandidatePoint, ...]:
        return self


def cardinality_bound(criterion: ErrorCriterion, n: int, interval: ParamInterval) -> float:
    """Strict upper bound on the candidate count: 2 n (b - a) plus 4, or
    plus 7 when a crossover point can join the set."""
    extra = 7.0 if isinstance(criterion, Mixed) else 4.0
    return 2.0 * n * interval.width + extra


def _progressions(
    criterion: ErrorCriterion, n: int
) -> tuple[tuple[CandidateKind, float, float], ...]:
    """(kind, div, shift) of the two breakpoint families ell / div + shift
    of a pure criterion.  The relative shift 0.0 leaves ell / div unchanged
    bit for bit."""
    if isinstance(criterion, Absolute):
        return ((CandidateKind.ABS_PLUS, n, criterion.eps),
                (CandidateKind.ABS_MINUS, n, -criterion.eps))
    return ((CandidateKind.REL_UPPER, n * (1.0 + criterion.eps), 0.0),
            (CandidateKind.REL_LOWER, n * (1.0 - criterion.eps), 0.0))


def _family(
    kind: CandidateKind, div: float, shift: float, lo: float, hi: float, tol: float
) -> Iterator[_Entry]:
    """Members of one family strictly within tol of (lo, hi), ascending."""
    rank = _KIND_PRIORITY[kind]
    first = math.floor(div * (lo - shift)) - 1
    last = math.ceil(div * (hi - shift)) + 1
    lo, hi = lo - tol, hi + tol
    for ell in range(first, last + 1):
        v = ell / div + shift
        if lo < v < hi:
            yield v, rank, kind, ell


def _merge_group(group: list[_Entry]) -> list[CandidatePoint]:
    """Colliding entries as one point tagged by all (two for a sliver)."""
    group = sorted(group, key=itemgetter(1, 0))
    grid = tuple((kind, ell) for _, _, kind, ell in group if ell is not None)
    value, _, kind, ell = group[0]
    if kind is CandidateKind.ENDPOINT_A and group[1][2] is CandidateKind.ENDPOINT_B:
        # Sliver interval: keep both endpoints, never merged away.
        return [
            CandidatePoint(value, kind, None, grid),
            CandidatePoint(group[1][0], CandidateKind.ENDPOINT_B, None, grid),
        ]
    return [CandidatePoint(value, kind, ell, grid if ell is None else grid[1:])]


def _points(merged: Iterator[_Entry], tol: float) -> Iterator[CandidatePoint]:
    """Group entries within tol of the group's last member; a lone entry
    becomes its point directly and only collisions are merged."""
    group = [next(merged)]
    for entry in chain(merged, _END):
        if entry[0] - group[-1][0] <= tol:
            group.append(entry)
            continue
        if len(group) == 1:
            value, _, kind, ell = group[0]
            yield CandidatePoint(value, kind, ell)
        else:
            yield from _merge_group(group)
        group = [entry]


def candidate_stream(
    criterion: ErrorCriterion, n: int, interval: ParamInterval
) -> Iterator[CandidatePoint]:
    """The points of `candidate_set`, built one at a time in the same order.

    Bad arguments raise here, before the first point is requested.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n!r}")
    a, b = interval.a, interval.b
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NonFiniteBound(
            f"candidate rates need a finite interval, got [{a!r}, {b!r}]; an "
            "infinite b is only searchable with tail-bound truncation under "
            "a relative or mixed margin")
    tol = DEDUP_REL_TOL * max(1.0, abs(a), abs(b))

    eff = effective_criterion(criterion, interval)
    specials: list[_Entry] = [
        (a, _KIND_PRIORITY[CandidateKind.ENDPOINT_A], CandidateKind.ENDPOINT_A, None),
        (b, _KIND_PRIORITY[CandidateKind.ENDPOINT_B], CandidateKind.ENDPOINT_B, None),
    ]
    if isinstance(eff, Mixed):
        cx = eff.crossover
        specials.append(
            (cx, _KIND_PRIORITY[CandidateKind.CROSSOVER], CandidateKind.CROSSOVER, None))
        pieces = ((Absolute(eff.eps_a), a, cx), (Relative(eff.eps_r), cx, b))
    else:
        pieces = ((eff, a, b),)
    families = [
        _family(kind, div, shift, lo, hi, tol)
        for piece, lo, hi in pieces
        for kind, div, shift in _progressions(piece, n)
    ]
    return _points(heapq.merge(sorted(specials), *families), tol)


def candidate_set(
    criterion: ErrorCriterion, n: int, interval: ParamInterval
) -> tuple[CandidatePoint, ...]:
    """Enumerate the candidate rates for (criterion, n) over the interval.

    The first point always carries value a and the last value b; interior
    points are strictly inside, deduplicated to DEDUP_REL_TOL, and sorted
    ascending.  Breakpoints that collide (with each other, an endpoint, or
    the crossover) are merged into one point holding every tag.
    """
    return _Points(candidate_stream(criterion, n, interval))
