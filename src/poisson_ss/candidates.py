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

The set comes in ascending rate order, never as one list.  Each breakpoint
family is a progression ell / div + shift over an integer range of ell, and
`_layout` checks the arguments and lays out those ranges, the endpoints and
the crossover once; two layouts read them.  `_point_tuples` is lazy: a
k-way merge of one generator per family yields plain tuples one at a time,
so a scan that stops at one of its first candidates builds only those.
`_point_arrays` builds the same points as numpy arrays from slices of the
ell ranges, one chunk of about _CHUNK points at a time, so a scan past its
first few candidates never holds more than a chunk.  `candidate_stream`
makes CandidatePoints from the lazy layout.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator
from itertools import chain, starmap
from operator import itemgetter

import numpy as np

from .coverage import _PIN_SIDE, _UNPINNED
from .types import (
    Absolute,
    CandidateKind,
    CandidatePoint,
    EmptyInterval,
    ErrorCriterion,
    Mixed,
    NonFiniteBound,
    ParamInterval,
    Relative,
    _check_margins,
    _check_sample_size,
    effective_criterion,
)

# Two candidate values closer than this (relative to the interval scale)
# are treated as one point; the merged point keeps every breakpoint tag so
# both window sides stay exact.
DEDUP_REL_TOL = 1e-12

# Order inside a merged group, and the kind a merged point keeps:
# endpoints, crossover, then the four families.  CandidateKind declares its
# members in this order.
_KIND_PRIORITY = {kind: rank for rank, kind in enumerate(CandidateKind)}

# Points per chunk of `_point_arrays`, about; a chunk holds at most this
# many family members plus a few at its edges.
_CHUNK = 8192

# Every source, group and point is (value, kind, ell, extra_tags), the field
# order of CandidatePoint; ell is None for the endpoints and the crossover.
# Merges key on the value alone.  _END closes the last group.
_Point = tuple[float, CandidateKind, int | None, tuple]
_END = ((math.inf, CandidateKind.ENDPOINT_B, None, ()),)

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
    _check_sample_size(n)
    _check_order(interval)
    extra = 7.0 if isinstance(criterion, Mixed) else 4.0
    return 2.0 * n * interval.width + extra


def _check_order(interval: ParamInterval) -> None:
    if interval.a > interval.b:
        raise EmptyInterval(
            f"rate interval must satisfy a <= b, got [{interval.a!r}, {interval.b!r}]")


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
) -> Iterator[_Point]:
    """Members of one family strictly within tol of (lo, hi), ascending."""
    first = math.floor(div * (lo - shift)) - 1
    last = math.ceil(div * (hi - shift)) + 1
    lo, hi = lo - tol, hi + tol
    for ell in range(first, last + 1):
        v = ell / div + shift
        if lo < v < hi:
            yield v, kind, ell, ()


def _merge_group(group: list[_Point]) -> list[_Point]:
    """Colliding points as one point tagged by all (two for a sliver)."""
    group = sorted(group, key=lambda p: (_KIND_PRIORITY[p[1]], p[0]))
    grid = tuple((kind, ell) for _, kind, ell, _ in group if ell is not None)
    value, kind, ell, _ = group[0]
    if kind is CandidateKind.ENDPOINT_A and group[1][1] is CandidateKind.ENDPOINT_B:
        # Sliver interval: keep both endpoints, never merged away.
        return [(value, kind, None, grid),
                (group[1][0], CandidateKind.ENDPOINT_B, None, grid)]
    return [(value, kind, ell, grid if ell is None else grid[1:])]


def _points(merged: Iterator[_Point], tol: float) -> Iterator[_Point]:
    """Group points within tol of the group's last member; a lone point
    passes through as is and only collisions are merged."""
    group = [next(merged)]
    for point in chain(merged, _END):
        if point[0] - group[-1][0] <= tol:
            group.append(point)
            continue
        if len(group) == 1:
            yield group[0]
        else:
            yield from _merge_group(group)
        group = [point]


_Grid = tuple[CandidateKind, float, float, float, float]
_Layout = tuple[float, list[_Point], list[_Grid]]


def _layout(criterion: ErrorCriterion, n: int, interval: ParamInterval) -> _Layout:
    """Check the arguments and lay out the candidate set as (tol, specials,
    grids): the merge tolerance, the endpoints and the crossover as points,
    and each breakpoint family as (kind, div, shift, lo, hi), its members
    ell / div + shift strictly within tol of (lo, hi).  Both layouts,
    `_point_tuples` and `_point_arrays`, read it."""
    _check_margins(criterion)
    _check_sample_size(n)
    if n % 1:
        raise ValueError(f"sample size must be an integer, got {n!r}")
    a, b = interval.a, interval.b
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NonFiniteBound(
            f"candidate rates need a finite interval, got [{a!r}, {b!r}]; an "
            "infinite b is only searchable with tail-bound truncation under "
            "a relative or mixed margin")
    _check_order(interval)
    tol = DEDUP_REL_TOL * max(1.0, abs(a), abs(b))

    eff = effective_criterion(criterion, interval)
    # As floats, so a point's value has one type in both layouts.
    specials: list[_Point] = [(float(a), CandidateKind.ENDPOINT_A, None, ()),
                              (float(b), CandidateKind.ENDPOINT_B, None, ())]
    if isinstance(eff, Mixed):
        cx = eff.crossover
        specials.insert(1, (cx, CandidateKind.CROSSOVER, None, ()))  # a < cx < b
        pieces = ((Absolute(eff.eps_a), a, cx), (Relative(eff.eps_r), cx, b))
    else:
        pieces = ((eff, a, b),)
    grids = [(kind, div, shift, lo, hi)
             for piece, lo, hi in pieces
             for kind, div, shift in _progressions(piece, n)]
    if not all(math.isfinite(div * (hi - shift)) for _, div, shift, _, hi in grids):
        raise ValueError(
            f"candidate rates up to {b!r} are too large for n = {n!r}: "
            "their breakpoint indices are not finite")
    # A family's breakpoints are 1/div apart; a merge tolerance within 8x of
    # that would merge distinct ones.  The indices div * value then exceed
    # 1e11, where the 1e-12 window snap spans an eighth of a step: floats
    # cannot resolve the grid at this scale.
    if any(8.0 * tol * div >= 1.0 for _, div, _, _, _ in grids):
        raise ValueError(
            f"the interval [{a!r}, {b!r}] is too wide for n = {n!r}: floats "
            "cannot tell its breakpoints apart")
    return tol, specials, grids


def _point_tuples(layout: _Layout) -> Iterator[_Point]:
    """The points of `candidate_stream` as (value, kind, ell, extra_tags)
    tuples, built lazily one at a time."""
    tol, specials, grids = layout
    families = [_family(*grid, tol) for grid in grids]
    return _points(heapq.merge(specials, *families, key=itemgetter(0)), tol)


def _point_arrays(layout: _Layout) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The points of `_point_tuples` in the same order, a chunk at a time,
    as arrays (value, g_ell, h_ell): g_ell and h_ell hold the ell of the tag
    that pins each window side in `_window`'s tag loop, or `_UNPINNED`.

    A chunk builds each family over the range of ell whose members lie
    within a rate span of _CHUNK / (sum of the divs) past the chunk's
    start, so about _CHUNK points, and merges them with a stable sort, which
    breaks ties in `heapq.merge`'s order.  Its last group may reach past the
    span, so that group is held back and rebuilt at the start of the next
    chunk.
    """
    tol, specials, grids = layout
    top = specials[-1][0] + tol  # every point lies below b + tol
    base = _CHUNK / sum(div for _, div, _, _, _ in grids)
    cursors = [math.floor(div * (lo - shift)) - 1 for _, div, shift, lo, _ in grids]
    start, width = specials[0][0], base
    while True:
        end = start + width
        final = not end < top
        inside = [p for p in specials if final or p[0] <= end]
        values = [np.array([p[0] for p in inside], dtype=np.float64)]
        ells = [np.zeros(len(inside), dtype=np.int64)]
        priority = [_KIND_PRIORITY[p[1]] for p in inside]
        counts = [1] * len(inside)
        built = []
        for cursor, (kind, div, shift, lo, hi) in zip(cursors, grids):
            last = math.ceil(div * (hi - shift)) + 1
            if not final:
                last = min(last, math.floor(div * (end - shift)) + 1)
            ell = np.arange(cursor, last + 1)
            value = ell / div + shift
            built.append(value)
            # members rise with ell: the ones strictly within tol of
            # (lo, hi), and up to the span's end, are one slice
            first = value.searchsorted(lo - tol, "right")
            stop = value.searchsorted(hi + tol, "left")
            if not final:
                stop = min(stop, value.searchsorted(end, "right"))
            values.append(value[first:stop])
            ells.append(ell[first:stop])
            priority.append(_KIND_PRIORITY[kind])
            counts.append(max(0, stop - first))
        values = np.concatenate(values)
        order = np.argsort(values, kind="stable")
        values = values[order]
        ells = np.concatenate(ells)[order]
        priority = np.repeat(priority, counts)[order]
        heads = np.flatnonzero(np.diff(values, prepend=-math.inf) > tol)
        if final:
            yield _merge_groups(values, priority, ells, heads)
            return
        if heads.size < 2:  # one group fills the span: widen it
            width *= 2.0
            continue
        cut = heads[-1]
        yield _merge_groups(values[:cut], priority[:cut], ells[:cut], heads[:-1])
        start = values[cut]
        cursors = [cursor + int(done.searchsorted(start))
                   for cursor, done in zip(cursors, built)]
        specials = [p for p in specials if p[0] >= start]
        width = base


# `_PIN_SIDE` by priority: -1 for the endpoints and the crossover.
_SIDE = np.array([_PIN_SIDE.get(kind, -1) for kind in CandidateKind])


def _merge_groups(
    values: np.ndarray, priority: np.ndarray, ells: np.ndarray, heads: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_merge_group` over every group of a merged chunk, given the rows
    where groups start.  A group keeps its (priority, value)-first member
    and each window side takes its last pin in that order; a sliver keeps
    both endpoints."""
    side = _SIDE[priority]
    if heads.size == values.size:  # no collisions
        return (values, np.where(side == 0, ells, _UNPINNED),
                np.where(side == 1, ells, _UNPINNED))
    group = np.zeros(values.size, dtype=np.int64)
    group[heads] = 1
    # Within a group the rows are in merge order, so a stable sort on
    # (group, priority) orders each by (priority, value) as `sorted` does.
    order = np.argsort((np.cumsum(group) - 1) * len(_SIDE) + priority, kind="stable")
    values, priority, ells, side = values[order], priority[order], ells[order], side[order]
    rows = np.arange(values.size)
    out = [values[heads]]
    for pinned in (0, 1):
        last = np.maximum.reduceat(np.where(side == pinned, rows, -1), heads)
        out.append(np.where(last >= 0, ells[last], _UNPINNED))
    if (priority[0] == _KIND_PRIORITY[CandidateKind.ENDPOINT_A]
            and priority[1] == _KIND_PRIORITY[CandidateKind.ENDPOINT_B]
            and (heads.size == 1 or heads[1] > 1)):
        # Sliver interval: a and b, the first two members of a's group by
        # priority, both stay, with the group's tags.
        out = [np.insert(column, 1, extra)
               for column, extra in zip(out, (values[1], out[1][0], out[2][0]))]
    return tuple(out)


def candidate_stream(
    criterion: ErrorCriterion, n: int, interval: ParamInterval
) -> Iterator[CandidatePoint]:
    """The points of `candidate_set`, built one at a time in the same order.
    Bad arguments, a > b included, raise before the first point."""
    return starmap(CandidatePoint, _point_tuples(_layout(criterion, n, interval)))


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
