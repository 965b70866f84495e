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
One array builder, `_point_rows`, builds the same points as numpy arrays
from slices of the ell ranges in open spans of rates, for one layout or
several at once.  Its two uses: `_point_arrays` builds one layout a span of
about _CHUNK points at a time, so a scan past its first few candidates
never holds more than a chunk, and a batched run of consecutive n (see
`search`) takes every n's whole layout in one call, one piece per n.
`candidate_stream` makes CandidatePoints from the lazy layout.
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
    plus 7 when a crossover point can join the set.  Refuses what
    `candidate_set` refuses before it lays out a point (`_check_scan`)."""
    _check_scan(criterion, n, interval)
    extra = 7.0 if isinstance(criterion, Mixed) else 4.0
    return 2.0 * n * interval.width + extra


def _check_scan(criterion: ErrorCriterion, n: int, interval: ParamInterval) -> None:
    """The one rule for a fixed-n (criterion, n, [a, b]): margins inside
    (0, 1), 1 <= n <= the largest float, n an integer, a and b finite and
    a <= b; a == b is a one-rate interval.  Raises on the first broken part."""
    _check_margins(criterion)
    _check_sample_size(n)
    if n % 1:
        raise ValueError(f"sample size must be an integer, got {n!r}")
    a, b = interval.a, interval.b
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NonFiniteBound(
            f"a fixed-n scan needs a finite interval, got [{a!r}, {b!r}]; an "
            "infinite b is only searchable with tail-bound truncation under "
            "a relative or mixed margin")
    if a > b:
        raise EmptyInterval(f"rate interval must satisfy a <= b, got [{a!r}, {b!r}]")


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
    _check_scan(criterion, n, interval)
    a, b = interval.a, interval.b
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
    as the arrays (value, g_ell, h_ell) of `_point_rows`.

    A chunk is the points in one of the equal spans [start, end) of rates
    from a, _CHUNK / (sum of the divs) wide, so about _CHUNK points (the
    first starts at -inf, the last ends at inf), sliced by value from a
    build of the span padded by 8 tol.  A point takes the value of a member
    of its group, and a group spans at most 6 tol (`_merge_groups`): each
    group with its point in the span is built whole, and one cut at the
    padded edge lies over 2 tol outside the span, its point sliced away.
    """
    tol, specials, grids = layout
    a, b = specials[0][0], specials[-1][0]
    width = _CHUNK / sum(div for _, div, _, _, _ in grids)
    spans = max(1, math.ceil((b - a) / width))
    for k in range(spans):
        start = a + k * width if k else -math.inf
        end = a + (k + 1) * width if k + 1 < spans else math.inf
        values, g_ell, h_ell, _ = _point_rows([(layout, start - 8.0 * tol, end + 8.0 * tol)])
        i, j = values.searchsorted([start, end])
        if i < j:
            yield values[i:j], g_ell[i:j], h_ell[i:j]


# A piece of `_point_rows`: a layout and the open span of rates (start, end)
# it takes points from; -inf and inf take the whole layout.
_Piece = tuple[_Layout, float, float]


def _point_rows(
    pieces: list[_Piece],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The points of several pieces as arrays (value, g_ell, h_ell), piece
    after piece, each piece's in the order of `_point_tuples`: g_ell and
    h_ell hold the ell of the tag that pins each window side in `_window`'s
    tag loop, or `_UNPINNED`.  Also each piece's number of points.

    A piece takes its layout's endpoints, crossover and family members in
    (start, end), and merges them among themselves.  The members of every
    family of every piece come from one ragged range of ell, and all rows
    go through one stable sort on (piece, value), which breaks ties in
    `heapq.merge`'s order, and one grouping, whose groups never cross from
    one piece to the next.
    """
    spans, tols = [], []  # (first ell, count, div, shift, low, high, priority, piece)
    for s, ((tol, points, grids), start, end) in enumerate(pieces):
        tols.append(tol)
        # an endpoint or the crossover is a range of one ell, 0 / -1.0 + value:
        # exactly its value, -0.0 included
        spans += [(0, 1, -1.0, value, -math.inf, math.inf, _KIND_PRIORITY[kind], s)
                  for value, kind, _, _ in points if start < value < end]
        for kind, div, shift, lo, hi in grids:
            first = math.floor(div * (max(lo, start) - shift)) - 1
            last = math.ceil(div * (min(hi, end) - shift)) + 1
            spans.append((first, max(0, last - first + 1), div, shift,
                          max(lo - tol, start), min(hi + tol, end), _KIND_PRIORITY[kind], s))
    first, count, div, shift, low, high, priority, seg = map(np.array, zip(*spans))
    span = np.repeat(np.arange(count.size), count)
    ells = np.arange(span.size) + (first - count.cumsum() + count)[span]
    values = ells / div[span] + shift[span]
    # the members strictly within tol of (lo, hi) and in (start, end)
    keep = (values > low[span]) & (values < high[span])
    values, ells, span = values[keep], ells[keep], span[keep]
    key, tol = values, tols[0]
    if len(pieces) > 1:
        key = np.empty(values.size, dtype=np.complex128)  # sorts on (real, imag)
        key.real, key.imag = seg[span], values
    order = np.argsort(key, kind="stable")
    values, ells, span = values[order], ells[order], span[order]
    priority, seg = priority[span], seg[span]
    gap = np.empty(values.size)
    gap[:1], gap[1:] = math.inf, values[1:] - values[:-1]
    if len(pieces) > 1:
        starts = seg.searchsorted(np.arange(1, len(pieces)))
        gap[starts[starts < gap.size]] = math.inf  # a group never crosses pieces
        tol = np.array(tols)[seg]
    heads = np.flatnonzero(gap > tol)
    values, g_ell, h_ell, seg = _merge_groups(values, priority, ells, seg, heads)
    return values, g_ell, h_ell, np.bincount(seg, minlength=len(pieces))


# `_PIN_SIDE` by priority: -1 for the endpoints and the crossover.
_SIDE = np.array([_PIN_SIDE.get(kind, -1) for kind in CandidateKind])


def _merge_groups(
    values: np.ndarray, priority: np.ndarray, ells: np.ndarray, seg: np.ndarray,
    heads: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """`_merge_group` over every group of merged rows, given the rows where
    groups start, as (value, g_ell, h_ell, seg) per point.  A group keeps
    the value of its member of least priority, and each window side the
    pin of its pinning member of greatest priority; a sliver keeps both
    endpoints.

    The members of a group have distinct kinds: `_layout` keeps a family's
    members more than 8 tol apart, and a group of one member per kind spans
    at most 6 tol.  So the groups of two or more are columns of a table of
    rows by kind."""
    side = _SIDE[priority]
    if heads.size == values.size:  # no collisions
        return (values, np.where(side == 0, ells, _UNPINNED),
                np.where(side == 1, ells, _UNPINNED), seg)
    side, pins = side[heads], ells[heads]
    out = [values[heads], np.where(side == 0, pins, _UNPINNED),
           np.where(side == 1, pins, _UNPINNED), seg[heads]]
    size = np.empty_like(heads)
    size[:-1], size[-1] = heads[1:] - heads[:-1], values.size - heads[-1]
    groups = np.flatnonzero(size > 1)
    member = np.full((len(_SIDE), groups.size), -1)  # row of each kind, or -1
    rows = np.flatnonzero(np.repeat(size > 1, size))
    member[priority[rows], np.repeat(np.arange(groups.size), size[groups])] = rows
    out[0][groups] = values[member[(member >= 0).argmax(axis=0), np.arange(groups.size)]]
    for pinned in (0, 1):
        low, high = member[_SIDE == pinned]  # the two families that pin this side
        pin = np.where(high >= 0, high, low)
        out[1 + pinned][groups] = np.where(pin >= 0, ells[pin], _UNPINNED)
    # Sliver interval: a and b in one group both stay, with the group's tags.
    a, b = member[:2]  # the endpoints come first by priority
    sliver = np.flatnonzero((a >= 0) & (b >= 0))
    if sliver.size:
        at = groups[sliver]
        extras = (values[b[sliver]], *(column[at] for column in out[1:]))
        out = [np.insert(column, at + 1, extra) for column, extra in zip(out, extras)]
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
