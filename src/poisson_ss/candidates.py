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
family is a progression ell / div + shift over an integer range of ell.
`_check_scan` is the one argument check of a fixed-n call, and `_layout`
lays out those ranges, the endpoints and the crossover once for arguments
so checked (a search checks its query once, not at every n).
Points are built a span of rates [start, end) at a time, by one rule: take
the endpoints, the crossover and the family members in the span padded by
8 tol, group them, merge each group, and slice by value.  `_span_points`
applies it in pure Python to one layout and returns tuples; `_point_rows`
applies it with numpy, to one layout or several at once, and returns
arrays.  `_spans` cuts a layout's rates into spans of about _CHUNK points
or fewer, the first ending where its caller asks; the scan's probe cuts
its spans of about _PREFIX points with it too.  `candidate_stream`
chains `_span_points` over them, building a span only when its first
point is asked for.  `_point_arrays` builds one layout span after span as
arrays, so a scan past its first few candidates never holds more than a
chunk, and a batched run of consecutive n (see `minimizer`) builds a span
of each of its n in one call, one piece per n.  `_pins_at_a` gives the
pins of a's own point, the first one, for many n at once in closed form,
without a layout: the search's blocks at a (see `search`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator
from functools import partial
from itertools import chain, starmap
from operator import itemgetter

import numpy as np

from .coverage import _UNPINNED
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
    _PIN_SIDE,
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

# Every member, group and point is (value, kind, ell, extra_tags), the field
# order of CandidatePoint; ell is None for the endpoints and the crossover.
_Point = tuple[float, CandidateKind, int | None, tuple]

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
    return _bound(criterion, n, interval.width)


def _bound(criterion: ErrorCriterion, n: int, width: float) -> float:
    """`cardinality_bound` over an interval ``width`` wide, unchecked."""
    return 2.0 * n * width + (7.0 if isinstance(criterion, Mixed) else 4.0)


def _check_scan(criterion: ErrorCriterion, n: int, interval: ParamInterval) -> None:
    """The one rule for a fixed-n (criterion, n, [a, b]): the margins and n
    by their rules in `types` (`_check_margins`, `_check_sample_size`),
    then a and b finite and a <= b; a == b is a one-rate interval.  Raises
    on the first broken part."""
    _check_margins(criterion)
    _check_sample_size(n)
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


_Grid = tuple[CandidateKind, float, float, float, float]
_Layout = tuple[float, list[_Point], list[_Grid]]


def _layout(criterion: ErrorCriterion, n: int, interval: ParamInterval) -> _Layout:
    """Lay out the candidate set of arguments that passed `_check_scan` as
    (tol, specials, grids): the merge tolerance, the endpoints and the
    crossover as points, and each breakpoint family as (kind, div, shift,
    lo, hi), its members ell / div + shift strictly within tol of (lo, hi).
    Both builders, `_span_points` and `_point_rows`, read it.  Raises
    where n makes the rates too large or the interval too wide."""
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


def _pins_at_a(
    criterion: ErrorCriterion, ns: np.ndarray, a: float, bs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The pins (g_ell, h_ell) of a's point for each n of the int64 array
    ``ns`` laid out over [a, b], b from ``bs``, as `_point_rows` gives them;
    a b at or below a leaves a alone, with no layout and no pin.

    `_layout`'s rule in closed form, each family over its own range.  Its
    spacing check fails wherever its finiteness check does, b being
    finite, so it alone finds the first n whose `_layout` raises, and that
    n's `_layout` raises its error.  a's group spans at most 6 tol, and a
    family's members lie over 8 tol apart, so only the two members on
    either side of a can join it.  They, b and the crossover are grouped
    as `_span_points` groups them, and a side takes the ell of the member
    of greatest priority that pins it in a's group."""
    tol = DEDUP_REL_TOL * np.maximum(max(1.0, abs(a)), np.abs(bs))
    if isinstance(criterion, Mixed):  # the pieces of `effective_criterion`
        cx = criterion.crossover
        pieces = ((Absolute(criterion.eps_a), a, np.minimum(cx, bs), cx > a),
                  (Relative(criterion.eps_r), max(cx, a), bs, cx < bs))
    else:
        cx, pieces = math.inf, ((criterion, a, bs, True),)
    laid = bs > a
    wide = np.zeros(ns.size, dtype=bool)
    values = [np.full(ns.size, a), bs, np.where((a < cx) & (cx < bs), cx, math.inf)]
    pins = []  # (side, ell) of each member column after those three
    for piece, lo, hi, live in pieces:
        for kind, div, shift in _progressions(piece, ns):
            wide |= laid & live & (8.0 * tol * div >= 1.0)
            below = np.floor(div * (a - shift))
            for ell in (below, below + 1.0):
                value = ell / div + shift
                values.append(np.where(live & (lo - tol < value) & (value < hi + tol),
                                       value, math.inf))
                pins.append((_PIN_SIDE[kind], ell))
    if wide.any():
        i = wide.argmax()
        _layout(criterion, int(ns[i]), ParamInterval(a, float(bs[i])))  # raises
    table = np.stack(values, axis=1)
    order = table.argsort(axis=1)
    ranked = np.take_along_axis(table, order, axis=1)
    group = np.zeros(table.shape, dtype=np.int64)
    with np.errstate(invalid="ignore"):  # inf - inf past the last member
        np.cumsum(np.diff(ranked, axis=1) > tol[:, None], axis=1, out=group[:, 1:])
    joins = group == group[np.arange(ns.size), (order == 0).argmax(axis=1), None]
    np.put_along_axis(joins, order, joins.copy(), axis=1)
    joins &= laid[:, None]
    out = np.full((2, ns.size), _UNPINNED)
    for (side, ell), join in zip(pins, joins.T[3:]):  # in priority order
        out[side] = np.where(join, ell, out[side])
    return out[0], out[1]


def _span_points(layout: _Layout, start: float, end: float) -> list[_Point]:
    """The points of the layout with values in [start, end), in rate order,
    as (value, kind, ell, extra_tags) tuples: one piece of `_point_rows`,
    built by its rule in pure Python.  The members in the span padded by
    8 tol are sorted by value, ties in the order of the specials and then
    the families, and a group is a run of them with no gap above tol; a
    lone member is its own point and a collision is merged."""
    tol, specials, grids = layout
    low, high = start - 8.0 * tol, end + 8.0 * tol
    rows = [point for point in specials if low < point[0] < high]
    for kind, div, shift, lo, hi in grids:
        # the members in (lo, hi): an ell outside floor..ceil of its ends
        # lies a step, over 8 tol, outside it, far past any rounding
        lo, hi = max(lo - tol, low), min(hi + tol, high)
        for ell in range(math.floor(div * (lo - shift)), math.ceil(div * (hi - shift)) + 1):
            v = ell / div + shift
            if lo < v < hi:
                rows.append((v, kind, ell, ()))
    value = itemgetter(0)
    rows.sort(key=value)
    points, group = [], rows[:1]
    for row in rows[1:]:
        if row[0] - group[-1][0] <= tol:
            group.append(row)
            continue
        points += group if len(group) < 2 else _merge_group(group)
        group = [row]
    points += group if len(group) < 2 else _merge_group(group)
    # the points outside [start, end) come from its padding, at either end
    return points[bisect_left(points, start, key=value):bisect_left(points, end, key=value)]


def _spans(
    layout: _Layout, end: float = math.inf, points: int | None = None
) -> Iterator[tuple[float, float]]:
    """Cut the rates into spans [start, end) of about ``points`` points,
    _CHUNK by default, or fewer, in rate order: the first from -inf to
    ``end`` or to a + width, whichever is less, then spans width = points /
    (sum of the divs) wide, the last ending at inf, one at a time."""
    _, specials, grids = layout
    a, b = specials[0][0], specials[-1][0]
    width = (points or _CHUNK) / sum(div for _, div, _, _, _ in grids)
    start, cut = -math.inf, min(end, a + width)
    while cut < b:
        yield start, cut
        start, cut = cut, cut + width
    yield start, math.inf


def _point_arrays(layout: _Layout) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The points of `candidate_stream` in the same order, a chunk at a time,
    as the arrays (value, g_ell, h_ell) of `_point_rows`: one chunk per
    span of `_spans`, empty ones left out."""
    for start, end in _spans(layout):
        values, g_ell, h_ell, _ = _point_rows([(layout, start, end)])
        if values.size:
            yield values, g_ell, h_ell


# A piece of `_point_rows`: a layout and the span of rates [start, end) it
# takes points from; -inf and inf take the whole layout.
_Piece = tuple[_Layout, float, float]


def _point_rows(
    pieces: list[_Piece],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The points of several pieces as arrays (value, g_ell, h_ell), piece
    after piece, each piece's in the order of `_span_points`: g_ell and
    h_ell hold the ell of the tag that pins each window side in `_window`'s
    tag loop, or `_UNPINNED`.  Also each piece's number of points.

    A piece holds the points of its layout with values in [start, end),
    as the whole layout has them.  It is built from the layout's endpoints,
    crossover and family members in the span padded by 8 tol, merged among
    themselves, and sliced by value.  A point takes the value of a member of
    its group, and a group spans at most 6 tol (`_merge_groups`): so each
    group with its point in the span is built whole, and one cut at a
    padded edge lies over 2 tol outside the span, its point sliced away.

    The members of every family of every piece come from one ragged range
    of ell, and all rows go through one stable sort on (piece, value),
    which breaks ties in `_span_points`' order, and one grouping, whose
    groups never cross from one piece to the next.
    """
    spans, tols = [], []  # (first ell, count, div, shift, low, high, priority, piece)
    cuts = np.array([(start, end) for _, start, end in pieces]).T
    for s, ((tol, points, grids), start, end) in enumerate(pieces):
        tols.append(tol)
        start, end = start - 8.0 * tol, end + 8.0 * tol
        # an endpoint or the crossover is a range of one ell, 0 / -1.0 + value:
        # exactly its value, -0.0 included
        spans += [(0, 1, -1.0, value, -math.inf, math.inf, _KIND_PRIORITY[kind], s)
                  for value, kind, _, _ in points if start < value < end]
        for kind, div, shift, lo, hi in grids:
            lo, hi = max(lo - tol, start), min(hi + tol, end)
            first, last = math.floor(div * (lo - shift)), math.ceil(div * (hi - shift))
            spans.append((first, max(0, last - first + 1), div, shift, lo, hi,
                          _KIND_PRIORITY[kind], s))
    first, count, div, shift, low, high, priority, seg = map(np.array, zip(*spans))
    span = np.repeat(np.arange(count.size), count)
    ells = np.arange(span.size) + (first - count.cumsum() + count)[span]
    values = ells / div[span] + shift[span]
    # the members strictly within tol of (lo, hi) and in (start, end)
    keep = (values > low[span]) & (values < high[span])
    values, ells, span = values[keep], ells[keep], span[keep]
    key = np.empty(values.size, dtype=np.complex128)  # sorts on (real, imag)
    key.real, key.imag = seg[span], values
    order = np.argsort(key, kind="stable")
    values, ells, span = values[order], ells[order], span[order]
    priority, seg = priority[span], seg[span]
    gap = np.empty(values.size)
    gap[:1], gap[1:] = math.inf, values[1:] - values[:-1]
    gap[1:][seg[1:] != seg[:-1]] = math.inf  # a group never crosses pieces
    heads = np.flatnonzero(gap > np.array(tols)[seg])
    values, g_ell, h_ell, seg = _merge_groups(values, priority, ells, seg, heads)
    if np.isfinite(cuts).any():
        keep = (values >= cuts[0][seg]) & (values < cuts[1][seg])
        values, g_ell, h_ell, seg = values[keep], g_ell[keep], h_ell[keep], seg[keep]
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
    """The points of `candidate_set` in the same order, built a span of
    about _CHUNK points at a time.  Bad arguments, a > b included, raise
    before the first point."""
    _check_scan(criterion, n, interval)
    layout = _layout(criterion, n, interval)
    spans = starmap(partial(_span_points, layout), _spans(layout))
    return starmap(CandidatePoint, chain.from_iterable(spans))


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
