"""Independent piecewise reference for the interval coverage minimum.

Used by the acceptance tests as a second, structurally different route to
the exact minimum: instead of trusting the package's candidate machinery,
this module re-derives the breakpoints of the acceptance window directly,
treats coverage on each constant-window piece as a smooth function of
mu = n * lam, and minimizes each piece over its closure using the two piece
edges plus the unique interior stationary point.  For a window [g, h] the
derivative of the coverage in mu is pmf(g - 1, mu) - pmf(h, mu), which
vanishes only at the geometric mean of {g, ..., h}; that point is included
so the computation does not assume unimodality or edge attainment.

Piece closures capture every one-sided limit, but the value exactly at a
breakpoint can dip below both limits: the floor in g is right-continuous
and the ceiling in h is left-continuous, so where a g-jump and an h-jump
collide the at-point window is the intersection of the neighbouring
windows, a one-point downward spike.  Every breakpoint and both interval
endpoints are therefore also evaluated exactly at the point.

Everything here leans on scipy's Poisson cdf rather than the package's own
mass kernel, keeping the two routes numerically independent.

`reference_candidate_set` is the package's earlier full-list candidate
enumeration, kept as the oracle for the span-built one in
`poisson_ss.candidates`: it lists every family member, and
`reference_points` sorts the whole list once and merges colliding groups;
they must yield the same points in the same order.

`reference_window` is the package's earlier float window rule, kept as the
oracle for `poisson_ss.coverage`: the two products, a snap to the nearest
integer within 1e-12, floor + 1 and ceil - 1, the absolute clamp at 0, and
the absolute window up to the Mixed crossover.  `reference_coverage_at_point`
applies it at a point's value, then lets each breakpoint tag override one
side.  `reference_scan` is the package's earlier scan, kept as the oracle
for `poisson_ss.minimizer.scan_min_coverage`: it builds a `CandidatePoint`
per candidate, resolves its window by `reference_coverage_at_point`, and
keeps the best `CoverageResult`.  The scan must return the same result bit
for bit and the same count.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln
from scipy.stats import poisson as sp_poisson

from poisson_ss import (
    Absolute,
    CandidateKind,
    CandidatePoint,
    CoverageResult,
    Mixed,
    ParamInterval,
    Relative,
    candidate_stream,
    effective_criterion,
    interval_prob,
)
from poisson_ss.candidates import DEDUP_REL_TOL

# Breakpoints closer than this (relative to interval scale) are floating
# point duplicates of one another, not distinct window jumps.
MERGE_TOL = 1e-15


def _breaks_absolute(n: int, eps: float, lo: float, hi: float) -> list[float]:
    pts = []
    for shift in (eps, -eps):
        l0 = math.floor((lo - shift) * n) - 1
        l1 = math.ceil((hi - shift) * n) + 1
        for ell in range(l0, l1 + 1):
            v = ell / n + shift
            if lo < v < hi:
                pts.append(v)
    return pts


def _breaks_relative(n: int, eps: float, lo: float, hi: float) -> list[float]:
    pts = []
    for denom in (n * (1.0 - eps), n * (1.0 + eps)):
        l0 = max(math.floor(lo * denom) - 1, 0)
        l1 = math.ceil(hi * denom) + 1
        for ell in range(l0, l1 + 1):
            v = ell / denom
            if lo < v < hi:
                pts.append(v)
    return pts


def _snap_int(x: float, tol: float = 1e-15) -> float:
    r = round(x)
    if abs(x - r) <= tol * max(1.0, abs(x)):
        return float(r)
    return x


def coverage_at_exact(criterion, n: int, lam: float) -> float:
    """Coverage exactly at one rate, honoring floor/ceil one-sided continuity."""
    if isinstance(criterion, Mixed):
        if lam <= criterion.crossover:
            criterion = Absolute(criterion.eps_a)
        else:
            criterion = Relative(criterion.eps_r)
    if isinstance(criterion, Absolute):
        g = max(0, math.floor(_snap_int(n * (lam - criterion.eps))) + 1)
        h = math.ceil(_snap_int(n * (lam + criterion.eps))) - 1
    else:
        g = math.floor(_snap_int(n * lam * (1.0 - criterion.eps))) + 1
        h = math.ceil(_snap_int(n * lam * (1.0 + criterion.eps))) - 1
    if h < g:
        return 0.0
    val = sp_poisson.cdf(h, n * lam) - sp_poisson.cdf(g - 1, n * lam)
    return min(max(float(val), 0.0), 1.0)


def exact_min_coverage(criterion, n: int, interval: ParamInterval) -> float:
    """Exact minimum coverage over [a, b], by piecewise calculus."""
    a, b = interval.a, interval.b
    scale = max(1.0, abs(a), abs(b))
    pts = [a, b]
    if isinstance(criterion, Absolute):
        pts += _breaks_absolute(n, criterion.eps, a, b)
    elif isinstance(criterion, Relative):
        pts += _breaks_relative(n, criterion.eps, a, b)
    else:
        cx = criterion.crossover
        if a < cx < b:
            pts.append(cx)
            pts += _breaks_absolute(n, criterion.eps_a, a, cx)
            pts += _breaks_relative(n, criterion.eps_r, cx, b)
        elif cx >= b:
            pts += _breaks_absolute(n, criterion.eps_a, a, b)
        else:
            pts += _breaks_relative(n, criterion.eps_r, a, b)

    xs = np.unique(np.asarray(pts, dtype=float))
    keep = np.concatenate(([True], np.diff(xs) > MERGE_TOL * scale))
    xs = xs[keep]
    lo_edge, hi_edge = xs[:-1], xs[1:]
    mid = 0.5 * (lo_edge + hi_edge)

    # piece windows, read at piece midpoints with plain floor/ceil
    if isinstance(criterion, Mixed):
        on_abs = mid <= criterion.crossover
        ga = np.maximum(0.0, np.floor(n * (mid - criterion.eps_a)) + 1.0)
        ha = np.ceil(n * (mid + criterion.eps_a)) - 1.0
        gr = np.floor(n * mid * (1.0 - criterion.eps_r)) + 1.0
        hr = np.ceil(n * mid * (1.0 + criterion.eps_r)) - 1.0
        g = np.where(on_abs, ga, gr)
        h = np.where(on_abs, ha, hr)
    elif isinstance(criterion, Absolute):
        g = np.maximum(0.0, np.floor(n * (mid - criterion.eps)) + 1.0)
        h = np.ceil(n * (mid + criterion.eps)) - 1.0
    else:
        g = np.floor(n * mid * (1.0 - criterion.eps)) + 1.0
        h = np.ceil(n * mid * (1.0 + criterion.eps)) - 1.0

    empty = h < g
    mu_lo = n * lo_edge
    mu_hi = n * hi_edge

    def window_mass(mu):
        val = sp_poisson.cdf(h, mu) - sp_poisson.cdf(g - 1.0, mu)
        return np.clip(val, 0.0, 1.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        mu_star = np.exp((gammaln(h + 1.0) - gammaln(np.maximum(g, 1.0)))
                         / np.maximum(h - g + 1.0, 1.0))
    has_star = (g >= 1.0) & ~empty & (mu_star > mu_lo) & (mu_star < mu_hi)
    star_vals = np.where(
        has_star, window_mass(np.where(has_star, mu_star, 1.0)), np.inf)
    piece_min = np.minimum.reduce(
        [window_mass(mu_lo), window_mass(mu_hi), star_vals])
    piece_min = np.where(empty, 0.0, piece_min)

    at_vals = [coverage_at_exact(criterion, n, float(x)) for x in xs]
    return float(min(piece_min.min(), min(at_vals)))


_KIND_PRIORITY = {
    CandidateKind.ENDPOINT_A: 0,
    CandidateKind.ENDPOINT_B: 1,
    CandidateKind.CROSSOVER: 2,
    CandidateKind.ABS_PLUS: 3,
    CandidateKind.ABS_MINUS: 4,
    CandidateKind.REL_UPPER: 5,
    CandidateKind.REL_LOWER: 6,
}


def _absolute_family(
    raw: list[tuple[float, CandidateKind, int]],
    n: int,
    eps: float,
    lo: float,
    hi: float,
    tol: float,
) -> None:
    # ell/n + eps in (lo, hi)
    first = math.floor(n * (lo - eps)) - 1
    last = math.ceil(n * (hi - eps)) + 1
    for ell in range(first, last + 1):
        v = ell / n + eps
        if lo - tol < v < hi + tol:
            raw.append((v, CandidateKind.ABS_PLUS, ell))
    # ell/n - eps in (lo, hi)
    first = math.floor(n * (lo + eps)) - 1
    last = math.ceil(n * (hi + eps)) + 1
    for ell in range(first, last + 1):
        v = ell / n - eps
        if lo - tol < v < hi + tol:
            raw.append((v, CandidateKind.ABS_MINUS, ell))


def _relative_family(
    raw: list[tuple[float, CandidateKind, int]],
    n: int,
    eps: float,
    lo: float,
    hi: float,
    tol: float,
) -> None:
    # ell/(n (1 + eps)) in (lo, hi)
    scale = n * (1.0 + eps)
    first = math.floor(lo * scale) - 1
    last = math.ceil(hi * scale) + 1
    for ell in range(first, last + 1):
        v = ell / scale
        if lo - tol < v < hi + tol:
            raw.append((v, CandidateKind.REL_UPPER, ell))
    # ell/(n (1 - eps)) in (lo, hi)
    scale = n * (1.0 - eps)
    first = math.floor(lo * scale) - 1
    last = math.ceil(hi * scale) + 1
    for ell in range(first, last + 1):
        v = ell / scale
        if lo - tol < v < hi + tol:
            raw.append((v, CandidateKind.REL_LOWER, ell))


def _merge_group(
    group: list[tuple[float, CandidateKind, int | None]],
) -> list[CandidatePoint]:
    group = sorted(group, key=lambda t: (_KIND_PRIORITY[t[1]], t[0]))
    grid = tuple(
        (kind, ell) for _, kind, ell in group if ell is not None
    )
    kinds = {kind for _, kind, _ in group}
    has_a = CandidateKind.ENDPOINT_A in kinds
    has_b = CandidateKind.ENDPOINT_B in kinds
    if has_a and has_b:
        # Sliver interval: keep both endpoints, never merged away.
        a_val = next(v for v, k, _ in group if k is CandidateKind.ENDPOINT_A)
        b_val = next(v for v, k, _ in group if k is CandidateKind.ENDPOINT_B)
        return [
            CandidatePoint(a_val, CandidateKind.ENDPOINT_A, None, grid),
            CandidatePoint(b_val, CandidateKind.ENDPOINT_B, None, grid),
        ]
    value, kind, ell = group[0]
    if ell is None:
        return [CandidatePoint(value, kind, None, grid)]
    return [CandidatePoint(value, kind, ell, grid[1:])]


def reference_candidate_set(
    criterion, n: int, interval: ParamInterval
) -> tuple[CandidatePoint, ...]:
    """The candidate points by a full build: every family member in a list,
    one sort by (value, kind priority), then a merge of each group of values
    within DEDUP_REL_TOL of the previous member."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n!r}")
    a, b = interval.a, interval.b
    tol = DEDUP_REL_TOL * max(1.0, abs(a), abs(b))

    raw: list[tuple[float, CandidateKind, int]] = []
    eff = effective_criterion(criterion, interval)
    specials: list[tuple[float, CandidateKind, None]] = [
        (a, CandidateKind.ENDPOINT_A, None),
        (b, CandidateKind.ENDPOINT_B, None),
    ]
    if isinstance(eff, Absolute):
        _absolute_family(raw, n, eff.eps, a, b, tol)
    elif isinstance(eff, Relative):
        _relative_family(raw, n, eff.eps, a, b, tol)
    else:
        cx = eff.crossover
        specials.append((cx, CandidateKind.CROSSOVER, None))
        _absolute_family(raw, n, eff.eps_a, a, cx, tol)
        _relative_family(raw, n, eff.eps_r, cx, b, tol)

    return reference_points([*raw, *specials], tol)


def reference_points(
    entries: list[tuple[float, CandidateKind, int | None]], tol: float
) -> tuple[CandidatePoint, ...]:
    """The points of (value, kind, ell) members: one sort by (value, kind
    priority), then a merge of each group of values within tol of the
    previous member."""
    entries = sorted(entries, key=lambda t: (t[0], _KIND_PRIORITY[t[1]]))
    points: list[CandidatePoint] = []
    group: list[tuple[float, CandidateKind, int | None]] = [entries[0]]
    for entry in entries[1:]:
        if entry[0] - group[-1][0] <= tol:
            group.append(entry)
        else:
            points.extend(_merge_group(group))
            group = [entry]
    points.extend(_merge_group(group))
    return tuple(points)


def reference_window(criterion, n: int, lam: float) -> tuple[int, int]:
    """(g, h) at rate lam by the float rule alone, no breakpoint tags."""
    if isinstance(criterion, Mixed):
        absolute = lam <= criterion.crossover
        eps = criterion.eps_a if absolute else criterion.eps_r
    else:
        absolute, eps = isinstance(criterion, Absolute), criterion.eps
    if absolute:
        lower, upper = n * (lam - eps), n * (lam + eps)
    else:
        lower, upper = n * lam * (1.0 - eps), n * lam * (1.0 + eps)
    g = math.floor(_snap_int(lower, 1e-12)) + 1
    h = math.ceil(_snap_int(upper, 1e-12)) - 1
    return (max(0, g) if absolute else g), h


def reference_coverage_at_point(criterion, n: int, point: CandidatePoint) -> CoverageResult:
    g, h = reference_window(criterion, n, point.value)
    # Tags are only the four grid kinds: the else is ABS_MINUS or REL_UPPER.
    for kind, ell in point.grid_tags():
        if kind is CandidateKind.ABS_PLUS:
            g = max(0, ell + 1)
        elif kind is CandidateKind.REL_LOWER:
            g = ell + 1
        else:
            h = ell - 1
    cov = interval_prob(g, h, n * point.value)
    return CoverageResult(lam=point.value, g=g, h=h, coverage=cov)


def reference_scan(
    criterion, n: int, interval: ParamInterval, fail_fast_threshold: float | None = None
) -> tuple[CoverageResult, int]:
    """(minimum or first witness, evaluations) by one `CandidatePoint` and
    one `CoverageResult` per candidate; ties go to the smaller rate and the
    scan stops once the best coverage is <= the threshold."""
    best = None
    count = 0
    for point in candidate_stream(criterion, n, interval):
        result = reference_coverage_at_point(criterion, n, point)
        count += 1
        if best is None or result.coverage < best.coverage:
            best = result
        if fail_fast_threshold is not None and best.coverage <= fail_fast_threshold:
            break
    assert best is not None
    return best, count
