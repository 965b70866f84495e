"""Independent cross-checks for the candidate-set machinery.

Three deliberately different routes to the same quantities:

* `grid_min_coverage` scans a dense uniform rate grid, ignoring candidate
  structure entirely; the candidate minimum must match it and can only be
  lower, never higher.
* `brute_force_coverage` rebuilds the error event for each total count from
  the raw inequality, with no window bounds, and adds up the mass.
* `monte_carlo_coverage` simulates the experiment with a counter-based
  generator, so a third estimate comes from actual sampling.

The grid route, `_grid_rows`, is shared with ``coverage --grid``.  It
sums the rates a chunk at a time as the candidate rows of ``coverage``
are summed, `coverage._blocks` with no side pinned, so each row equals
`coverage_at` at its rate bit for bit.  It shares the acceptance-window code
with the main path and checks only the reduction to candidates; brute force
and Monte Carlo share nothing with the window code but its snap tolerance,
which sets where their strict events tie (`_inside`).
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .candidates import _CHUNK, _check_scan
from .coverage import SNAP_TOL, _UNPINNED, _blocks, coverage_at
from .kernel import _MAX_MEAN, pmf
from .types import (
    CoverageResult,
    ErrorCriterion,
    ParamInterval,
    _check_integer,
    _check_margins,
    _check_rate,
    _check_sample_size,
    _margin,
)

# Monte Carlo trials are consumed in fixed-size chunks, each seeded from
# (seed, chunk index), so memory stays bounded by the chunk and the estimate
# depends only on (seed, trials).
MC_CHUNK = 1 << 16

# Most points a uniform grid may have, already minutes of coverage work.
_MAX_GRID_POINTS = 10 ** 7

# Most Monte Carlo trials one estimate may take.  Simulation runs at 6.6 to
# 8.6 million trials a second (means 1.5 to 9630, numpy 2.4, a 2-core x86
# host), so the largest accepted run takes 25 to 30 s.
_MAX_TRIALS = 2 * 10 ** 8

__all__ = [
    "MC_CHUNK",
    "grid_min_coverage",
    "brute_force_coverage",
    "monte_carlo_coverage",
]


def _inside(n: int, lam: float, margin: float) -> tuple[float, float]:
    """(lo, hi): the estimate errors k / n - lam strictly inside the error
    event, lo < k / n - lam < hi.  The event is strict, so a count whose
    error ties the margin is left out.  At breakpoint rates that tie is
    exact in real arithmetic but lands on an arbitrary side in floats.  So
    a count within the window rule's snap band of an end n (lam -+ margin),
    SNAP_TOL max(1, |end|) (`coverage._snap`), is the tie: in rate units
    that band is SNAP_TOL max(1, |end|) / n, and all routes agree near
    breakpoints, at large rates too."""
    lo = -margin + SNAP_TOL * max(1.0, abs(n * (lam - margin))) / n
    hi = margin - SNAP_TOL * max(1.0, abs(n * (lam + margin))) / n
    return lo, hi


def _check_trials(trials: int) -> None:
    _check_integer("trials", trials)
    if not (1 <= trials <= _MAX_TRIALS):
        raise ValueError(f"trials must be 1 to {_MAX_TRIALS}, got {trials!r}")


def _check_points(points: int) -> None:
    _check_integer("grid points", points)
    if not (2 <= points <= _MAX_GRID_POINTS):
        raise ValueError(f"grid needs 2 to {_MAX_GRID_POINTS} points, got {points!r}")


def _check_seed(seed: int) -> None:
    _check_integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")


def _grid_rows(
    criterion: ErrorCriterion, n: int, interval: ParamInterval, points: int
) -> Iterator[tuple[np.ndarray, ...]]:
    """(lams, g, h, coverage) arrays over ``points`` evenly spaced rates from
    a to b, at most _CHUNK rates at a time: a + i * step for i < points - 1,
    then b, as np.linspace makes them.  Each row is `coverage_at` at its rate
    bit for bit.

    The array windows are exact while every window bound is below 2**53,
    which a mean up to 2**38 with n below 2**52 ensures.  A chunk with a rate
    outside that goes through `coverage_at` rate by rate, so a rate the
    scalar route refuses raises its ValueError, for the first such rate.
    Before any rate, it refuses what `min_coverage` refuses (`_check_scan`)."""
    _check_points(points)
    _check_scan(criterion, n, interval)
    a, b = interval.a, interval.b
    step = interval.width / (points - 1)
    for start in range(0, points, _CHUNK):
        i = np.arange(start, min(start + _CHUNK, points))
        with np.errstate(all="ignore"):  # inf and NaN rates, as in floats
            lams = np.where(i < points - 1, a + i * step, b)
            mus = n * lams
        if n < 2 ** 52 and ((lams >= 0.0) & (mus <= _MAX_MEAN)).all():
            yield from _blocks(criterion, n, [(lams, _UNPINNED, _UNPINNED)])
        else:
            rows = [(r.lam, r.g, r.h, r.coverage)
                    for r in (coverage_at(criterion, n, lam) for lam in lams.tolist())]
            yield tuple(np.array(column, dtype=object) for column in zip(*rows))


def grid_min_coverage(
    criterion: ErrorCriterion,
    n: int,
    interval: ParamInterval,
    points: int = 10_001,
) -> CoverageResult:
    """Minimum coverage over a uniform grid of rates, endpoints included.

    A grid can only overestimate the true interval minimum; it is used to
    confirm that the candidate minimum is genuinely the floor.  Ties go to
    the smaller rate.
    """
    best: CoverageResult | None = None
    for lams, gs, hs, covs in _grid_rows(criterion, n, interval, points):
        i = int(covs.argmin())
        if best is None or covs[i] < best.coverage:
            best = CoverageResult(lam=float(lams[i]), g=int(gs[i]), h=int(hs[i]),
                                  coverage=float(covs[i]))
    assert best is not None
    return best


def brute_force_coverage(criterion: ErrorCriterion, n: int, lam: float) -> float:
    """Coverage by direct enumeration of total counts.

    For each k in [0, k_max] the error event is re-derived from the margin
    inequality with estimate k/n; no acceptance window is consulted.  The
    cut k_max = ceil(n lam + 40 sqrt(n lam + 1)) leaves a neglected tail
    far below 1e-12.
    """
    _check_margins(criterion)
    _check_sample_size(n)
    _check_rate(lam)
    mu = n * lam
    k_max = math.ceil(mu + 40.0 * math.sqrt(mu + 1.0))
    lo, hi = _inside(n, lam, _margin(criterion, lam))
    terms = [pmf(k, mu) for k in range(k_max + 1) if lo < k / n - lam < hi]
    return min(1.0, math.fsum(terms))


def monte_carlo_coverage(
    criterion: ErrorCriterion,
    n: int,
    lam: float,
    trials: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Simulated coverage and its binomial standard error.

    Each trial draws the experiment's total count (the sum of n independent
    Poisson(lam) observations is itself Poisson(n lam), so the sum is drawn
    in one shot) and tests the margin inequality on the estimate.  Streams
    come from the counter-based Philox generator keyed by (seed, chunk), so
    the same (seed, trials) always gives the same estimate.
    """
    _check_margins(criterion)
    _check_sample_size(n)
    _check_rate(lam)
    _check_trials(trials)
    _check_seed(seed)

    mu = n * lam
    lo, hi = _inside(n, lam, _margin(criterion, lam))
    hits = 0
    done = 0
    chunk_index = 0
    while done < trials:
        size = min(MC_CHUNK, trials - done)
        rng = np.random.Generator(np.random.Philox(seed=[seed, chunk_index]))
        counts = rng.poisson(lam=mu, size=size)
        errors = counts / n - lam
        hits += int(np.count_nonzero((lo < errors) & (errors < hi)))
        done += size
        chunk_index += 1

    estimate = hits / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return estimate, stderr
