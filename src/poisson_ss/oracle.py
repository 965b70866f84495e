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
evaluates the rates a chunk at a time through the scan's array path:
`_windows` with no side pinned, then `interval_probs`, so each row equals
`coverage_at` at its rate bit for bit.  It shares the acceptance-window code
with the main path and checks only the reduction to candidates; brute force
and Monte Carlo share nothing with the window code.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .candidates import _CHUNK, _check_scan
from .coverage import _windows, coverage_at
from .kernel import _MAX_MEAN, interval_probs, pmf
from .types import (
    Absolute,
    CoverageResult,
    ErrorCriterion,
    Mixed,
    ParamInterval,
    Relative,
    _check_sample_size,
)

# Monte Carlo trials are consumed in fixed-size chunks, each seeded from
# (seed, chunk index), so memory stays bounded by the chunk and the estimate
# depends only on (seed, trials).
MC_CHUNK = 1 << 16

# The error events use strict inequalities, so a count whose error ties the
# margin exactly is excluded.  At breakpoint rates that tie is exact in real
# arithmetic but lands on an arbitrary side in floats; an error within this
# relative distance of the margin is treated as the tie.  Matches the snap
# tolerance used for the window bounds, so all routes agree near breakpoints.
EDGE_TOL = 1e-12

# Most points a uniform grid may have, already minutes of coverage work.
_MAX_GRID_POINTS = 10 ** 7

# Most Monte Carlo trials one estimate may take.  Simulation runs at 6.6 to
# 8.6 million trials a second (means 1.5 to 9630, numpy 2.4, a 2-core x86
# host), so the largest accepted run takes 25 to 30 s.
_MAX_TRIALS = 2 * 10 ** 8

__all__ = [
    "MC_CHUNK",
    "EDGE_TOL",
    "grid_min_coverage",
    "brute_force_coverage",
    "monte_carlo_coverage",
]


def _strictly_below(err, margin):
    """Robust err < margin for the strict error events (works on arrays)."""
    return err < margin * (1.0 - EDGE_TOL)


def _check_trials(trials: int) -> None:
    if not (1 <= trials <= _MAX_TRIALS):
        raise ValueError(f"trials must be 1 to {_MAX_TRIALS}, got {trials!r}")


def _check_points(points: int) -> None:
    if not (2 <= points <= _MAX_GRID_POINTS):
        raise ValueError(f"grid needs 2 to {_MAX_GRID_POINTS} points, got {points!r}")


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
            gs, hs = _windows(criterion, n, lams)
            yield lams, gs, hs, interval_probs(gs, hs, mus)
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


def _margin(criterion: ErrorCriterion, lam: float) -> float:
    """The largest error the event allows at rate lam.  A mixed event holds
    when either margin does, so its margin is the larger of the two."""
    if isinstance(criterion, Absolute):
        return criterion.eps
    if isinstance(criterion, Relative):
        return criterion.eps * lam
    if isinstance(criterion, Mixed):
        return max(criterion.eps_a, criterion.eps_r * lam)
    raise TypeError(f"unknown criterion type: {criterion!r}")


def brute_force_coverage(
    criterion: ErrorCriterion,
    n: int,
    lam: float,
    k_max: int | None = None,
) -> float:
    """Coverage by direct enumeration of total counts.

    For each k in [0, k_max] the error event is re-derived from the margin
    inequality with estimate k/n; no acceptance window is consulted.  The
    default k_max, ceil(n lam + 40 sqrt(n lam + 1)), leaves a neglected tail
    far below 1e-12.
    """
    _check_sample_size(n)
    if not (lam >= 0.0):
        raise ValueError(f"rate must be nonnegative, got {lam!r}")
    mu = n * lam
    if k_max is None:
        k_max = math.ceil(mu + 40.0 * math.sqrt(mu + 1.0))
    margin = _margin(criterion, lam)
    terms = [
        pmf(k, mu)
        for k in range(k_max + 1)
        if _strictly_below(abs(k / n - lam), margin)
    ]
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
    _check_sample_size(n)
    if not (lam >= 0.0):
        raise ValueError(f"rate must be nonnegative, got {lam!r}")
    _check_trials(trials)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed!r}")

    mu = n * lam
    margin = _margin(criterion, lam)
    hits = 0
    done = 0
    chunk_index = 0
    while done < trials:
        size = min(MC_CHUNK, trials - done)
        rng = np.random.Generator(np.random.Philox(seed=[seed, chunk_index]))
        counts = rng.poisson(lam=mu, size=size)
        ok = _strictly_below(np.abs(counts / n - lam), margin)
        hits += int(np.count_nonzero(ok))
        done += size
        chunk_index += 1

    estimate = hits / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return estimate, stderr
