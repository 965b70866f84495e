"""Grid, brute-force, and Monte Carlo cross-check routes."""

import math

import numpy as np
import pytest

from poisson_ss import (
    Absolute,
    Mixed,
    ParamInterval,
    Relative,
    brute_force_coverage,
    coverage_at,
    grid_min_coverage,
    min_coverage,
    monte_carlo_coverage,
)
from poisson_ss.oracle import _MAX_TRIALS, EDGE_TOL, MC_CHUNK


def test_two_point_grid_is_the_endpoint_minimum():
    crit = Relative(0.3)
    interval = ParamInterval(0.6, 1.9)
    got = grid_min_coverage(crit, 12, interval, points=2)
    at_a = coverage_at(crit, 12, interval.a)
    at_b = coverage_at(crit, 12, interval.b)
    want = at_a if at_a.coverage <= at_b.coverage else at_b
    assert got == want


def test_grid_needs_two_points():
    with pytest.raises(ValueError):
        grid_min_coverage(Absolute(0.2), 5, ParamInterval(0.0, 1.0), points=1)


def test_grid_never_beats_candidate_minimum():
    rng = np.random.default_rng(8112)
    for _ in range(10):
        n = int(rng.integers(1, 50))
        crit = Absolute(float(rng.uniform(0.1, 0.8)))
        a = float(rng.uniform(0.0, 2.0))
        interval = ParamInterval(a, a + float(rng.uniform(0.2, 2.0)))
        cand = min_coverage(crit, n, interval)
        grid = grid_min_coverage(crit, n, interval, points=501)
        assert cand.coverage <= grid.coverage + 1e-12


def test_brute_force_matches_window_mass():
    cases = [
        (Absolute(0.3), 7, 1.13),
        (Relative(0.45), 9, 0.52),
        (Mixed(0.25, 0.4), 5, 0.77),
        (Absolute(0.5), 1, 0.5),   # empty-window spike
        (Relative(0.2), 3, 0.0),   # zero rate, empty relative window
    ]
    for crit, n, lam in cases:
        want = coverage_at(crit, n, lam).coverage
        got = brute_force_coverage(crit, n, lam)
        assert got == pytest.approx(want, abs=1e-12), (crit, n, lam)


def test_brute_force_insensitive_to_tail_cut():
    crit = Mixed(0.3, 0.25)
    short = brute_force_coverage(crit, 11, 1.37)
    long = brute_force_coverage(crit, 11, 1.37, k_max=2000)
    assert short == pytest.approx(long, abs=1e-13)


def test_brute_force_argument_validation():
    with pytest.raises(ValueError):
        brute_force_coverage(Absolute(0.2), 0, 1.0)
    with pytest.raises(ValueError):
        brute_force_coverage(Absolute(0.2), 3, -0.5)


def test_exact_margin_tie_counts_as_outside():
    # estimate error exactly equal to the margin: the strict event fails;
    # the guard band makes that decision stable under float rounding
    n, eps = 4, 0.25
    lam = 0.5
    # k = 3: |3/4 - 0.5| = 0.25 == eps, excluded; window is [2, 2]
    want = coverage_at(Absolute(eps), n, lam)
    assert (want.g, want.h) == (2, 2)
    got = brute_force_coverage(Absolute(eps), n, lam)
    assert got == pytest.approx(want.coverage, abs=1e-13)
    assert EDGE_TOL < 1e-9


def test_monte_carlo_is_reproducible():
    crit = Relative(0.35)
    first = monte_carlo_coverage(crit, 8, 1.2, trials=30_000, seed=42)
    second = monte_carlo_coverage(crit, 8, 1.2, trials=30_000, seed=42)
    assert first == second


def test_monte_carlo_spanning_multiple_chunks_is_reproducible():
    crit = Absolute(0.3)
    trials = MC_CHUNK + 1234
    first = monte_carlo_coverage(crit, 5, 0.9, trials=trials, seed=7)
    second = monte_carlo_coverage(crit, 5, 0.9, trials=trials, seed=7)
    assert first == second


def test_monte_carlo_single_trial():
    est, err = monte_carlo_coverage(Absolute(0.4), 3, 0.5, trials=1, seed=0)
    assert est in (0.0, 1.0)
    assert err == 0.0


def test_monte_carlo_stderr_formula():
    est, err = monte_carlo_coverage(Relative(0.3), 10, 1.0, trials=50_000, seed=3)
    assert err == pytest.approx(math.sqrt(est * (1.0 - est) / 50_000), rel=1e-12)


def test_monte_carlo_agrees_with_exact_coverage():
    cases = [
        (Absolute(0.25), 12, 0.8),
        (Relative(0.4), 6, 1.5),
        (Mixed(0.3, 0.35), 9, 1.1),
    ]
    trials = 40_000
    for crit, n, lam in cases:
        want = coverage_at(crit, n, lam).coverage
        est, _ = monte_carlo_coverage(crit, n, lam, trials=trials, seed=11)
        sigma = math.sqrt(want * (1.0 - want) / trials)
        assert abs(est - want) <= 4.0 * sigma, (crit, n, lam, est, want)


def test_monte_carlo_argument_validation():
    with pytest.raises(ValueError):
        monte_carlo_coverage(Absolute(0.2), 0, 1.0, trials=10)
    with pytest.raises(ValueError):
        monte_carlo_coverage(Absolute(0.2), 3, -1.0, trials=10)
    with pytest.raises(ValueError):
        monte_carlo_coverage(Absolute(0.2), 3, 1.0, trials=0)
    with pytest.raises(ValueError):
        monte_carlo_coverage(Absolute(0.2), 3, 1.0, trials=10, seed=-1)
    with pytest.raises(ValueError, match="trials must be 1 to"):
        monte_carlo_coverage(Absolute(0.2), 3, 1.0, trials=_MAX_TRIALS + 1)
