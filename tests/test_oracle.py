"""Grid, brute-force, and Monte Carlo cross-check routes."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_ss import (
    Absolute,
    EmptyInterval,
    EpsilonOutOfRange,
    Mixed,
    NonFiniteBound,
    ParamInterval,
    Relative,
    brute_force_coverage,
    coverage_at,
    grid_min_coverage,
    kernel,
    min_coverage,
    monte_carlo_coverage,
    oracle,
)
from poisson_ss.oracle import _MAX_TRIALS, MC_CHUNK


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


@pytest.mark.parametrize("interval, error", [
    (ParamInterval(1.0, 0.0), EmptyInterval),
    (ParamInterval(0.0, math.inf), NonFiniteBound),
    (ParamInterval(math.nan, 1.0), NonFiniteBound),
])
def test_grid_refuses_the_intervals_min_coverage_refuses(interval, error):
    with pytest.raises(error):
        min_coverage(Absolute(0.1), 10, interval)
    with pytest.raises(error):
        grid_min_coverage(Absolute(0.1), 10, interval, 5)


def grid_reference(crit, n, interval, points):
    """The grid's rows rate by rate through `coverage_at`: a + i * step for
    i < points - 1, then b."""
    step = interval.width / (points - 1)
    rates = [interval.a + i * step for i in range(points - 1)] + [interval.b]
    return [coverage_at(crit, n, lam) for lam in rates]


def _hex_rows(rows):
    return [(float(lam).hex(), g, h, cov.hex()) for lam, g, h, cov in rows]


def _outcome(fn):
    """fn()'s value, or the message of the ValueError it raises."""
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


def _assert_grid_matches_reference(crit, n, interval, points):
    """`_grid_rows` and `grid_min_coverage` against `grid_reference`: the
    same rows bit for bit, the first least coverage, or the same error."""
    def reference():
        rows = grid_reference(crit, n, interval, points)
        least = min(rows, key=lambda r: r.coverage)  # the first of a tie
        return _hex_rows((r.lam, r.g, r.h, r.coverage) for r in rows), least

    def got():
        rows = [row for block in oracle._grid_rows(crit, n, interval, points)
                for row in zip(*(column.tolist() for column in block))]
        return _hex_rows(rows), grid_min_coverage(crit, n, interval, points)

    want, result = _outcome(reference), _outcome(got)
    if isinstance(want, str):
        assert result == want
        return
    assert result[0] == want[0]
    least, best = want[1], result[1]
    assert type(best.lam) is float
    assert (best.lam.hex(), best.g, best.h, best.coverage.hex()) == (
        float(least.lam).hex(), least.g, least.h, least.coverage.hex())


@st.composite
def grids(draw):
    """(criterion, n, interval, points) with a < b, and a > 0 under a
    relative margin, as the command line accepts them."""
    margin = st.sampled_from([0.1, 0.25, 0.5]) | st.floats(0.05, 0.9)
    crit = draw(st.sampled_from([Absolute, Relative, Mixed]))
    crit = crit(draw(margin), draw(margin)) if crit is Mixed else crit(draw(margin))
    n = draw(st.integers(1, 50) | st.integers(50, 3000))
    a = draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 3.0))
    if isinstance(crit, Relative):
        a = max(a, 0.01)
    b = a + draw(st.sampled_from([1e-9, 0.5, 1.0]) | st.floats(1e-6, 3.0))
    return crit, n, ParamInterval(a, b), draw(st.integers(2, 300))


# Chunks of 1, 7 and 64 rates cut most grids above; 768 leaves them whole.
_GRID_CHUNKS = st.sampled_from([1, 7, 64, 768])


@pytest.mark.seeded
@settings(max_examples=150, deadline=None)
@given(grids(), _GRID_CHUNKS, st.sampled_from([1, kernel._WIDE]))
def test_grid_rows_match_the_per_rate_reference(config, chunk, wide):
    # a width of 1 sends every chunk through the kernel's lean pre-pass
    with mock.patch.object(oracle, "_CHUNK", chunk), mock.patch.object(kernel, "_WIDE", wide):
        _assert_grid_matches_reference(*config)


@pytest.mark.parametrize("chunk", [1, 2, 3, 4, 8192])
def test_grid_ties_go_to_the_smaller_rate(chunk):
    # Absolute(0.5), n = 1: the windows at 0.5 and 1.5 are empty, so the
    # rates 0, 0.5, 1, 1.5, 2 have coverage 1, 0, pmf(1, 1), 0, > 0
    crit, interval = Absolute(0.5), ParamInterval(0.0, 2.0)
    with mock.patch.object(oracle, "_CHUNK", chunk):
        best = grid_min_coverage(crit, 1, interval, 5)
        _assert_grid_matches_reference(crit, 1, interval, 5)
    assert (best.lam, best.coverage) == (0.5, 0.0)


def test_grid_rate_is_a_float_for_integer_bounds():
    best = grid_min_coverage(Absolute(0.1), 276, ParamInterval(0, 1))
    assert type(best.lam) is float and best.lam == 1.0
    assert best == min_coverage(Absolute(0.1), 276, ParamInterval(0, 1))


@pytest.mark.parametrize("crit, n, interval, points", [
    (Absolute(0.1), 1, ParamInterval(0.0, 1e300), 2),          # mean above 2**38
    (Relative(0.3), 1, ParamInterval(1e-300, 1e300), 2),
    (Absolute(0.1), 2, ParamInterval(0.0, 1e308), 3),           # window bound is inf
    (Absolute(0.1), 2, ParamInterval(1e308, 1.7e308), 2),
    (Absolute(0.1), 10 ** 21, ParamInterval(0.0, 1.0), 3),      # mean 5e20 at 0.5
    (Absolute(0.1), 5, ParamInterval(-1.7e308, 1.7e308), 3),    # NaN rate 0 * inf
    (Mixed(0.1, 0.2), 3, ParamInterval(-1.0, 1.0), 3),          # negative rate
    (Absolute(0.1), 10 ** 21, ParamInterval(0.0, 1e-300), 5),   # h above int64
    (Absolute(0.1), 2 ** 60, ParamInterval(0.0, 1e-10), 3),     # h above 2**53
    (Absolute(0.1), 2 ** 52 - 1, ParamInterval(0.0, 1e-10), 3),
    (Absolute(1.5), 10, ParamInterval(0.0, 1.0), 3),            # bad margin
    (Absolute(0.1), 0, ParamInterval(0.0, 1.0), 3),             # bad sample size
])
@pytest.mark.parametrize("chunk", [1, 8192])
def test_grid_refuses_what_the_per_rate_route_refuses(crit, n, interval, points, chunk):
    # Under -W error: no rate reaches an int64 cast or a kernel sum that
    # `coverage_at` would refuse, and the first refused rate sets the error.
    with mock.patch.object(oracle, "_CHUNK", chunk):
        _assert_grid_matches_reference(crit, n, interval, points)


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
    # the counts past the cut ceil(mu + 40 sqrt(mu + 1)) add nothing visible
    crit, n, lam = Mixed(0.3, 0.25), 11, 1.37
    lo, hi = oracle._inside(n, lam, max(crit.eps_a, crit.eps_r * lam))
    long = math.fsum(kernel.pmf(k, n * lam) for k in range(2001) if lo < k / n - lam < hi)
    assert brute_force_coverage(crit, n, lam) == pytest.approx(min(1.0, long), abs=1e-13)


def test_brute_force_argument_validation():
    with pytest.raises(ValueError):
        brute_force_coverage(Absolute(0.2), 0, 1.0)
    with pytest.raises(ValueError):
        brute_force_coverage(Absolute(0.2), 3, -0.5)


@pytest.mark.parametrize("criterion", [
    Relative(-0.5), Absolute(2.0), Mixed(0.1, 1.0), Absolute(math.nan)])
def test_oracles_refuse_a_margin_outside_the_unit_interval(criterion):
    # the margin rule of every other call that takes a criterion, checked
    # before n and the rate
    with pytest.raises(EpsilonOutOfRange):
        brute_force_coverage(criterion, 3, 1.0)
    with pytest.raises(EpsilonOutOfRange):
        monte_carlo_coverage(criterion, 3, 1.0, 100)
    with pytest.raises(EpsilonOutOfRange):
        brute_force_coverage(criterion, 0, -1.0)


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


def test_a_tie_at_a_large_rate_counts_as_outside():
    # the worst rate of Relative(1e-9) on [1e6, 1e6 + 1] at n = 10 is the
    # breakpoint 1e7 / (10 (1 - 1e-9)), where the count 10**7 ties the
    # margin; k / n - lam carries a float error near 1e-10 there, far above
    # 1e-12 of the margin, so the tie band is the window rule's snap band
    crit, n, interval = Relative(1e-9), 10, ParamInterval(1e6, 1e6 + 1.0)
    worst = min_coverage(crit, n, interval)
    assert worst.coverage == 0.0
    assert brute_force_coverage(crit, n, worst.lam) == 0.0
    assert monte_carlo_coverage(crit, n, worst.lam, trials=20_000) == (0.0, 0.0)


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


def _no_work(*args, **kwargs):
    raise AssertionError("work done before the arguments were checked")


@pytest.mark.parametrize("value", [10.5, True, np.True_])
@pytest.mark.parametrize("call", [
    lambda value: monte_carlo_coverage(Absolute(0.2), 3, 1.0, trials=value),
    lambda value: monte_carlo_coverage(Absolute(0.2), 3, 1.0, trials=10, seed=value),
    lambda value: grid_min_coverage(Absolute(0.2), 3, ParamInterval(0.0, 1.0), points=value),
])
def test_seed_trials_and_points_are_integers_checked_before_any_work(monkeypatch, call, value):
    monkeypatch.setattr(np.random, "Philox", _no_work)
    monkeypatch.setattr(oracle, "_blocks", _no_work)
    monkeypatch.setattr(oracle, "coverage_at", _no_work)
    with pytest.raises(ValueError, match=r"^(trials|seed|grid points) must be an integer, got "):
        call(value)
