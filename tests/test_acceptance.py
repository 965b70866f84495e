"""End-to-end acceptance gate: ten numbered checks, one per guarantee.

Each test draws a fresh batch of random problem configurations from a
fixed seed, exercises one advertised property of the library at its
stated tolerance, and prints a single summary line.  Every check here
runs against an independent route (dense grids, piecewise-exact
minimization, brute-force sums, closed-form bounds, arbitrary-precision
arithmetic, Monte Carlo), never against the code path it validates.
"""

import math
import sys

import mpmath
import numpy as np
import pytest
from scipy.special import pdtr, pdtrc

from poisson_ss import (
    Absolute,
    ConfidenceSpec,
    Mixed,
    ParamInterval,
    Relative,
    brute_force_coverage,
    candidate_set,
    coverage_at,
    coverage_at_point,
    interval_prob,
    lambda_threshold,
    min_coverage,
    min_sample_size,
    monte_carlo_coverage,
    pmf,
    tail_bounds,
)

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from exact_reference import exact_min_coverage  # noqa: E402

KINDS = ("abs", "rel", "mix")


def _report(number: int, label: str, detail: str) -> None:
    print(f"[acceptance] {number:02d} {label}: PASS ({detail})")


def _draw_problem(rng, kind: str, n_max: int):
    """One random (criterion, n, interval) with a < b <= a + 5."""
    n = int(rng.integers(1, n_max + 1))
    if kind == "abs":
        crit = Absolute(float(rng.uniform(0.05, 0.9)))
        a = float(rng.uniform(0.0, 5.0))
    elif kind == "rel":
        crit = Relative(float(rng.uniform(0.05, 0.9)))
        a = float(rng.uniform(0.01, 5.0))
    else:
        crit = Mixed(float(rng.uniform(0.05, 0.9)),
                     float(rng.uniform(0.05, 0.9)))
        a = float(rng.uniform(0.01, 5.0))
    b = a + float(rng.uniform(0.05, 5.0))
    return crit, n, ParamInterval(a, b)


def _plain_window_grid_min(crit, n: int, interval: ParamInterval,
                           points: int = 10_000) -> float:
    """Grid minimum by direct floor/ceil windows, vectorized with scipy.

    This route never snaps, tags, or merges anything; it is the naive
    evaluation the candidate construction claims to dominate.
    """
    lam = np.linspace(interval.a, interval.b, points)
    mu = n * lam
    if isinstance(crit, Absolute):
        g = np.maximum(0.0, np.floor(n * (lam - crit.eps)) + 1.0)
        h = np.ceil(n * (lam + crit.eps)) - 1.0
    elif isinstance(crit, Relative):
        g = np.floor(mu * (1.0 - crit.eps)) + 1.0
        h = np.ceil(mu * (1.0 + crit.eps)) - 1.0
    else:
        on_abs = lam <= crit.crossover
        g = np.where(on_abs,
                     np.maximum(0.0, np.floor(n * (lam - crit.eps_a)) + 1.0),
                     np.floor(mu * (1.0 - crit.eps_r)) + 1.0)
        h = np.where(on_abs,
                     np.ceil(n * (lam + crit.eps_a)) - 1.0,
                     np.ceil(mu * (1.0 + crit.eps_r)) - 1.0)
    upper = pdtr(np.maximum(h, 0.0), mu)
    lower = np.where(g >= 1.0, pdtr(np.maximum(g - 1.0, 0.0), mu), 0.0)
    cov = np.where(h < g, 0.0, upper - lower)
    return float(cov.min())


def test_01_candidate_minimum_is_the_exact_minimum():
    """Finite candidate scan vs a 10^4-point grid and a piecewise-exact
    minimizer: 50 configurations per criterion kind."""
    rng = np.random.default_rng(74207431)
    worst_grid_slack = -math.inf
    worst_exact_gap = 0.0
    for kind in KINDS:
        for _ in range(50):
            crit, n, interval = _draw_problem(rng, kind, n_max=200)
            cand = min_coverage(crit, n, interval).coverage
            grid = _plain_window_grid_min(crit, n, interval)
            exact = exact_min_coverage(crit, n, interval)
            assert cand <= grid + 1e-12, (crit, n, interval, cand, grid)
            assert abs(cand - exact) <= 1e-10, (crit, n, interval, cand, exact)
            worst_grid_slack = max(worst_grid_slack, cand - grid)
            worst_exact_gap = max(worst_exact_gap, abs(cand - exact))
    _report(1, "candidate minimum exact",
            f"150 configs, max cand-grid slack {worst_grid_slack:.2e}, "
            f"max |cand-exact| {worst_exact_gap:.2e}")


def test_02_windows_constant_between_candidates():
    """Two interior samples of 500 random inter-candidate gaps must see
    the same acceptance window."""
    rng = np.random.default_rng(52)
    checked = 0
    while checked < 500:
        crit, n, interval = _draw_problem(rng, KINDS[checked % 3], n_max=100)
        points = candidate_set(crit, n, interval)
        i = int(rng.integers(0, len(points) - 1))
        x, y = points[i].value, points[i + 1].value
        if y - x <= 1e-9 * max(1.0, abs(y)):
            continue
        u1, u2 = sorted(rng.uniform(0.15, 0.85, size=2))
        if u2 - u1 < 0.05:
            continue
        first = coverage_at(crit, n, x + u1 * (y - x))
        second = coverage_at(crit, n, x + u2 * (y - x))
        assert (first.g, first.h) == (second.g, second.h), \
            (crit, n, x, y, first, second)
        checked += 1
    _report(2, "windows constant between candidates", "500 gaps, 0 failures")


def test_03_interior_coverage_dominates_candidate_pair():
    """Coverage strictly between consecutive candidates never drops below
    the smaller of the two candidate values."""
    rng = np.random.default_rng(53)
    checked = 0
    worst_margin = math.inf
    while checked < 500:
        crit, n, interval = _draw_problem(rng, KINDS[checked % 3], n_max=100)
        points = candidate_set(crit, n, interval)
        i = int(rng.integers(0, len(points) - 1))
        alpha, beta = points[i], points[i + 1]
        if beta.value - alpha.value <= 1e-9 * max(1.0, abs(beta.value)):
            continue
        lam = alpha.value + float(rng.uniform(0.05, 0.95)) * (
            beta.value - alpha.value)
        inner = coverage_at(crit, n, lam).coverage
        floor_val = min(coverage_at_point(crit, n, alpha).coverage,
                        coverage_at_point(crit, n, beta).coverage)
        assert inner >= floor_val - 1e-10, (crit, n, alpha, beta, lam)
        worst_margin = min(worst_margin, inner - floor_val)
        checked += 1
    _report(3, "interior coverage dominates candidates",
            f"500 samples, min slack {worst_margin:.2e}")


def test_04_candidate_count_stays_under_bound():
    """Set size < 2n(b-a)+4 for one-parameter margins, < 2n(b-a)+7 for
    mixed, across 1000 configurations including sliver intervals."""
    rng = np.random.default_rng(54)
    tightest = math.inf
    for trial in range(1000):
        kind = KINDS[trial % 3]
        crit, n, interval = _draw_problem(rng, kind, n_max=300)
        if trial % 5 == 0:
            width = 10.0 ** float(rng.uniform(-7.0, 0.5))
            interval = ParamInterval(interval.a, interval.a + width)
        count = len(candidate_set(crit, n, interval))
        bound = 2.0 * n * interval.width + (7.0 if kind == "mix" else 4.0)
        assert count < bound, (crit, n, interval, count, bound)
        tightest = min(tightest, bound - count)
    # a smaller batch stretches to the widest supported shapes
    for trial in range(40):
        kind = KINDS[trial % 3]
        crit, _, interval = _draw_problem(rng, kind, n_max=1)
        n = int(rng.integers(200, 501))
        interval = ParamInterval(interval.a,
                                 interval.a + float(rng.uniform(5.0, 10.0)))
        count = len(candidate_set(crit, n, interval))
        bound = 2.0 * n * interval.width + (7.0 if kind == "mix" else 4.0)
        assert count < bound, (crit, n, interval, count, bound)
        tightest = min(tightest, bound - count)
    _report(4, "cardinality bound", f"1040 configs, min slack {tightest:.3g}")


def test_05_window_mass_equals_event_sum():
    """coverage_at vs direct summation of the margin event over k."""
    rng = np.random.default_rng(55)
    worst = 0.0
    for trial in range(500):
        kind = KINDS[trial % 3]
        n = int(rng.integers(1, 51))
        lam = float(rng.uniform(1e-3, 50.0 / n))
        if kind == "abs":
            crit = Absolute(float(rng.uniform(0.05, 0.9)))
        elif kind == "rel":
            crit = Relative(float(rng.uniform(0.05, 0.9)))
        else:
            crit = Mixed(float(rng.uniform(0.05, 0.9)),
                         float(rng.uniform(0.05, 0.9)))
        gap = abs(coverage_at(crit, n, lam).coverage
                  - brute_force_coverage(crit, n, lam))
        assert gap <= 1e-12, (crit, n, lam, gap)
        worst = max(worst, gap)
    _report(5, "window mass equals event sum",
            f"500 configs, max gap {worst:.2e}")


def test_06_closed_form_bounds_dominate_exact_tails():
    """Exact lower/upper relative tails never exceed exp(-x/2) and
    exp(-(2ln2-1)x) with x = n*lam*eps^2."""
    rng = np.random.default_rng(56)
    worst = -math.inf
    for _ in range(200):
        n = int(rng.integers(1, 401))
        eps = float(rng.uniform(0.05, 0.9))
        lam = 10.0 ** float(rng.uniform(-3.0, 1.0))
        mu = n * lam
        bounds = tail_bounds(n, lam, eps)
        k_lo = math.floor(mu * (1.0 - eps))
        exact_lower = float(pdtr(k_lo, mu)) if k_lo >= 0 else 0.0
        exact_upper = float(pdtrc(math.ceil(mu * (1.0 + eps)) - 1, mu))
        assert exact_lower <= bounds.lower + 1e-12, (n, eps, lam)
        assert exact_upper <= bounds.upper + 1e-12, (n, eps, lam)
        worst = max(worst, exact_lower - bounds.lower,
                    exact_upper - bounds.upper)
    _report(6, "closed-form tail bounds dominate",
            f"200 configs, max exact-bound excess {worst:.2e}")


def test_07_threshold_rate_already_covers():
    """Just above lambda_threshold the relative-margin coverage clears
    1 - delta, so truncating the scan there is sound."""
    rng = np.random.default_rng(57)
    slimmest = math.inf
    for _ in range(100):
        n = int(rng.integers(1, 501))
        eps = float(rng.uniform(0.05, 0.9))
        delta = float(rng.uniform(0.01, 0.5))
        lam = 1.001 * lambda_threshold(n, eps, delta)
        cov = coverage_at(Relative(eps), n, lam).coverage
        assert cov > 1.0 - delta, (n, eps, delta, lam, cov)
        slimmest = min(slimmest, cov - (1.0 - delta))
    _report(7, "threshold rate already covers",
            f"100 configs, min margin {slimmest:.2e}")


def test_08_answer_is_minimal_by_the_exact_reference():
    """On 30 configurations the piecewise-exact reference minimizer, which
    shares no code with the search, puts the minimum coverage of n_min
    above 1 - delta and that of n_min - 1 at or below it."""
    rng = np.random.default_rng(181054)
    slimmest = math.inf
    for i in range(30):
        kind = rng.choice(["abs", "rel", "mix"])
        delta = rng.uniform(0.05, 0.5)
        if kind == "abs":
            crit = Absolute(rng.uniform(0.15, 0.6))
            a = rng.uniform(0.0, 2.0)
        elif kind == "rel":
            crit = Relative(rng.uniform(0.15, 0.6))
            a = rng.uniform(0.1, 2.0)
        else:
            crit = Mixed(rng.uniform(0.15, 0.6), rng.uniform(0.15, 0.6))
            a = rng.uniform(0.1, 2.0)
        interval = ParamInterval(a, a + rng.uniform(0.2, 2.0))
        level = 1.0 - delta
        plan = min_sample_size(crit, interval, ConfidenceSpec(delta))
        at_n = exact_min_coverage(crit, plan.n_min, interval)
        assert at_n > level, (i, plan, at_n)
        slimmest = min(slimmest, at_n - level)
        if plan.n_min > 1:
            below = exact_min_coverage(crit, plan.n_min - 1, interval)
            assert below <= level, (i, plan, below)
            slimmest = min(slimmest, level - below)
    _report(8, "minimality by the exact reference",
            f"30 configs, min margin {slimmest:.2e}")


def test_09_simulation_confirms_worst_coverage():
    """10^5-trial Monte Carlo at the planned worst rate lands within four
    standard errors of the computed coverage; a statistical miss must
    pass on one reseeded rerun."""
    rng = np.random.default_rng(58)
    trials = 100_000
    reruns = 0
    worst_sigma = 0.0
    for i in range(10):
        kind = KINDS[i % 3]
        delta = float(rng.uniform(0.05, 0.4))
        if kind == "abs":
            crit = Absolute(float(rng.uniform(0.2, 0.6)))
            a = float(rng.uniform(0.0, 2.0))
        elif kind == "rel":
            crit = Relative(float(rng.uniform(0.25, 0.7)))
            a = float(rng.uniform(0.2, 2.0))
        else:
            crit = Mixed(float(rng.uniform(0.2, 0.6)),
                         float(rng.uniform(0.25, 0.7)))
            a = float(rng.uniform(0.1, 2.0))
        interval = ParamInterval(a, a + float(rng.uniform(0.3, 2.0)))
        plan = min_sample_size(crit, interval, ConfidenceSpec(delta))
        p = plan.worst_coverage
        sigma = math.sqrt(p * (1.0 - p) / trials)
        seed = int(rng.integers(0, 2**31))
        est, _ = monte_carlo_coverage(crit, plan.n_min, plan.worst_lambda,
                                      trials, seed)
        if abs(est - p) > 4.0 * sigma:
            reruns += 1
            est, _ = monte_carlo_coverage(crit, plan.n_min,
                                          plan.worst_lambda, trials,
                                          seed + 99_991)
            assert abs(est - p) <= 4.0 * sigma, (i, crit, interval, est, p)
        worst_sigma = max(worst_sigma, abs(est - p) / sigma)
    _report(9, "simulation confirms worst coverage",
            f"10 configs, max |est-p| {worst_sigma:.2f} sigma, "
            f"{reruns} reruns")


def _ref_pmf(k: int, mu: float) -> float:
    with mpmath.workdps(60):
        m = mpmath.mpf(mu)
        return float(mpmath.e ** (-m) * m ** k / mpmath.factorial(k))


def _ref_interval(k_lo: int, k_hi: int, mu: float) -> float:
    """Term-by-term sum at 60 digits; independent of any gamma identity."""
    with mpmath.workdps(60):
        m = mpmath.mpf(mu)
        term = m ** k_lo / mpmath.factorial(k_lo)
        total = term
        for k in range(k_lo + 1, k_hi + 1):
            term = term * m / k
            total += term
        return float(mpmath.e ** (-m) * total)


PMF_CASES = {
    1e-6: (0, 1, 2, 5),
    0.5: (0, 1, 3, 12),
    5.0: (0, 2, 5, 9, 20),
    50.0: (20, 40, 50, 60, 90),
    5000.0: (4500, 4950, 5000, 5100, 5300),
}

INTERVAL_CASES = {
    1e-6: ((0, 0), (0, 2), (1, 3)),
    0.5: ((0, 2), (3, 8), (0, 12)),
    5.0: ((4, 6), (0, 10), (11, 25)),
    50.0: ((40, 60), (0, 30), (61, 120)),
    5000.0: ((4900, 5100), (4700, 5300), (0, 4800)),
}


def test_10_kernel_matches_arbitrary_precision():
    """pmf and interval_prob against 60-digit arithmetic at 1e-13
    relative / 1e-12 absolute."""
    checked = 0
    for mu, ks in PMF_CASES.items():
        for k in ks:
            got, want = pmf(k, mu), _ref_pmf(k, mu)
            assert math.isclose(got, want, rel_tol=1e-13, abs_tol=1e-12), \
                ("pmf", k, mu, got, want)
            checked += 1
    for mu, ranges in INTERVAL_CASES.items():
        for k_lo, k_hi in ranges:
            got = interval_prob(k_lo, k_hi, mu)
            want = _ref_interval(k_lo, k_hi, mu)
            assert math.isclose(got, want, rel_tol=1e-13, abs_tol=1e-12), \
                ("interval", k_lo, k_hi, mu, got, want)
            checked += 1
    _report(10, "kernel matches 60-digit arithmetic",
            f"{checked} values across 5 means")


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v", "-s"]))
