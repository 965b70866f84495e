"""Exponential tail bounds and the truncation threshold.

The frozen constants were produced with mpmath at 60 significant digits.
"""

import math

import numpy as np
import pytest

from poisson_ss import (
    Relative,
    coverage_at,
    interval_prob,
    lambda_threshold,
    tail_bounds,
)
from poisson_ss.chernoff import TWO_LN2_MINUS_1


def test_rate_constant():
    assert TWO_LN2_MINUS_1 == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-15)
    assert TWO_LN2_MINUS_1 == pytest.approx(0.3862943611198906, rel=1e-15)


def test_closed_form_fixture():
    tb = tail_bounds(100, 1.0, 0.5)
    assert tb.lower == pytest.approx(3.726653172078671e-06, rel=5e-14)
    assert tb.upper == pytest.approx(6.3953197704145979e-05, rel=5e-14)


def test_threshold_fixture():
    assert lambda_threshold(100, 0.1, 0.05) == pytest.approx(
        9.5494002123656493, rel=5e-14)


def test_bounds_cap_at_one():
    tb = tail_bounds(1, 0.0, 0.5)
    assert tb.lower == 1.0
    assert tb.upper == 1.0


def test_bounds_multiply_across_sample_size():
    # exp(-c 2x) = exp(-c x)^2: doubling n squares both bounds
    one = tail_bounds(50, 0.8, 0.3)
    two = tail_bounds(100, 0.8, 0.3)
    assert two.lower == pytest.approx(one.lower**2, rel=1e-12)
    assert two.upper == pytest.approx(one.upper**2, rel=1e-12)


def test_exact_tails_never_exceed_bounds():
    rng = np.random.default_rng(661)
    for _ in range(60):
        n = int(rng.integers(1, 300))
        lam = float(rng.uniform(0.01, 8.0))
        eps = float(rng.uniform(0.05, 0.9))
        mu = n * lam
        lower_exact = interval_prob(0, math.floor(mu * (1.0 - eps)), mu)
        k0 = math.ceil(mu * (1.0 + eps))
        k_hi = math.ceil(mu + 40.0 * math.sqrt(mu + 1.0)) + k0
        upper_exact = interval_prob(k0, k_hi, mu)
        bounds = tail_bounds(n, lam, eps)
        assert lower_exact <= bounds.lower + 1e-12
        assert upper_exact <= bounds.upper + 1e-12


def test_threshold_is_infinite_when_the_margin_underflows():
    # (2 ln 2 - 1) n eps_r^2 underflows to 0: no finite rate is certified
    assert lambda_threshold(1, 1e-200, 0.1) == math.inf
    assert lambda_threshold(10**6, 1e-170, 0.1) == math.inf
    assert lambda_threshold(1, 1e-150, 0.1) == pytest.approx(
        math.log(20.0) / (TWO_LN2_MINUS_1 * 1e-300), rel=1e-15)


def test_threshold_scales_inversely_with_n_and_eps_squared():
    t = lambda_threshold(50, 0.2, 0.1)
    assert lambda_threshold(100, 0.2, 0.1) == pytest.approx(t / 2.0, rel=1e-12)
    assert lambda_threshold(50, 0.4, 0.1) == pytest.approx(t / 4.0, rel=1e-12)
    # a smaller risk budget pushes the threshold up
    assert lambda_threshold(50, 0.2, 0.01) > t


def test_threshold_certifies_coverage_above_it():
    rng = np.random.default_rng(662)
    for _ in range(20):
        n = int(rng.integers(1, 300))
        eps = float(rng.uniform(0.1, 0.9))
        delta = float(rng.uniform(0.05, 0.5))
        lam = 1.001 * lambda_threshold(n, eps, delta)
        cov = coverage_at(Relative(eps), n, lam).coverage
        assert cov > 1.0 - delta, (n, eps, delta, lam, cov)


def test_argument_validation():
    with pytest.raises(ValueError):
        tail_bounds(0, 1.0, 0.5)
    with pytest.raises(ValueError):
        tail_bounds(5, -1.0, 0.5)
    with pytest.raises(ValueError):
        tail_bounds(5, 1.0, 0.0)
    with pytest.raises(ValueError):
        tail_bounds(5, 1.0, 1.0)
    with pytest.raises(ValueError):
        lambda_threshold(0, 0.5, 0.1)
    with pytest.raises(ValueError):
        lambda_threshold(5, 0.5, 0.0)
    with pytest.raises(ValueError):
        lambda_threshold(5, 1.5, 0.1)
