"""Worst-case coverage over an interval via the candidate set."""

import numpy as np
import pytest

from poisson_ss import (
    Absolute,
    CandidatePoint,
    Mixed,
    ParamInterval,
    Relative,
    candidate_set,
    grid_min_coverage,
    min_coverage,
    scan_min_coverage,
)
from poisson_ss import candidates


def test_empty_window_spike_is_found():
    # at lam = 0.5 with n = 1 and margin 0.5 no count satisfies the strict
    # error event: the window is the one-point intersection [1, 0]
    result = min_coverage(Absolute(0.5), 1, ParamInterval(0.0, 1.0))
    assert result.lam == 0.5
    assert result.coverage == 0.0
    assert result.g > result.h


def test_tie_on_coverage_goes_to_smaller_rate():
    # both 0.25 and 0.75 have empty windows (coverage 0); the scan must
    # report the smaller rate
    result = min_coverage(Absolute(0.25), 2, ParamInterval(0.0, 1.0))
    assert result.coverage == 0.0
    assert result.lam == 0.25


def test_pinned_relative_minimum():
    result = min_coverage(Relative(0.5), 40, ParamInterval(0.5, 3.0))
    assert result.lam == 0.5
    assert (result.g, result.h) == (11, 29)
    assert result.coverage == pytest.approx(0.9673700636477899, rel=1e-13)


def test_minimum_never_above_dense_grid():
    rng = np.random.default_rng(2024)
    for _ in range(12):
        kind = rng.choice(["abs", "rel", "mix"])
        n = int(rng.integers(1, 60))
        if kind == "abs":
            crit = Absolute(float(rng.uniform(0.1, 0.8)))
            a = float(rng.uniform(0.0, 2.0))
        elif kind == "rel":
            crit = Relative(float(rng.uniform(0.1, 0.8)))
            a = float(rng.uniform(0.05, 2.0))
        else:
            crit = Mixed(float(rng.uniform(0.1, 0.8)), float(rng.uniform(0.1, 0.8)))
            a = float(rng.uniform(0.05, 2.0))
        interval = ParamInterval(a, a + float(rng.uniform(0.1, 2.0)))
        cand = min_coverage(crit, n, interval)
        grid = grid_min_coverage(crit, n, interval, points=801)
        assert cand.coverage <= grid.coverage + 1e-12


def test_minimum_monotone_under_interval_growth():
    crit = Relative(0.3)
    n = 25
    inner = min_coverage(crit, n, ParamInterval(0.8, 1.6))
    outer = min_coverage(crit, n, ParamInterval(0.5, 2.5))
    assert outer.coverage <= inner.coverage + 1e-15


def test_min_coverage_is_deterministic():
    crit = Mixed(0.28, 0.37)
    interval = ParamInterval(0.2, 2.2)
    first = min_coverage(crit, 23, interval)
    second = min_coverage(crit, 23, interval)
    assert first == second


def test_scan_counts_every_candidate_without_threshold():
    crit = Absolute(0.2)
    interval = ParamInterval(0.0, 1.5)
    n = 11
    result, count = scan_min_coverage(crit, n, interval)
    assert count == len(candidate_set(crit, n, interval))
    assert result == min_coverage(crit, n, interval)


def test_scan_stops_early_at_failing_threshold():
    crit = Absolute(0.2)
    interval = ParamInterval(0.0, 1.5)
    n = 11
    # every coverage value is <= 1, so the very first candidate ends the scan
    witness, count = scan_min_coverage(crit, n, interval, fail_fast_threshold=1.0)
    assert count == 1
    assert witness.lam == interval.a
    # an unreachable threshold scans everything and returns the true minimum
    full, count_full = scan_min_coverage(crit, n, interval, fail_fast_threshold=-1.0)
    assert count_full == len(candidate_set(crit, n, interval))
    assert full == min_coverage(crit, n, interval)


def test_early_stop_witness_is_below_threshold():
    crit = Relative(0.2)
    interval = ParamInterval(0.5, 2.0)
    threshold = 0.9
    witness, _ = scan_min_coverage(crit, 30, interval, fail_fast_threshold=threshold)
    exhaustive = min_coverage(crit, 30, interval)
    if exhaustive.coverage <= threshold:
        assert witness.coverage <= threshold
    else:
        assert witness == exhaustive


def test_fail_fast_scan_builds_only_what_it_evaluates(monkeypatch):
    # [0.5, 1e6] holds about 2e6 candidates at n = 1, and the window at
    # rate 0.5 is empty, so the first candidate already fails
    built = []

    def counting_point(*args):
        built.append(args)
        return CandidatePoint(*args)

    monkeypatch.setattr(candidates, "CandidatePoint", counting_point)
    witness, count = scan_min_coverage(
        Relative(0.1), 1, ParamInterval(0.5, 1e6), fail_fast_threshold=0.9)
    assert count == 1
    assert witness.lam == 0.5
    assert witness.coverage == 0.0
    assert len(built) <= 2
