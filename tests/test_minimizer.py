"""Worst-case coverage over an interval via the candidate set."""

import sys
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_ss import (
    Absolute,
    Mixed,
    ParamInterval,
    Relative,
    candidate_set,
    candidate_stream,
    grid_min_coverage,
    min_coverage,
    scan_min_coverage,
)
from poisson_ss import candidates, kernel, minimizer
from poisson_ss.candidates import DEDUP_REL_TOL, _layout, _point_arrays, _point_tuples
from poisson_ss.coverage import _window, _windows
from poisson_ss.minimizer import _BLOCK, _PREFIX

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from exact_reference import reference_coverage_at_point, reference_scan  # noqa: E402


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
    grouped = candidates._points

    def counting_points(*args):
        for point in grouped(*args):
            built.append(point)
            yield point

    monkeypatch.setattr(candidates, "_points", counting_points)
    witness, count = scan_min_coverage(
        Relative(0.1), 1, ParamInterval(0.5, 1e6), fail_fast_threshold=0.9)
    assert count == 1
    assert witness.lam == 0.5
    assert witness.coverage == 0.0
    assert len(built) == 1


# Round margins put n * eps, 2 n eps and the crossover on lattice values, so
# families collide with each other, with the endpoints and the crossover.
_margins = st.sampled_from([0.1, 0.125, 0.2, 0.25, 0.5]) | st.floats(0.05, 0.9)


@st.composite
def _tagged_a(draw, crit, n, width):
    """A breakpoint of crit, or 0.9 merge tolerances of [a, a + width] off
    it on the side where the point a, which then carries its tag, has a
    different float window: below a jump in g, above a jump in h."""
    if isinstance(crit, Mixed):
        crit = draw(st.sampled_from([Absolute(crit.eps_a), Relative(crit.eps_r)]))
    sign = draw(st.sampled_from([1.0, -1.0]))
    ell = draw(st.integers(0, 3 * n))
    if isinstance(crit, Absolute):
        bp, sets_g = ell / n + sign * crit.eps, sign > 0
    else:
        bp, sets_g = ell / (n * (1.0 + sign * crit.eps)), sign < 0
    off = draw(st.sampled_from([0.0, 0.9, 0.9])) * DEDUP_REL_TOL * max(1.0, bp + width)
    return max(0.0, bp - off if sets_g else bp + off)


def _block_rows() -> list[int]:
    """0-based rows of the scan where the path changes: the last probed row,
    then the first, a middle and the last row of the first three blocks of
    _BLOCK rows past the probe."""
    rows = [_PREFIX - 1]
    for start in range(_PREFIX, _PREFIX + 3 * _BLOCK, _BLOCK):
        rows += [start, start + _BLOCK // 2, start + _BLOCK - 1]
    return rows


@st.composite
def _scans(draw):
    kind = draw(st.sampled_from(["abs", "rel", "mix", "cx"]))
    # a large n crosses the scalar probe into two or more blocks
    n = draw(st.integers(1, 40) | st.integers(100, 400))
    if kind == "abs":
        crit = Absolute(draw(_margins))
    elif kind == "rel":
        crit = Relative(draw(_margins))
    elif kind == "mix":
        crit = Mixed(draw(_margins), draw(_margins))
    else:
        # crossover 0.5 on a breakpoint of all four families
        crit = Mixed(*draw(st.sampled_from([(0.25, 0.5), (0.1, 0.2)])))
        n = 20 * draw(st.integers(1, 2))
    width = draw(st.sampled_from([0.0, 0.5 * DEDUP_REL_TOL, 0.5, 1.0, 2.0])
                 | st.floats(1e-13, 3.0))
    width = min(width, 600.0 / n)  # at most ~1 200 candidates
    if draw(st.booleans()):
        a = draw(_tagged_a(crit, n, width))
    else:
        a = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 3.0))
    # None scans everything; "min" stops exactly at the minimum (a tie),
    # "first" exactly at the point a and ("row", k) at or before row k
    threshold = draw(st.sampled_from([None, "min", "first", "float", "row"]))
    if threshold == "float":
        threshold = draw(st.floats(0.0, 1.0))
    elif threshold == "row":
        threshold = ("row", draw(st.sampled_from(_block_rows()) | st.integers(0, 1200)))
    return crit, n, ParamInterval(a, a + width), threshold


def _coverages(crit, n, interval):
    return [reference_coverage_at_point(crit, n, point).coverage
            for point in candidate_stream(crit, n, interval)]


def _assert_scan_matches_reference(crit, n, interval, threshold):
    if threshold == "min":
        threshold = reference_scan(crit, n, interval)[0].coverage
    elif threshold == "first":
        threshold = reference_scan(crit, n, interval, 1.0)[0].coverage
    elif isinstance(threshold, tuple):
        covs = _coverages(crit, n, interval)
        threshold = covs[min(threshold[1], len(covs) - 1)]
    got, got_count = scan_min_coverage(crit, n, interval, threshold)
    want, want_count = reference_scan(crit, n, interval, threshold)
    assert (got.lam.hex(), got.g, got.h, got.coverage.hex(), got_count) == (
        want.lam.hex(), want.g, want.h, want.coverage.hex(), want_count)


@settings(max_examples=200, deadline=None)
@given(_scans())
def test_scan_matches_the_per_point_reference_bit_for_bit(config):
    _assert_scan_matches_reference(*config)


# Chunks of 7 and 64 points cut the scans above into many chunks, so
# merge groups, blocks and fail-fast stops fall on every side of a cut.
_SMALL_CHUNKS = st.sampled_from([7, 64])


@settings(max_examples=200, deadline=None)
@given(_scans(), _SMALL_CHUNKS)
def test_scan_across_chunks_matches_the_per_point_reference(config, chunk):
    with mock.patch.object(candidates, "_CHUNK", chunk):
        _assert_scan_matches_reference(*config)


def _array_rows(crit, n, interval):
    """(value hex, g, h) of each point, from the array layout."""
    rows = []
    for values, g_ell, h_ell in _point_arrays(_layout(crit, n, interval)):
        assert values.size  # the scan takes each chunk's minimum
        g, h = _windows(crit, n, values, g_ell, h_ell)
        rows += zip([v.hex() for v in values.tolist()], g.tolist(), h.tolist())
    return rows


def _tuple_rows(crit, n, interval):
    """The same rows from the lazy layout and the scalar window."""
    return [(value.hex(), *_window(crit, n, value, ((kind, ell),) + extra_tags))
            for value, kind, ell, extra_tags in _point_tuples(_layout(crit, n, interval))]


@settings(max_examples=300, deadline=None)
@given(_scans(), _SMALL_CHUNKS | st.just(candidates._CHUNK))
def test_array_layout_matches_the_lazy_stream_row_for_row(config, chunk):
    crit, n, interval, _ = config
    want = _tuple_rows(crit, n, interval)
    with mock.patch.object(candidates, "_CHUNK", chunk):
        assert _array_rows(crit, n, interval) == want


def test_merge_group_straddling_a_chunk_cut():
    # eps = 0.1 + tol / 4 puts each abs_minus point tol / 2 below an
    # abs_plus point, one merge group; the first chunk, 7 / (2 n) wide,
    # ends between the two members of the group at 0.5
    n, tol, chunk = 100, DEDUP_REL_TOL, 7
    crit = Absolute(0.1 + tol / 4)
    interval = ParamInterval(0.5 - chunk / (2 * n), 0.9)
    end = interval.a + chunk / (2 * n)
    assert 60 / n - crit.eps < end < 40 / n + crit.eps
    with mock.patch.object(candidates, "_CHUNK", chunk):
        chunks = list(_point_arrays(_layout(crit, n, interval)))
        # the group is held back whole and heads the second chunk
        assert len(chunks) > 1
        assert chunks[0][0][-1] < 0.5 - tol / 8 and chunks[1][0][0] > 0.5 - tol / 2
        assert _array_rows(crit, n, interval) == _tuple_rows(crit, n, interval)
        for threshold in (None, "min", ("row", 4), ("row", 5)):
            _assert_scan_matches_reference(crit, n, interval, threshold)


@pytest.mark.parametrize("chunk", [7, 64])
def test_fail_fast_stop_on_a_chunk_edge_row(chunk):
    # Absolute coverage falls as the rate grows, so many chunk edge rows are
    # new minima; a threshold at the coverage of one must stop the scan on it.
    crit, n, interval = Absolute(0.1), 400, ParamInterval(0.0, 1.6)
    covs = _coverages(crit, n, interval)
    with mock.patch.object(candidates, "_CHUNK", chunk):
        sizes = [values.size for values, _, _ in _point_arrays(_layout(crit, n, interval))]
        firsts = np.cumsum([0] + sizes[:-1])
        edges = {"first": firsts, "last": firsts + sizes - 1}
        for side, rows in edges.items():
            rows = [int(r) for r in rows if r >= _PREFIX and covs[r] < min(covs[:r])]
            assert len(rows) >= 3, side
            for row in rows[:3]:
                witness, count = scan_min_coverage(crit, n, interval, covs[row])
                assert count == row + 1
                assert (witness, count) == reference_scan(crit, n, interval, covs[row])


def test_fail_fast_scan_past_the_prefix_builds_one_chunk(monkeypatch):
    # [5, 1e6] holds about 2e6 candidates at n = 1; the first rows below the
    # threshold lie past the scalar probe, in the first block
    crit, n, interval = Relative(0.1), 1, ParamInterval(5.0, 1e6)
    head = list(islice(candidate_stream(crit, n, interval), _PREFIX + _BLOCK))
    covs = [reference_coverage_at_point(crit, n, point).coverage for point in head]
    threshold = min(covs[_PREFIX:])
    assert min(covs[:_PREFIX]) > threshold
    built = []
    arrays = minimizer._point_arrays

    def counting_arrays(layout):
        for chunk in arrays(layout):
            built.append(chunk[0].size)
            yield chunk

    monkeypatch.setattr(minimizer, "_point_arrays", counting_arrays)
    witness, count = scan_min_coverage(crit, n, interval, threshold)
    assert _PREFIX < count <= _PREFIX + _BLOCK
    assert witness.coverage == threshold
    assert len(built) == 1 and built[0] <= candidates._CHUNK + 16


@pytest.mark.parametrize("row", _block_rows())
def test_fail_fast_stop_on_a_block_edge_row(row):
    # Absolute coverage falls as the rate grows, so new minima are common.
    # Start the interval at a candidate so that the first new minimum at or
    # after `row` moves onto `row` itself; a threshold at its coverage must
    # then stop the scan there.
    crit, n, b = Absolute(0.1), 400, 1.6
    full = list(candidate_stream(crit, n, ParamInterval(0.0, b)))
    covs = _coverages(crit, n, ParamInterval(0.0, b))
    low = min(covs[:row])
    q = next(i for i in range(row, len(covs)) if covs[i] < low)
    interval = ParamInterval(full[q - row].value, b)
    witness, count = scan_min_coverage(crit, n, interval, covs[q])
    assert count == row + 1
    assert witness.lam == full[q].value
    assert witness.coverage == covs[q]
    assert (witness, count) == reference_scan(crit, n, interval, covs[q])


def test_fail_fast_scan_sums_only_rows_its_floors_cannot_decide(monkeypatch):
    # n = 1900 fails first at position 9 350 of its 9 501 candidates on
    # [0, 5], in the third chunk; the coverage floors prove most rows before
    # it safe, and the chunks before the witness's need no minimum
    crit, n, interval, threshold = Absolute(0.1), 1900, ParamInterval(0.0, 5.0), 0.95
    summed = []
    kernel_sum = minimizer.interval_probs

    def counting_sum(g, h, mu):
        summed.append(len(mu))
        return kernel_sum(g, h, mu)

    monkeypatch.setattr(minimizer, "interval_probs", counting_sum)
    witness, count = scan_min_coverage(crit, n, interval, threshold)
    assert count == 9350
    assert sum(summed) < 0.15 * count
    assert (witness, count) == reference_scan(crit, n, interval, threshold)


@settings(max_examples=50, deadline=None)
@given(
    cuts=st.lists(st.integers(1, 1_200), max_size=6),
    seed=st.integers(0, 2**32 - 1),
    quantile=st.floats(0.0, 0.6),
    size=st.sampled_from([1, 3, 64]),
)
def test_first_failures_of_segments_match_a_plain_search(cuts, seed, quantile, size):
    # the fail-fast pass over segments of rows, in rounds of `size` rows a
    # segment, against a plain search of each segment for its first
    # failure, up to the first segment without one.  The rows of a layout
    # are shuffled, so that failures are spread over every segment.
    crit, n, interval = Absolute(0.1), 400, ParamInterval(0.0, 1.6)
    lams, gs, hs = (np.concatenate(column) for column in zip(
        *minimizer._chunk_windows(crit, n, _point_arrays(_layout(crit, n, interval)))))
    order = np.random.default_rng(seed).permutation(lams.size)
    lams, gs, hs = lams[order], gs[order], hs[order]
    covs = kernel.interval_probs(gs, hs, n * lams)
    threshold = float(np.quantile(covs, quantile, method="lower"))
    bounds = sorted({0, lams.size, *(cut % lams.size for cut in cuts)})
    chunk = minimizer._floored(lams, gs, hs, n * lams)
    with mock.patch.object(minimizer, "_BLOCK", size):
        hits = minimizer._first_fails(chunk, bounds, threshold)
    want = []
    for lo, hi in zip(bounds, bounds[1:]):
        fails = np.flatnonzero(covs[lo:hi] <= threshold)
        if not fails.size:
            break
        want.append(lo + int(fails[0]))
    assert hits == want
    summed = chunk[5] != np.inf
    assert (chunk[5][summed] == covs[summed]).all()


def test_fail_fast_stop_on_a_row_whose_floor_rounds_above_its_coverage():
    # Near coverage 1 a floor can round a few 1e-15 above the kernel's
    # value; the margin must still send such a row to the kernel, or a
    # threshold at its coverage would stop the scan later.
    crit, n, interval = Absolute(0.1), 400, ParamInterval(0.0, 1.6)
    covs = _coverages(crit, n, interval)
    lams, gs, hs = (np.concatenate(column) for column in zip(
        *minimizer._chunk_windows(crit, n, _point_arrays(_layout(crit, n, interval)))))
    floors = kernel._floors(gs, hs, n * lams)
    rows = [r for r in range(_PREFIX, len(covs))
            if covs[r] < min(covs[:r]) and floors[r] > covs[r]]
    assert rows
    for row in rows:
        witness, count = scan_min_coverage(crit, n, interval, covs[row])
        assert count == row + 1
        assert (witness, count) == reference_scan(crit, n, interval, covs[row])
