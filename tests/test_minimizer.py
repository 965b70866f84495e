"""Worst-case coverage over an interval via the candidate set."""

import sys
import tracemalloc
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from poisson_ss import candidates, coverage, kernel, minimizer, search
from poisson_ss.candidates import DEDUP_REL_TOL, _layout, _point_arrays
from poisson_ss.coverage import _coverage, _windows
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
    # rate 0.5 is empty, so the first candidate already fails: the probe
    # builds a's group, the span below a + tol, and no point past it
    interval = ParamInterval(0.5, 1e6)
    tol = DEDUP_REL_TOL * interval.b
    spans, built = [], []
    span_points = minimizer._span_points

    def counting_span_points(layout, start, end):
        points = span_points(layout, start, end)
        spans.append((start, end))
        built.extend(points)
        return points

    monkeypatch.setattr(minimizer, "_span_points", counting_span_points)
    monkeypatch.setattr(minimizer, "_point_rows", lambda pieces: pytest.fail("arrays built"))
    witness, count = scan_min_coverage(Relative(0.1), 1, interval, fail_fast_threshold=0.9)
    assert count == 1
    assert witness.lam == 0.5
    assert witness.coverage == 0.0
    assert spans == [(-np.inf, 0.5 + tol)]
    assert [point[0] for point in built] == [0.5]


def test_stream_builds_one_span_for_its_first_point(monkeypatch):
    # [0.5, 1e6] holds about 2e6 candidates at n = 1; the first point of
    # the stream builds only the first span, about a chunk of points
    spans, built = [], []
    span_points = candidates._span_points

    def counting_span_points(layout, start, end):
        points = span_points(layout, start, end)
        spans.append((start, end))
        built.extend(points)
        return points

    monkeypatch.setattr(candidates, "_span_points", counting_span_points)
    first = next(candidate_stream(Relative(0.1), 1, ParamInterval(0.5, 1e6)))
    assert first.value == 0.5
    assert len(spans) == 1
    assert len(built) <= candidates._CHUNK + 16


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


@pytest.mark.seeded
@settings(max_examples=200, deadline=None)
@given(_scans())
def test_scan_matches_the_per_point_reference_bit_for_bit(config):
    _assert_scan_matches_reference(*config)


# Chunks of 7 and 64 points cut the scans above into many chunks, so
# merge groups, blocks and fail-fast stops fall on every side of a cut.
_SMALL_CHUNKS = st.sampled_from([7, 64])


@pytest.mark.seeded
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
    """The same rows from the stream and the scalar window."""
    return [(p.value.hex(), *_coverage(crit, n, p.value, ((p.kind, p.ell),) + p.extra_tags)[:2])
            for p in candidate_stream(crit, n, interval)]


@st.composite
def _runs(draw):
    """A criterion and the (n, interval) of each n of a run of consecutive
    n on [a, b_n].  Relative runs truncate b_n per n as the search does;
    Absolute runs may give each n its own b_n, so merge tolerances differ,
    and put a within 0.9 tolerances of one n's breakpoint; Mixed runs hold
    the crossover.  A margin of 0.5 merges every breakpoint (2 n eps is an
    integer), and up to two n may be slivers."""
    kind = draw(st.sampled_from(["abs", "rel", "mix"]))
    eps = 0.5 if draw(st.booleans()) else draw(_margins)
    start, k = draw(st.integers(1, 300)), draw(st.integers(2, 6))
    if kind == "abs":
        crit = Absolute(eps)
        widths = [min(draw(st.sampled_from([0.05, 0.5, 1.0, 2.0]) | st.floats(0.05, 2.0)),
                      600.0 / (start + k)) for _ in range(k)]
        if draw(st.booleans()):
            widths = [widths[0]] * k
        if draw(st.booleans()):
            s = draw(st.integers(0, k - 1))
            a = draw(_tagged_a(crit, start + s, widths[s]))
        else:
            a = draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 2.0))
        bs = [a + width for width in widths]
    elif kind == "rel":
        crit, delta = Relative(eps), draw(st.floats(0.02, 0.4))
        a = draw(st.floats(0.2, 2.0))
        wide = ParamInterval(a, a + min(draw(st.floats(0.05, 50.0)), 600.0 / (start + k)))
        bs = [search._scan_b(crit, wide, delta, n) for n in range(start, start + k)]
        assume(min(bs) > a)
    else:
        crit = Mixed(eps, draw(_margins))
        a = crit.crossover * draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.9))
        b = crit.crossover * draw(st.floats(1.1, 3.0))
        assume(b - a <= 600.0 / (start + k))
        bs = [b] * k
    for s in draw(st.sets(st.integers(0, k - 1), max_size=2)):
        bs[s] = a + 0.5 * DEDUP_REL_TOL * max(1.0, a)
    return crit, [(n, ParamInterval(a, b)) for n, b in zip(range(start, start + k), bs)]


# a lies 0.9 tolerances of n = 101's [a, a + 2] below one of its
# breakpoints, more than the tolerance of n = 100's [a, a + 0.5]
_A = 50 / 101 + 0.1 - 0.9 * DEDUP_REL_TOL * (50 / 101 + 2.1)


@pytest.mark.seeded
@settings(max_examples=200, deadline=None)
@given(_runs(), _SMALL_CHUNKS | st.just(candidates._CHUNK))
@example((Absolute(0.1), [(100, ParamInterval(_A, _A + 0.5)), (101, ParamInterval(_A, _A + 2.0))]),
         candidates._CHUNK)
def test_run_build_matches_per_n_builds_row_for_row(run, chunk):
    # one `_point_rows` call over every n's whole layout, then one
    # `_windows` call with one n per row, against each n built alone a
    # chunk at a time (several chunks with `chunk` points) and windowed
    # with its own n
    crit, ns = run
    layouts = [_layout(crit, n, interval) for n, interval in ns]
    lams, g_ell, h_ell, sizes = candidates._point_rows(
        [(layout, -np.inf, np.inf) for layout in layouts])
    gs, hs = _windows(crit, np.repeat([n for n, _ in ns], sizes), lams, g_ell, h_ell)
    rows = list(zip([v.hex() for v in lams.tolist()], gs.tolist(), hs.tolist()))
    with mock.patch.object(candidates, "_CHUNK", chunk):
        want = [_array_rows(crit, n, interval) for n, interval in ns]
    assert sizes.tolist() == [len(rows_of_n) for rows_of_n in want]
    assert rows == [row for rows_of_n in want for row in rows_of_n]


@pytest.mark.parametrize("crit", [Absolute(0.5), Relative(0.5), Mixed(0.5, 0.5)])
def test_array_layout_keeps_a_negative_zero_endpoint(crit):
    # a = -0.0 is a float the interval may hold; its point keeps the sign
    for b in (-0.0, 0.0, 0.5):
        interval = ParamInterval(-0.0, b)
        assert _array_rows(crit, 3, interval) == _tuple_rows(crit, 3, interval)
        if b == 0.0:  # a tie at one rate goes to the first point, a
            assert min_coverage(crit, 3, interval).lam.hex() == "-0x0.0p+0"
    run = candidates._point_rows([(_layout(crit, n, ParamInterval(-0.0, 0.5)), -np.inf, np.inf)
                                  for n in (3, 4)])
    assert [v.hex() for v in run[0][run[0] == 0.0].tolist()] == ["-0x0.0p+0"] * 2


@pytest.mark.parametrize("side", [1, -1])
def test_merge_group_straddling_a_chunk_cut(side):
    # eps = 0.1 + side * tol / 4 puts an abs_plus and an abs_minus point at
    # 0.5 -+ tol / 4, one merge group whose point takes the abs_plus value;
    # the first chunk, 7 / (2 n) wide, ends at 0.5, between the two members
    n, tol, chunk = 100, DEDUP_REL_TOL, 7
    crit = Absolute(0.1 + side * tol / 4)
    interval = ParamInterval(0.5 - chunk / (2 * n), 0.9)
    end = interval.a + chunk / (2 * n)
    plus, minus = 40 / n + crit.eps, 60 / n - crit.eps  # the group's members
    assert min(plus, minus) < end < max(plus, minus)
    with mock.patch.object(candidates, "_CHUNK", chunk):
        chunks = list(_point_arrays(_layout(crit, n, interval)))
        # the group goes whole, both tags on its one row, to the chunk whose
        # span holds its point, and no row of it comes again in the other
        assert len(chunks) > 1
        (values, g_ell, h_ell), (after, _, _) = chunks[0], chunks[1]
        if side < 0:
            assert values[-1] == plus and after[0] > 0.5 + tol
            assert (g_ell[-1], h_ell[-1]) == (40, 60)
        else:
            assert values[-1] < 0.5 - tol and after[0] == plus
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


@pytest.mark.parametrize("b", [1e6, 1e10])
def test_fail_fast_scan_past_the_prefix_builds_one_chunk(monkeypatch, b):
    # [5, b] holds about 2 b candidates at n = 1, in about b / 4096 spans;
    # the first rows below the threshold lie past the scalar probe, in the
    # first block.  The spans come one at a time: a list of 2.4e6 cuts for
    # b = 1e10 alone would pass the memory bound.
    crit, n, interval = Relative(0.1), 1, ParamInterval(5.0, b)
    head = list(islice(candidate_stream(crit, n, interval), _PREFIX + _BLOCK))
    covs = [reference_coverage_at_point(crit, n, point).coverage for point in head]
    threshold = min(covs[_PREFIX:])
    assert min(covs[:_PREFIX]) > threshold
    built = []
    rows = minimizer._point_rows

    def counting_rows(pieces):
        values, g_ell, h_ell, sizes = rows(pieces)
        built.append(values.size)
        return values, g_ell, h_ell, sizes

    monkeypatch.setattr(minimizer, "_point_rows", counting_rows)
    tracemalloc.start()
    try:
        witness, count = scan_min_coverage(crit, n, interval, threshold)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
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


def _summed_rows(monkeypatch):
    """The row count of each kernel call the minimizer makes from now on."""
    summed = []
    kernel_sum = minimizer.interval_probs

    def counting_sum(g, h, mu):
        summed.append(len(mu))
        return kernel_sum(g, h, mu)

    monkeypatch.setattr(minimizer, "interval_probs", counting_sum)
    return summed


def test_fail_fast_scan_sums_only_rows_its_floors_cannot_decide(monkeypatch):
    # n = 1900 fails first at position 9 350 of its 9 501 candidates on
    # [0, 5], in the third chunk; the coverage floors and brackets prove
    # most rows before it safe, a ceiling shows a failure soon after it,
    # and the chunks before the witness's need no minimum
    crit, n, interval, threshold = Absolute(0.1), 1900, ParamInterval(0.0, 5.0), 0.95
    summed = _summed_rows(monkeypatch)
    witness, count = scan_min_coverage(crit, n, interval, threshold)
    assert count == 9350
    assert sum(summed) < 0.015 * count
    assert (witness, count) == reference_scan(crit, n, interval, threshold)


def test_full_scan_sums_only_rows_its_brackets_cannot_decide(monkeypatch):
    # n = 1926 on [0, 5] has 19 262 candidates and its minimum at b; the
    # first block of each chunk and the least ceiling of the rows it leaves
    # in doubt bound the minimum, so every row whose floor lies above that
    # bound is left out
    crit, n, interval = Absolute(0.1), 1926, ParamInterval(0.0, 5.0)
    lams, _, _, covs = (np.concatenate(column) for column in zip(
        *coverage._blocks(crit, n, _point_arrays(_layout(crit, n, interval)))))
    summed = _summed_rows(monkeypatch)
    result, count = scan_min_coverage(crit, n, interval)
    i = int(covs.argmin())  # ties to the smallest rate
    assert count == covs.size == 19262
    assert (result.lam, result.coverage) == (lams[i], covs[i]) == (5.0, 0.9501976930487426)
    assert sum(summed) < 0.015 * count


@pytest.mark.seeded
@settings(max_examples=50, deadline=None)
@given(
    cuts=st.lists(st.integers(1, 1_200), max_size=6),
    seed=st.integers(0, 2**32 - 1),
    quantile=st.floats(0.0, 0.6),
    size=st.sampled_from([1, 3, 64]),
    closed=st.lists(st.booleans(), min_size=7, max_size=7),
    bracketed=st.booleans(),
)
def test_first_failures_of_segments_match_a_plain_search(
        cuts, seed, quantile, size, closed, bracketed):
    # the fail-fast pass over segments of rows, in rounds of `size` rows a
    # segment, against a plain search of each segment for its first
    # failure, -1 for an open one without, up to the first closed segment
    # without one.  The rows of a layout are shuffled, so that failures
    # are spread over every segment; with the gate at 0 every call refines
    # its rows in doubt with the brackets, with it past the row count none.
    crit, n, interval = Absolute(0.1), 400, ParamInterval(0.0, 1.6)
    columns = [np.concatenate(column) for column in zip(
        *minimizer._chunks(crit, n, _layout(crit, n, interval)))]
    order = np.random.default_rng(seed).permutation(columns[0].size)
    chunk = tuple(column[order] for column in columns)
    lams, gs, hs, mus = chunk[:4]
    covs = kernel.interval_probs(gs, hs, mus)
    threshold = float(np.quantile(covs, quantile, method="lower"))
    bounds = sorted({0, lams.size, *(cut % lams.size for cut in cuts)})
    gate = 0 if bracketed else lams.size + 1
    with mock.patch.object(minimizer, "_BLOCK", size), \
            mock.patch.object(minimizer, "_BRACKET_ROWS", gate):
        hits = minimizer._first_fails(chunk, bounds, threshold, closed[:len(bounds) - 1])
    want = []
    for lo, hi, shut in zip(bounds, bounds[1:], closed):
        fails = np.flatnonzero(covs[lo:hi] <= threshold)
        if not fails.size and shut:
            break
        want.append(lo + int(fails[0]) if fails.size else -1)
    assert hits == want
    summed = chunk[5] != np.inf
    assert (chunk[5][summed] == covs[summed]).all()
    # the floors written back are still floors
    assert (chunk[4] <= covs + 1e-12).all()


def test_fail_fast_stop_on_a_row_whose_floor_rounds_above_its_coverage():
    # Near coverage 1 a floor can round a few 1e-15 above the kernel's
    # value; the margin must still send such a row to the kernel, or a
    # threshold at its coverage would stop the scan later.
    crit, n, interval = Absolute(0.1), 400, ParamInterval(0.0, 1.6)
    covs = _coverages(crit, n, interval)
    _, _, _, _, floors, _ = (np.concatenate(column) for column in zip(
        *minimizer._chunks(crit, n, _layout(crit, n, interval))))
    rows = [r for r in range(_PREFIX, len(covs))
            if covs[r] < min(covs[:r]) and floors[r] > covs[r]]
    assert rows
    for row in rows:
        witness, count = scan_min_coverage(crit, n, interval, covs[row])
        assert count == row + 1
        assert (witness, count) == reference_scan(crit, n, interval, covs[row])
