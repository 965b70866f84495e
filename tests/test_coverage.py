"""Acceptance windows and pointwise coverage."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_ss import (
    Absolute,
    AcceptanceBounds,
    CandidateKind,
    CandidatePoint,
    MarginTooNarrow,
    Mixed,
    ParamInterval,
    Relative,
    acceptance_bounds,
    brute_force_coverage,
    candidate_set,
    candidate_stream,
    coverage_at,
    coverage_at_point,
    interval_prob,
    min_coverage,
)
from poisson_ss.coverage import _UNPINNED, _coverage, _windows

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from exact_reference import reference_coverage_at_point, reference_window  # noqa: E402


# hand-derived windows: (criterion, n, lam) -> (g, h)
WINDOW_FIXTURES = [
    (Absolute(0.1), 10, 0.5, 5, 5),        # n(lam-eps)=4, n(lam+eps)=6
    (Absolute(0.9), 1, 0.05, 0, 0),        # lam-eps<0 clamps g to 0
    (Absolute(0.25), 8, 1.0, 7, 9),        # 8*0.75=6 -> g=7, 8*1.25=10 -> h=9
    (Relative(0.5), 20, 1.0, 11, 29),      # 20*0.5=10 -> g=11, 20*1.5=30 -> h=29
    (Relative(0.2), 10, 1.5, 13, 17),      # 12 -> g=13, 18 -> h=17
    (Mixed(0.3, 0.2), 10, 1.0, 8, 12),     # below crossover 1.5: absolute window
    (Mixed(0.3, 0.2), 10, 2.0, 17, 23),    # above crossover: relative window
]


@pytest.mark.parametrize("criterion,n,lam,g,h", WINDOW_FIXTURES)
def test_acceptance_bounds_fixtures(criterion, n, lam, g, h):
    assert acceptance_bounds(criterion, n, lam) == AcceptanceBounds(g, h)


def test_acceptance_bounds_rejects_bad_arguments():
    with pytest.raises(ValueError):
        acceptance_bounds(Absolute(0.1), 0, 1.0)
    with pytest.raises(ValueError):
        acceptance_bounds(Absolute(0.1), 5, -0.2)
    with pytest.raises(TypeError):
        acceptance_bounds(object(), 5, 1.0)


@pytest.mark.parametrize("criterion", [Absolute(0.1), Relative(0.1), Mixed(0.1, 0.1)])
def test_acceptance_bounds_rejects_an_overflowing_window(criterion):
    # n * (rate + margin) is inf at n = 2, rate 1e308; at n = 1 it is finite
    with pytest.raises(ValueError, match="not finite"):
        acceptance_bounds(criterion, 2, 1e308)
    with pytest.raises(ValueError, match="not finite"):
        coverage_at(criterion, 2, 1e308)
    assert isinstance(acceptance_bounds(criterion, 1, 1e307), AcceptanceBounds)


@pytest.mark.parametrize("criterion", [Absolute(0.1), Relative(0.1), Mixed(0.1, 0.1)])
@pytest.mark.parametrize("lams, message", [
    ([0.5, -1.0, 1e308], "rate must be nonnegative, got -1.0"),
    ([0.5, 1e308, -1.0], "acceptance window bound inf is not finite"),
    ([0.5, 1e308, np.inf], "acceptance window bound inf is not finite"),
])
def test_windows_raise_the_scalar_message_for_the_first_bad_rate(criterion, lams, message):
    # n * 1e308 overflows at n = 2 without a numpy warning, as a float does
    lams = np.array(lams)
    unpinned = np.full(lams.size, _UNPINNED)
    with pytest.raises(ValueError, match=message):
        _windows(criterion, 2, lams, unpinned, unpinned)


@pytest.mark.parametrize("criterion", [Absolute(0.1), Relative(0.1), Mixed(0.1, 0.1)])
def test_windows_raise_for_the_first_bad_rate_with_its_own_n(criterion):
    # n * 1e308 overflows at n = 2 only, so only the second row is bad,
    # and the scalar rule raises for it only with its own n
    lams = np.array([1e308, 1e308])
    unpinned = np.full(lams.size, _UNPINNED)
    with pytest.raises(ValueError, match="acceptance window bound inf is not finite"):
        _windows(criterion, np.array([1, 2]), lams, unpinned, unpinned)


@pytest.mark.parametrize("criterion, n, lam, count", [
    # n (lam -+ eps) = 1 -+ 1e-13 both snap to 1: the window [2, 0] would
    # drop the count 1, whose mass is exp(-1)
    (Absolute(1e-13), 1, 1.0, 1),
    (Absolute(1e-13), 1, 0.0, 0),
    (Relative(1e-13), 3, 1 / 3, 1),
    # the snap band grows with the rate: at 1e6 it is 1e-6 wide
    (Absolute(1e-9), 1, 1e6, 10 ** 6),
    (Mixed(1e-9, 1e-16), 1, 1e6, 10 ** 6),  # below the crossover 1e7
])
def test_a_margin_the_window_rule_cannot_resolve_is_refused(criterion, n, lam, count):
    message = f"fall on the count {count} between them"
    with pytest.raises(MarginTooNarrow, match=message):
        coverage_at(criterion, n, lam)
    with pytest.raises(MarginTooNarrow, match=message):
        acceptance_bounds(criterion, n, lam)
    # the array rule refuses the same rate, with its own n, past a rate
    # whose ends hold no count
    lams = np.array([lam + 0.25, lam])
    with pytest.raises(MarginTooNarrow, match=message):
        _windows(criterion, np.array([n + 1, n]), lams)


def test_a_tiny_margin_with_no_count_between_its_ends_is_answered():
    # 0.5 -+ 1e-13 hold no count: the window is empty, and so is the event
    result = coverage_at(Absolute(1e-13), 1, 0.5)
    assert (result.g, result.h, result.coverage) == (1, 0, 0.0)


def test_a_scan_refuses_a_candidate_whose_window_drops_its_count():
    # a = 0 merges with the breakpoints -+ 1e-13, whose tags pin both
    # window sides on the count 0
    with pytest.raises(MarginTooNarrow, match="at rate 0.0 for n = 1"):
        min_coverage(Absolute(1e-13), 1, ParamInterval(0.0, 1.0))


def test_windows_refuse_a_pinned_row_with_the_scalar_rule_s_error():
    # the second row's tags pin both sides on the count 0, as a's point in
    # the scan above: the array rule raises the scalar rule's error for it,
    # with the row's own n and pins
    criterion = Absolute(1e-13)
    with pytest.raises(MarginTooNarrow) as scalar:
        _coverage(criterion, 1, 0.0, ((CandidateKind.ABS_PLUS, 0), (CandidateKind.ABS_MINUS, 0)))
    with pytest.raises(MarginTooNarrow) as array:
        _windows(criterion, np.array([2, 1]), np.array([0.25, 0.0]),
                 np.array([_UNPINNED, 0]), np.array([_UNPINNED, 0]))
    assert type(array.value) is type(scalar.value) is MarginTooNarrow
    assert str(array.value) == str(scalar.value) == (
        "the margin is too narrow at rate 0.0 for n = 1: both window ends, "
        "-1e-13 and 1e-13, fall on the count 0 between them")


def test_window_can_be_empty_for_tight_relative_margin():
    # n=1, lam=0.4, eps=0.2: g = floor(0.32)+1 = 1, h = ceil(0.48)-1 = 0
    b = acceptance_bounds(Relative(0.2), 1, 0.4)
    assert b.g > b.h
    assert coverage_at(Relative(0.2), 1, 0.4).coverage == 0.0


def test_relative_window_at_zero_rate_is_empty():
    b = acceptance_bounds(Relative(0.3), 5, 0.0)
    assert (b.g, b.h) == (1, -1)
    assert coverage_at(Relative(0.3), 5, 0.0).coverage == 0.0


def test_absolute_coverage_at_zero_rate_is_one():
    for n in (1, 3, 17):
        result = coverage_at(Absolute(0.2), n, 0.0)
        assert result.g == 0
        assert result.coverage == 1.0


def test_mixed_window_is_absolute_below_crossover_relative_above():
    crit = Mixed(0.3, 0.2)
    cx = crit.crossover
    for n in (1, 7, 33):
        for lam in (0.1, 0.9 * cx, cx, 1.1 * cx, 3.0):
            want = (acceptance_bounds(Absolute(crit.eps_a), n, lam)
                    if lam <= cx
                    else acceptance_bounds(Relative(crit.eps_r), n, lam))
            assert acceptance_bounds(crit, n, lam) == want


def test_mixed_windows_agree_at_crossover():
    crit = Mixed(0.4, 0.25)
    cx = crit.crossover  # 1.6
    for n in (3, 10, 41):
        via_abs = acceptance_bounds(Absolute(crit.eps_a), n, cx)
        via_rel = acceptance_bounds(Relative(crit.eps_r), n, cx)
        assert via_abs == via_rel


# tagged candidate windows: the tag pins one side in integer arithmetic
def test_tagged_window_abs_plus_sets_lower_bound():
    point = CandidatePoint(3 / 10 + 0.1, CandidateKind.ABS_PLUS, ell=3)
    r = coverage_at_point(Absolute(0.1), 10, point)
    assert r.g == 4


def test_tagged_window_abs_minus_sets_upper_bound():
    point = CandidatePoint(7 / 10 - 0.1, CandidateKind.ABS_MINUS, ell=7)
    r = coverage_at_point(Absolute(0.1), 10, point)
    assert r.h == 6


def test_tagged_window_rel_lower_sets_lower_bound():
    value = 5 / (10 * (1.0 - 0.2))
    point = CandidatePoint(value, CandidateKind.REL_LOWER, ell=5)
    r = coverage_at_point(Relative(0.2), 10, point)
    assert r.g == 6


def test_tagged_window_rel_upper_sets_upper_bound():
    value = 9 / (10 * (1.0 + 0.2))
    point = CandidatePoint(value, CandidateKind.REL_UPPER, ell=9)
    r = coverage_at_point(Relative(0.2), 10, point)
    assert r.h == 8


def test_untagged_point_falls_back_to_plain_bounds():
    point = CandidatePoint(0.7345, CandidateKind.ENDPOINT_A)
    r = coverage_at_point(Absolute(0.2), 9, point)
    b = acceptance_bounds(Absolute(0.2), 9, 0.7345)
    assert (r.g, r.h) == (b.g, b.h)


COVERAGE_FIXTURES = [
    # e^-0.05: window [0, 0] at mu = 0.05
    (Absolute(0.9), 1, 0.05, 0, 0, 0.951229424500714),
    # single-count window [5, 5] at mu = 5
    (Absolute(0.1), 10, 0.5, 5, 5, 0.17546736976785046),
    # window [11, 29] at mu = 20
    (Relative(0.5), 20, 1.0, 11, 29, 0.9673700636477899),
]


@pytest.mark.parametrize("criterion,n,lam,g,h,cov", COVERAGE_FIXTURES)
def test_coverage_fixtures(criterion, n, lam, g, h, cov):
    result = coverage_at(criterion, n, lam)
    assert (result.g, result.h) == (g, h)
    assert result.lam == lam
    assert result.coverage == pytest.approx(cov, rel=1e-13)


def test_coverage_is_window_mass():
    for criterion, n, lam in [(Absolute(0.17), 13, 2.31),
                              (Relative(0.33), 7, 0.81),
                              (Mixed(0.2, 0.45), 11, 1.07)]:
        result = coverage_at(criterion, n, lam)
        assert result.coverage == interval_prob(result.g, result.h, n * lam)


def test_coverage_matches_brute_force_enumeration():
    rng = np.random.default_rng(4821)
    for _ in range(40):
        n = int(rng.integers(1, 40))
        lam = float(rng.uniform(0.01, 40.0 / n))
        kind = rng.choice(["abs", "rel", "mix"])
        if kind == "abs":
            crit = Absolute(float(rng.uniform(0.05, 0.9)))
        elif kind == "rel":
            crit = Relative(float(rng.uniform(0.05, 0.9)))
        else:
            crit = Mixed(float(rng.uniform(0.05, 0.9)), float(rng.uniform(0.05, 0.9)))
        got = coverage_at(crit, n, lam).coverage
        want = brute_force_coverage(crit, n, lam)
        assert got == pytest.approx(want, abs=1e-12), (crit, n, lam)


def test_wider_margin_never_lowers_coverage():
    for n, lam in [(5, 0.7), (20, 2.3), (1, 4.0)]:
        covs = [coverage_at(Absolute(eps), n, lam).coverage
                for eps in np.linspace(0.05, 0.95, 19)]
        assert all(x <= y + 1e-15 for x, y in zip(covs, covs[1:]))
        covs = [coverage_at(Relative(eps), n, lam).coverage
                for eps in np.linspace(0.05, 0.95, 19)]
        assert all(x <= y + 1e-15 for x, y in zip(covs, covs[1:]))


def test_window_constant_between_adjacent_candidates():
    crit = Absolute(0.2)
    n = 9
    interval = ParamInterval(0.0, 2.5)
    points = [p.value for p in candidate_set(crit, n, interval)]
    rng = np.random.default_rng(91)
    for lo, hi in zip(points, points[1:]):
        if hi - lo < 1e-6:
            continue
        samples = lo + (hi - lo) * rng.uniform(0.1, 0.9, size=3)
        windows = {acceptance_bounds(crit, n, float(x)) for x in samples}
        assert len(windows) == 1


def test_breakpoint_value_is_one_sided_limit():
    # at lam0 = ell/n + eps the lower bound jumps; the at-point window equals
    # the limit from the right (floor is right-continuous)
    n, eps, ell = 10, 0.1, 3
    lam0 = ell / n + eps
    step = 1e-6
    at = acceptance_bounds(Absolute(eps), n, lam0)
    right = acceptance_bounds(Absolute(eps), n, lam0 + step)
    left = acceptance_bounds(Absolute(eps), n, lam0 - step)
    assert at.g == right.g == ell + 1
    assert left.g == ell

    # at lam0 = ell/n - eps the upper bound jumps; the at-point window equals
    # the limit from the left (ceiling is left-continuous)
    ell = 7
    lam0 = ell / n - eps
    at = acceptance_bounds(Absolute(eps), n, lam0)
    right = acceptance_bounds(Absolute(eps), n, lam0 + step)
    left = acceptance_bounds(Absolute(eps), n, lam0 - step)
    assert at.h == left.h == ell - 1
    assert right.h == ell


def test_near_breakpoint_snap_is_symmetric():
    # an ulp on either side of an exact breakpoint must give the breakpoint
    # window, not whichever side the rounding happened to land on
    n, eps, ell = 10, 0.1, 3
    lam0 = ell / n + eps
    for lam in (lam0, np.nextafter(lam0, 0.0), np.nextafter(lam0, 2.0)):
        assert acceptance_bounds(Absolute(eps), n, float(lam)).g == ell + 1


def test_coverage_at_point_uses_tagged_window():
    crit = Relative(0.5)
    n = 1
    interval = ParamInterval(0.5, 3.0)
    for point in candidate_set(crit, n, interval):
        result = coverage_at_point(crit, n, point)
        assert result.lam == point.value
        assert result.coverage == interval_prob(result.g, result.h, n * point.value)


def test_coverage_between_candidates_never_below_both_neighbours():
    crit = Mixed(0.35, 0.3)
    n = 6
    interval = ParamInterval(0.2, 2.8)
    points = list(candidate_set(crit, n, interval))
    rng = np.random.default_rng(12)
    for left, right in zip(points, points[1:]):
        lo, hi = left.value, right.value
        if hi - lo < 1e-9:
            continue
        floor = min(coverage_at_point(crit, n, left).coverage,
                    coverage_at_point(crit, n, right).coverage)
        for u in rng.uniform(0.05, 0.95, size=4):
            lam = lo + (hi - lo) * float(u)
            assert coverage_at(crit, n, lam).coverage >= floor - 1e-12


# Round margins put n * eps, 2 n eps and the crossover on lattice values, so
# families collide with each other, with the endpoints and the crossover.
_margins = st.sampled_from([0.1, 0.125, 0.2, 0.25, 0.5]) | st.floats(0.05, 0.9)


@st.composite
def _streams(draw):
    kind = draw(st.sampled_from(["abs", "rel", "mix", "cx", "large"]))
    n = draw(st.integers(1, 40))
    if kind == "large":
        # Large n near ell = 0: n (lam - eps) cancels, so an ABS_PLUS tag and
        # the snapped float g differ there.
        n = draw(st.sampled_from([10**4, 10**5, 10**6, 10**7]))
        crit = draw(st.sampled_from([Absolute, Relative]))(draw(_margins))
        lo = crit.eps if isinstance(crit, Absolute) else 0.0
        a = max(0.0, lo - draw(st.integers(0, 5)) / n)
        return crit, n, ParamInterval(a, lo + draw(st.integers(1, 30)) / n)
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
    a = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 3.0))
    width = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(1e-13, 3.0))
    return crit, n, ParamInterval(a, a + width)


@settings(max_examples=150, deadline=None)
@given(_streams())
def test_windows_match_the_independent_reference_bit_for_bit(config):
    crit, n, interval = config
    points = list(candidate_stream(crit, n, interval))
    # the array rule with no side pinned is the float rule at every rate
    lams = np.array([point.value for point in points])
    unpinned = np.full(lams.size, _UNPINNED)
    gs, hs = _windows(crit, n, lams, unpinned, unpinned)
    assert list(zip(gs.tolist(), hs.tolist())) == [
        tuple(reference_window(crit, n, point.value)) for point in points]
    for point in points:
        lam = point.value
        g, h = reference_window(crit, n, lam)
        bounds = acceptance_bounds(crit, n, lam)
        assert (bounds.g, bounds.h) == (g, h), (point, bounds)
        plain = coverage_at(crit, n, lam)
        assert (plain.g, plain.h, plain.coverage.hex()) == (
            g, h, interval_prob(g, h, n * lam).hex()), point
        tagged = coverage_at_point(crit, n, point)
        want = reference_coverage_at_point(crit, n, point)
        assert (tagged.g, tagged.h, tagged.coverage.hex()) == (
            want.g, want.h, want.coverage.hex()), point


@pytest.mark.seeded
@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["abs", "rel", "mix"]),
    eps=st.tuples(_margins, _margins),
    rows=st.lists(st.tuples(
        st.integers(1, 40) | st.integers(1, 10**6),
        st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 5.0),
        st.none() | st.integers(-2, 10**6),
        st.none() | st.integers(-2, 10**6)), min_size=1, max_size=40),
)
def test_windows_with_one_n_per_row_match_one_call_per_row(kind, eps, rows):
    # the window rule with an array of n, one per rate, against one scalar-n
    # call per rate, with and without pinned sides.  Drawn pins can put both
    # ends of a window on one count between its products: the array call
    # then refuses the first such rate, as its own call does.
    crit = {"abs": Absolute(eps[0]), "rel": Relative(eps[0]), "mix": Mixed(*eps)}[kind]
    ns, lams, g_ell, h_ell = (np.array([_UNPINNED if v is None else v for v in column])
                              for column in zip(*rows))

    def windows(*args):
        try:
            return _windows(crit, *args)
        except MarginTooNarrow as exc:
            return str(exc)

    whole = windows(ns, lams, g_ell, h_ell)
    each = [windows(n, lams[i:i + 1], g_ell[i:i + 1], h_ell[i:i + 1])
            for i, n in enumerate(ns.tolist())]
    refused = [row for row in each if isinstance(row, str)]
    if refused:
        assert whole == refused[0]
        return
    gs, hs = whole
    for i, (g, h) in enumerate(each):
        assert (gs[i], hs[i]) == (g[0], h[0]), rows[i]
