"""Candidate-set construction: membership, tags, ordering, cardinality."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_ss import (
    Absolute,
    CandidateKind,
    CandidatePoint,
    ConfidenceSpec,
    EmptyInterval,
    EpsilonOutOfRange,
    Mixed,
    NonFiniteBound,
    ParamInterval,
    Relative,
    acceptance_bounds,
    candidate_set,
    candidate_stream,
    cardinality_bound,
    coverage_at,
    coverage_at_point,
    grid_min_coverage,
    min_coverage,
    min_sample_size,
    scan_min_coverage,
)
from poisson_ss import candidates, coverage
from poisson_ss.candidates import DEDUP_REL_TOL

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from exact_reference import reference_candidate_set  # noqa: E402


def _random_config(rng):
    kind = rng.choice(["abs", "rel", "mix"])
    n = int(rng.integers(1, 201))
    if kind == "abs":
        crit = Absolute(float(rng.uniform(0.05, 0.9)))
        a = float(rng.uniform(0.0, 5.0))
    elif kind == "rel":
        crit = Relative(float(rng.uniform(0.05, 0.9)))
        a = float(rng.uniform(0.01, 5.0))
    else:
        crit = Mixed(float(rng.uniform(0.05, 0.9)), float(rng.uniform(0.05, 0.9)))
        a = float(rng.uniform(0.01, 5.0))
    b = a + float(rng.uniform(0.05, 5.0))
    return crit, n, ParamInterval(a, b)


def test_absolute_fixture_small():
    cs = candidate_set(Absolute(0.25), 2, ParamInterval(0.0, 1.0))
    assert [p.value for p in cs] == [0.0, 0.25, 0.75, 1.0]
    first, p1, p2, last = cs
    assert first.kind is CandidateKind.ENDPOINT_A
    assert last.kind is CandidateKind.ENDPOINT_B
    # each interior point is a collision of the two shifted-lattice families
    assert p1.grid_tags() == ((CandidateKind.ABS_PLUS, 0), (CandidateKind.ABS_MINUS, 1))
    assert p2.grid_tags() == ((CandidateKind.ABS_PLUS, 1), (CandidateKind.ABS_MINUS, 2))


def test_relative_fixture_small():
    cs = candidate_set(Relative(0.5), 1, ParamInterval(0.5, 3.0))
    want = [0.5, 2.0 / 3.0, 4.0 / 3.0, 2.0, 8.0 / 3.0, 3.0]
    assert [p.value for p in cs] == pytest.approx(want, abs=1e-15)
    merged = cs[3]
    assert merged.value == 2.0
    # ell/(n(1+eps)) with ell=3 and ell/(n(1-eps)) with ell=1 collide at 2.0
    assert set(merged.grid_tags()) == {
        (CandidateKind.REL_UPPER, 3), (CandidateKind.REL_LOWER, 1)}


def test_mixed_includes_crossover_and_splits_families():
    crit = Mixed(0.3, 0.2)  # crossover 1.5
    cs = candidate_set(crit, 4, ParamInterval(0.1, 3.0))
    kinds = [p.kind for p in cs]
    assert CandidateKind.CROSSOVER in kinds
    cx_index = kinds.index(CandidateKind.CROSSOVER)
    assert cs[cx_index].value == pytest.approx(1.5)
    cx = crit.crossover
    for p in cs:
        for kind, _ in p.grid_tags():
            if kind in (CandidateKind.ABS_PLUS, CandidateKind.ABS_MINUS):
                assert p.value <= cx + 1e-9
            else:
                assert p.value >= cx - 1e-9


def test_mixed_with_offside_crossover_reduces_to_pure_families():
    # crossover 0.25 sits below the interval: pure relative behavior
    mixed = candidate_set(Mixed(0.1, 0.4), 7, ParamInterval(0.5, 2.0))
    pure = candidate_set(Relative(0.4), 7, ParamInterval(0.5, 2.0))
    assert [p.value for p in mixed] == [p.value for p in pure]
    assert [p.grid_tags() for p in mixed] == [p.grid_tags() for p in pure]


def test_endpoints_always_present_and_ordered():
    rng = np.random.default_rng(1207)
    for _ in range(50):
        crit, n, interval = _random_config(rng)
        cs = candidate_set(crit, n, interval)
        values = [p.value for p in cs]
        assert values[0] == interval.a
        assert values[-1] == interval.b
        assert cs[0].kind is CandidateKind.ENDPOINT_A
        assert cs[-1].kind is CandidateKind.ENDPOINT_B
        assert all(x < y for x, y in zip(values, values[1:]))
        assert all(interval.a < p.value < interval.b for p in cs[1:-1])


def test_sliver_interval_keeps_both_endpoints():
    a = 0.25
    b = 0.25 + 1e-15
    cs = candidate_set(Absolute(0.2), 3, ParamInterval(a, b))
    assert len(cs) == 2
    assert cs[0].kind is CandidateKind.ENDPOINT_A
    assert cs[1].kind is CandidateKind.ENDPOINT_B
    assert cs[0].value == a
    assert cs[1].value == b


def test_breakpoint_tags_reproduce_values():
    rng = np.random.default_rng(77)
    for _ in range(30):
        crit, n, interval = _random_config(rng)
        for p in candidate_set(crit, n, interval):
            for kind, ell in p.grid_tags():
                if kind is CandidateKind.ABS_PLUS:
                    eps = crit.eps_a if isinstance(crit, Mixed) else crit.eps
                    recon = ell / n + eps
                elif kind is CandidateKind.ABS_MINUS:
                    eps = crit.eps_a if isinstance(crit, Mixed) else crit.eps
                    recon = ell / n - eps
                elif kind is CandidateKind.REL_UPPER:
                    eps = crit.eps_r if isinstance(crit, Mixed) else crit.eps
                    recon = ell / (n * (1.0 + eps))
                else:
                    eps = crit.eps_r if isinstance(crit, Mixed) else crit.eps
                    recon = ell / (n * (1.0 - eps))
                assert recon == pytest.approx(p.value, rel=1e-11, abs=1e-13)


def test_no_in_range_breakpoint_is_missed():
    # independent wide scan over ell; every family value strictly inside
    # (a, b) must appear among the candidate values
    rng = np.random.default_rng(4087)
    for _ in range(25):
        crit, n, interval = _random_config(rng)
        a, b = interval.a, interval.b
        scale = max(1.0, abs(a), abs(b))
        expected = []
        if isinstance(crit, Mixed):
            cx = crit.crossover
            if cx <= a:
                pieces = [("rel", crit.eps_r, a, b)]
            elif cx >= b:
                pieces = [("abs", crit.eps_a, a, b)]
            else:
                pieces = [("abs", crit.eps_a, a, cx), ("rel", crit.eps_r, cx, b)]
        elif isinstance(crit, Absolute):
            pieces = [("abs", crit.eps, a, b)]
        else:
            pieces = [("rel", crit.eps, a, b)]
        for family, eps, lo, hi in pieces:
            for ell in range(-2, int(2 * n * (hi + 1)) + 2):
                if family == "abs":
                    values = (ell / n + eps, ell / n - eps)
                else:
                    values = (ell / (n * (1 + eps)), ell / (n * (1 - eps)))
                for v in values:
                    if lo + 1e-9 * scale < v < hi - 1e-9 * scale:
                        expected.append(v)
        got = np.asarray([p.value for p in candidate_set(crit, n, interval)])
        for v in expected:
            assert np.min(np.abs(got - v)) <= 1e-11 * scale, (crit, n, interval, v)


def test_cardinality_bound_formula_and_validity():
    rng = np.random.default_rng(3571)
    for _ in range(200):
        crit, n, interval = _random_config(rng)
        bound = cardinality_bound(crit, n, interval)
        extra = 7.0 if isinstance(crit, Mixed) else 4.0
        assert bound == 2.0 * n * interval.width + extra
        assert len(candidate_set(crit, n, interval)) < bound


def test_candidate_set_is_the_stream_as_a_tuple():
    crit, n, interval = Mixed(0.3, 0.2), 4, ParamInterval(0.1, 3.0)
    cs = candidate_set(crit, n, interval)
    assert isinstance(cs, tuple)
    assert cs == tuple(candidate_stream(crit, n, interval))
    # the traced benchmark run reads .points
    assert cs.points is cs


def test_candidate_set_rejects_bad_sample_size():
    with pytest.raises(ValueError):
        candidate_set(Absolute(0.2), 0, ParamInterval(0.0, 1.0))
    with pytest.raises(ValueError):
        candidate_stream(Absolute(0.2), 0, ParamInterval(0.0, 1.0))


def test_candidate_set_is_deterministic():
    crit = Mixed(0.22, 0.41)
    interval = ParamInterval(0.3, 2.9)
    assert candidate_set(crit, 17, interval) == candidate_set(crit, 17, interval)


def test_tagged_coverage_consistent_when_families_collide():
    # margin and n chosen so that n * eps is an exact integer and the two
    # absolute families coincide: coverage at those points must use both
    # tags (the window intersection), not either family alone
    crit = Absolute(0.25)
    n = 8  # 2 n eps = 4, so ell/n + eps and (ell+4)/n - eps collide
    cs = candidate_set(crit, n, ParamInterval(0.0, 2.0))
    doubly = [p for p in cs if len(p.grid_tags()) == 2]
    assert doubly, "expected collided breakpoints"
    for p in doubly:
        kinds = {kind for kind, _ in p.grid_tags()}
        assert kinds == {CandidateKind.ABS_PLUS, CandidateKind.ABS_MINUS}
        result = coverage_at_point(crit, n, p)
        lo = {kind: ell for kind, ell in p.grid_tags()}[CandidateKind.ABS_PLUS]
        hi = {kind: ell for kind, ell in p.grid_tags()}[CandidateKind.ABS_MINUS]
        assert result.g == max(0, lo + 1)
        assert result.h == hi - 1


def _assert_matches_reference(crit, n, interval):
    got = candidate_set(crit, n, interval)
    want = reference_candidate_set(crit, n, interval)
    assert [(p.value, p.kind, p.ell, p.extra_tags) for p in got] == [
        (p.value, p.kind, p.ell, p.extra_tags) for p in want]


# Round margins make n * eps and the crossover land on exact lattice values,
# so families collide with each other, the endpoints and the crossover.
_margins = st.sampled_from([0.1, 0.125, 0.2, 0.25, 0.5]) | st.floats(0.01, 0.95)
_widths = (st.sampled_from([0.25, 0.5, 1.0, 2.0, 0.5 * DEDUP_REL_TOL])
           | st.floats(1e-13, 5.0))


@st.composite
def _configs(draw):
    kind = draw(st.sampled_from(["abs", "rel", "mix"]))
    n = draw(st.integers(1, 300))
    if kind == "rel":
        crit = Relative(draw(_margins))
        a = draw(st.sampled_from([0.5, 1.0]) | st.floats(1e-3, 5.0))
    else:
        crit = (Absolute(draw(_margins)) if kind == "abs"
                else Mixed(draw(_margins), draw(_margins)))
        a = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 5.0))
    return crit, n, ParamInterval(a, a + draw(_widths))


@settings(max_examples=300, deadline=None)
@given(_configs())
def test_stream_matches_full_sort_reference(config):
    _assert_matches_reference(*config)


@pytest.mark.parametrize("crit, n, interval", [
    # the two absolute families collide at every interior point
    (Absolute(0.25), 2, ParamInterval(0.0, 1.0)),
    # crossover 0.5 = 1/4 + 0.25 = 3/4 - 0.25 = 3/6 = 1/2: all four families
    (Mixed(0.25, 0.5), 4, ParamInterval(0.1, 2.0)),
    # slivers: b - a < DEDUP_REL_TOL
    (Absolute(0.2), 3, ParamInterval(0.25, 0.25 + 1e-15)),
    (Mixed(0.3, 0.2), 5, ParamInterval(1.0, 1.0 + 0.5 * DEDUP_REL_TOL)),
    # a = 0
    (Absolute(0.1), 30, ParamInterval(0.0, 1.0)),
    (Mixed(0.1, 0.2), 40, ParamInterval(0.0, 3.0)),
    # a chain 1 - t, a, 1 + t, b with t = 0.75 DEDUP_REL_TOL is one group
    # although its ends are further apart than the tolerance
    (Absolute(0.75 * DEDUP_REL_TOL), 1, ParamInterval(1.0, 1.0 + 1.5 * DEDUP_REL_TOL)),
    # breakpoints exactly at a - tol (ell = 0) or b + tol (ell = 1) stay out
    (Absolute(0.5 - DEDUP_REL_TOL), 1, ParamInterval(0.5, 1.0)),
    (Absolute(DEDUP_REL_TOL), 1, ParamInterval(0.5, 1.0)),
])
def test_stream_matches_reference_on_edge_cases(crit, n, interval):
    _assert_matches_reference(crit, n, interval)


def test_crossover_on_a_breakpoint_carries_every_family_tag():
    cs = candidate_set(Mixed(0.25, 0.5), 4, ParamInterval(0.1, 2.0))
    (cx,) = [p for p in cs if p.kind is CandidateKind.CROSSOVER]
    assert cx.value == 0.5
    assert {kind for kind, _ in cx.extra_tags} == {
        CandidateKind.ABS_PLUS, CandidateKind.ABS_MINUS,
        CandidateKind.REL_UPPER, CandidateKind.REL_LOWER}


@pytest.mark.parametrize("criterion, interval", [
    (Absolute(0.1), ParamInterval(1e308, 1.7e308)),
    (Relative(0.1), ParamInterval(1.0, 1e308)),
    (Mixed(0.1, 0.1), ParamInterval(0.5, 1e308)),   # only the relative piece
])
def test_stream_rejects_overflowing_breakpoints_before_iterating(criterion, interval):
    # at n = 2 the last breakpoint index n * b (1 + eps) is not finite
    with pytest.raises(ValueError, match="too large for n = 2"):
        candidate_stream(criterion, 2, interval)


def test_intervals_too_wide_to_resolve_are_rejected():
    # b = 1e308: the merge tolerance was 1e296 and one group grew forever
    with pytest.raises(ValueError, match="too wide for n = 1"):
        min_sample_size(Absolute(0.1), ParamInterval(0.0, 1e308), ConfidenceSpec(0.1))
    # every breakpoint merged into the two endpoints: worst rate 1e13, g > h
    # and coverage 0.0, while pmf(1e13; 1e13) ~ 1.26e-7
    with pytest.raises(ValueError, match="too wide for n = 1"):
        min_coverage(Absolute(0.1), 1, ParamInterval(1e13, 1e13 + 3))


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (math.nan, 1.0), (0.5, math.nan)])
def test_stream_rejects_non_finite_bounds_before_iterating(a, b):
    with pytest.raises(NonFiniteBound):
        candidate_stream(Relative(0.2), 5, ParamInterval(a, b))
    with pytest.raises(NonFiniteBound):
        candidate_set(Absolute(0.2), 5, ParamInterval(a, b))


def test_reversed_interval_is_rejected_and_a_point_interval_is_not():
    crit, reversed_ = Absolute(0.1), ParamInterval(1.0, 0.0)
    with pytest.raises(EmptyInterval):
        candidate_stream(crit, 5, reversed_)
    with pytest.raises(EmptyInterval):
        cardinality_bound(crit, 5, reversed_)
    with pytest.raises(EmptyInterval):
        min_coverage(crit, 5, reversed_)
    # a == b is a sliver: both endpoints, the first one a
    point = ParamInterval(0.5, 0.5)
    cs = candidate_set(crit, 5, point)
    assert [(p.value, p.kind) for p in cs] == [
        (0.5, CandidateKind.ENDPOINT_A), (0.5, CandidateKind.ENDPOINT_B)]
    assert cardinality_bound(crit, 5, point) == 4.0
    assert min_coverage(crit, 5, point).lam == 0.5


_MARGINS = st.floats(0.05, 0.9) | st.sampled_from([0.0, 1.5])
_GATE_CRITERIA = (st.builds(Absolute, _MARGINS) | st.builds(Relative, _MARGINS)
                  | st.builds(Mixed, _MARGINS, _MARGINS))
_GATE_NS = st.integers(1, 40) | st.sampled_from([0, 2.5, math.nan, 10 ** 400])
_GATE_INTERVALS = st.builds(
    lambda a, width: ParamInterval(a, a + width),
    st.floats(0.0, 3.0), st.sampled_from([0.0]) | st.floats(0.0, 3.0),
) | st.sampled_from([
    ParamInterval(math.nan, 1.0), ParamInterval(0.0, math.nan),
    ParamInterval(-math.inf, 1.0), ParamInterval(0.0, math.inf),
    ParamInterval(1.0, 0.5),
])


def _outcome(call, *args):
    try:
        return call(*args), None
    except Exception as exc:  # the type is what the property compares
        return None, type(exc)


@settings(max_examples=300, deadline=None)
@given(_GATE_CRITERIA, _GATE_NS, _GATE_INTERVALS)
def test_fixed_n_calls_refuse_the_same_arguments(criterion, n, interval):
    calls = {
        "bound": cardinality_bound,
        "set": candidate_set,
        "stream": lambda *args: tuple(candidate_stream(*args)),
        "min": min_coverage,
        "scan": scan_min_coverage,
        "grid": lambda *args: grid_min_coverage(*args, points=11),
    }
    outcomes = {name: _outcome(call, criterion, n, interval) for name, call in calls.items()}
    assert len({error for _, error in outcomes.values()}) == 1, outcomes
    bound, error = outcomes["bound"]
    if error is None:
        assert bound > len(outcomes["set"][0])


def test_cardinality_bound_refuses_a_nan_bound():
    with pytest.raises(NonFiniteBound):
        cardinality_bound(Absolute(0.1), 10, ParamInterval(math.nan, 1.0))


@pytest.mark.parametrize("criterion", [
    Relative(1.0),          # n (1 - eps) = 0 divides the family spacing
    Mixed(0.1, 0.0),        # crossover eps_a / eps_r divides by zero
    Absolute(2.0),          # a margin wider than the rates: coverage near 1
    Absolute(0.0),
    Relative(math.nan),
])
def test_fixed_n_calls_reject_bad_margins(criterion):
    point = CandidatePoint(0.5, CandidateKind.ENDPOINT_A)
    calls = [
        lambda: candidate_stream(criterion, 5, ParamInterval(0.5, 1.0)),
        lambda: min_coverage(criterion, 5, ParamInterval(0.5, 1.0)),
        lambda: acceptance_bounds(criterion, 5, 0.5),
        lambda: coverage_at(criterion, 5, 0.5),
        lambda: coverage_at_point(criterion, 5, point),
    ]
    for call in calls:
        with pytest.raises(EpsilonOutOfRange):
            call()


@pytest.mark.parametrize("n", [2.5, math.inf, math.nan])
def test_stream_requires_an_integer_sample_size(n):
    with pytest.raises(ValueError, match="integer"):
        min_coverage(Absolute(0.1), n, ParamInterval(0.0, 1.0))
    # an integral float is still a sample size
    assert min_coverage(Absolute(0.1), 5.0, ParamInterval(0.0, 1.0)) == min_coverage(
        Absolute(0.1), 5, ParamInterval(0.0, 1.0))


def test_scan_checks_margins_once_per_stream_not_per_point(monkeypatch):
    streams = []
    check = candidates._check_margins
    monkeypatch.setattr(candidates, "_check_margins",
                        lambda criterion: (streams.append(criterion), check(criterion)))
    monkeypatch.setattr(coverage, "_check_margins",
                        lambda criterion: pytest.fail("margins checked per point"))
    _, count = scan_min_coverage(Mixed(0.1, 0.2), 40, ParamInterval(0.0, 2.0))
    assert count > 100
    assert streams == [Mixed(0.1, 0.2)]
