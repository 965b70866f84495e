"""Minimum sample size search: ascending scan, truncation, budgets."""

import inspect
import itertools
import math
import sys
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import poisson_ss.minimizer
import poisson_ss.search
from poisson_ss import (
    Absolute,
    ConfidenceSpec,
    DeltaOutOfRange,
    MaxSampleSizeExceeded,
    Mixed,
    NonFiniteBound,
    ParamInterval,
    Relative,
    brute_force_coverage,
    min_coverage,
    min_sample_size,
    scan_min_coverage,
)
from poisson_ss import candidates, search

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from exact_reference import exact_min_coverage  # noqa: E402

# (criterion, interval, delta) -> (n_min, worst_lambda, worst_coverage,
#                                  linear evaluations, truncated_b)
PINNED = [
    (Absolute(0.5), ParamInterval(0.0, 0.5), 0.5,
     3, 0.5, 0.5857166703896283, 7, 0.5),
    (Relative(0.2), ParamInterval(0.5, 2.0), 0.1,
     141, 0.5141843971631206, 0.9004319529309714, 344, 1.375008951699398),
    (Mixed(0.3, 0.2), ParamInterval(0.1, 3.0), 0.1,
     47, 1.5425531914893618, 0.9004319529309714, 2029, 3.0),
    (Relative(0.5), ParamInterval(0.2, 100.0), 0.2,
     41, 0.21138211382113822, 0.8313613050071041, 76, 0.5815317817369328),
    # most failing n of these two are decided in batched runs
    (Absolute(0.1), ParamInterval(0.0, 1.0), 0.1,
     276, 1.0, float.fromhex("0x1.cdf82f4c6991cp-1"), 46_039, 1.0),
    (Mixed(0.05, 0.1), ParamInterval(0.0, 2.0), 0.1,
     561, float.fromhex("0x1.03b12e01938f5p-1"), float.fromhex("0x1.ce7159c28385cp-1"),
     102_813, 1.382361940745919),
]


@pytest.mark.parametrize(
    "criterion,interval,delta,n_min,worst_lam,worst_cov,evals,trunc_b", PINNED)
def test_pinned_plans(criterion, interval, delta, n_min, worst_lam, worst_cov,
                      evals, trunc_b):
    plan = min_sample_size(criterion, interval, ConfidenceSpec(delta))
    assert plan.n_min == n_min
    assert plan.worst_lambda.hex() == worst_lam.hex()
    assert plan.worst_coverage.hex() == worst_cov.hex()
    assert plan.evaluations == evals
    assert plan.truncated_b.hex() == trunc_b.hex()
    assert plan.worst_coverage > 1.0 - delta


def test_returned_n_is_minimal():
    for criterion, interval, delta, n_min, *_ in PINNED:
        if n_min == 1:
            continue
        below = min_coverage(criterion, n_min - 1, interval)
        assert below.coverage <= 1.0 - delta + 1e-12


def test_search_survives_non_monotone_sufficiency():
    # here n = 7 suffices, n = 8 does not, n = 9 does again; a search that
    # walks down from a high passing probe until the first failure would
    # wrongly stop at 9
    criterion = Absolute(0.37201414200743804)
    interval = ParamInterval(0.4077344983460025, 1.281192605563476)
    delta = 0.42464361871197986
    level = 1.0 - delta
    assert min_coverage(criterion, 7, interval).coverage > level
    assert min_coverage(criterion, 8, interval).coverage <= level
    assert min_coverage(criterion, 9, interval).coverage > level
    plan = min_sample_size(criterion, interval, ConfidenceSpec(delta))
    assert plan.n_min == 7


def test_budget_exhaustion_raises_with_context():
    criterion = Relative(0.2)
    interval = ParamInterval(0.5, 2.0)
    conf = ConfidenceSpec(0.1)  # needs n = 141
    with pytest.raises(MaxSampleSizeExceeded) as info:
        min_sample_size(criterion, interval, conf, max_n=20)
    assert info.value.max_n == 20
    assert "20" in str(info.value)


@pytest.mark.parametrize("max_n", [20_000, 1_000_000])
def test_tiny_relative_lower_bound_exhausts_the_budget_at_once(monkeypatch, max_n):
    # coverage at a is at most 1 - exp(-n a), so every passing n exceeds
    # ln(1/delta) / a ~ 3e300
    def evaluated(*args, **kwargs):
        raise AssertionError("coverage was evaluated")
    monkeypatch.setattr(poisson_ss.search, "scan_min_coverage", evaluated)
    monkeypatch.setattr(poisson_ss.search, "coverage_at", evaluated)
    with pytest.raises(MaxSampleSizeExceeded) as info:
        min_sample_size(Relative(0.1), ParamInterval(1e-300, 1.0),
                        ConfidenceSpec(0.05), max_n=max_n)
    assert info.value.max_n == max_n
    assert "ln(1/delta) / a" in str(info.value)


def test_relative_lower_bound_tie_is_left_to_the_scan(monkeypatch):
    # max_n * a equals ln(1/delta) up to rounding: the bound must not raise,
    # the scan decides (and here every n <= max_n fails)
    scanned = []
    real_scan = poisson_ss.search.scan_min_coverage

    def scan(*args):
        scanned.append(args[1])
        return real_scan(*args)

    monkeypatch.setattr(poisson_ss.search, "scan_min_coverage", scan)
    max_n, delta = 10, 0.1
    a = math.log(1.0 / delta) / max_n
    with pytest.raises(MaxSampleSizeExceeded) as info:
        min_sample_size(Relative(0.5), ParamInterval(a, 1.0),
                        ConfidenceSpec(delta), max_n=max_n)
    assert str(info.value) == f"no sufficient sample size found with n <= {max_n}"
    assert scanned == list(range(1, max_n + 1))


@pytest.mark.parametrize("criterion, interval, where", [
    # the crossover 2e-300 lies inside [0, 1]: ln(2) / 2e-300 ~ 3.5e299
    (Mixed(1e-300, 0.5), ParamInterval(0.0, 1.0), "crossover = 2e-300"),
    # the crossover lies below a = 1e-300, so the relative margin governs at a
    (Mixed(1e-301, 0.5), ParamInterval(1e-300, 1.0), "a = 1e-300"),
])
def test_tiny_mixed_relative_lower_bound_exhausts_the_budget_at_once(
        monkeypatch, criterion, interval, where):
    def evaluated(*args, **kwargs):
        raise AssertionError("coverage was evaluated")
    monkeypatch.setattr(poisson_ss.search, "scan_min_coverage", evaluated)
    monkeypatch.setattr(poisson_ss.search, "_fail_ranks", evaluated)
    monkeypatch.setattr(poisson_ss.search, "coverage_at", evaluated)
    with pytest.raises(MaxSampleSizeExceeded) as info:
        min_sample_size(criterion, interval, ConfidenceSpec(0.5))
    assert info.value.max_n == 1_000_000
    assert f"relative coverage at {where} needs" in str(info.value)


@settings(max_examples=30, deadline=None)
@given(
    eps_a=st.floats(0.1, 0.6),
    eps_r=st.floats(0.1, 0.6),
    a=st.just(0.0) | st.floats(0.05, 2.0),
    width=st.floats(0.2, 2.0),
    delta=st.floats(0.02, 0.4),
)
def test_mixed_answers_exceed_the_relative_lower_bound(eps_a, eps_r, a, width, delta):
    # the bound the search checks max_n against before any scan: the
    # coverage at r0, the least rate of [a, b] where the relative margin
    # governs, is at most 1 - exp(-n r0)
    criterion, interval = Mixed(eps_a, eps_r), ParamInterval(a, a + width)
    assume(criterion.crossover < interval.b)
    r0 = max(a, criterion.crossover)
    plan = min_sample_size(criterion, interval, ConfidenceSpec(delta))
    assert plan.n_min > math.log(1.0 / delta) / r0


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["abs", "mixed", "rel"]),
    eps=st.floats(0.08, 0.5),
    eps_r=st.floats(0.08, 0.5),
    a=st.just(0.0) | st.floats(0.1, 2.0),
    width=st.floats(0.05, 2.0),
    delta=st.floats(0.02, 0.4),
    back=st.integers(0, 30),
    length=st.integers(1, 30),
    chunk=st.sampled_from([None, 64]),
)
def test_batched_run_decides_each_n_as_its_fail_fast_scan(
        kind, eps, eps_r, a, width, delta, back, length, chunk):
    # a run decides n only by a failure its own fail-fast scan also finds,
    # at the same rank, and ends at the first n that scan finds passing.
    # Runs start up to 30 below the answer, so most hold failing and
    # passing n; 64-point chunks split each n's layout into several.
    if kind == "abs":
        criterion = Absolute(eps)
    elif kind == "mixed":
        criterion = Mixed(eps, eps_r)
    else:
        criterion, a = Relative(eps), max(a, 0.1)
    interval = ParamInterval(a, a + width)
    level = 1.0 - delta
    start = max(1, min_sample_size(criterion, interval, ConfidenceSpec(delta)).n_min - back)
    with mock.patch.object(candidates, "_CHUNK", chunk or candidates._CHUNK):
        ranks, built = search._fail_run(criterion, interval, delta, start, start + length - 1)
        assert len(ranks) <= built <= length
        for n, rank in zip(range(start, start + built), ranks + [None]):
            scanned = ParamInterval(a, search._scan_b(criterion, interval, delta, n))
            witness, count = scan_min_coverage(criterion, n, scanned, level)
            if rank is None:
                assert witness.coverage > level
            else:
                assert witness.coverage <= level
                assert count == rank


# n_min 276; from n = 32 on, its failing n are decided in batched runs of
# about 16
_BATCHED = (Absolute(0.1), ParamInterval(0.0, 1.0), ConfidenceSpec(0.1))


def _record_layouts(monkeypatch, fail=lambda n: False) -> list[int]:
    """Record every n whose layout the search builds, for a batched run or
    a sequential scan, and make building it raise where ``fail(n)``."""
    seen = []
    build = poisson_ss.minimizer._layout

    def layout(criterion, n, interval):
        seen.append(n)
        if fail(n):
            raise ValueError(f"injected at n = {n}")
        return build(criterion, n, interval)

    monkeypatch.setattr(poisson_ss.search, "_layout", layout, raising=False)
    monkeypatch.setattr(poisson_ss.minimizer, "_layout", layout)
    return seen


def test_batched_runs_never_build_past_max_n(monkeypatch):
    plan = min_sample_size(*_BATCHED)
    seen = _record_layouts(monkeypatch)
    assert min_sample_size(*_BATCHED, max_n=plan.n_min) == plan
    assert max(seen) == plan.n_min


@pytest.mark.parametrize("max_n", [250, 275])
def test_budget_inside_a_batched_run_raises_as_before(monkeypatch, max_n):
    seen = _record_layouts(monkeypatch)
    with pytest.raises(MaxSampleSizeExceeded) as info:
        min_sample_size(*_BATCHED, max_n=max_n)
    assert str(info.value) == f"no sufficient sample size found with n <= {max_n}"
    assert info.value.max_n == max_n
    assert max(seen) == max_n


def test_errors_building_n_past_the_answer_do_not_surface(monkeypatch):
    plan = min_sample_size(*_BATCHED)
    seen = _record_layouts(monkeypatch, fail=lambda n: n > plan.n_min)
    assert min_sample_size(*_BATCHED) == plan
    assert max(seen) > plan.n_min  # a run did reach past the answer


@pytest.mark.parametrize("bad_n", [40, 250])
def test_errors_building_n_below_the_answer_surface(monkeypatch, bad_n):
    _record_layouts(monkeypatch, fail=lambda n: n == bad_n)
    with pytest.raises(ValueError, match=f"^injected at n = {bad_n}$"):
        min_sample_size(*_BATCHED)


def test_start_n_floors_the_search():
    plan = min_sample_size(Absolute(0.5), ParamInterval(0.0, 0.5),
                           ConfidenceSpec(0.5), start_n=200)
    assert plan.n_min >= 200


def test_generous_risk_level_accepts_tiny_n():
    plan = min_sample_size(Absolute(0.3), ParamInterval(0.0, 1.0),
                           ConfidenceSpec(0.999))
    assert plan.n_min == 2
    assert plan.worst_coverage == pytest.approx(0.258427543033159, rel=1e-12)


def test_option_validation():
    crit = Absolute(0.5)
    iv = ParamInterval(0.0, 0.5)
    conf = ConfidenceSpec(0.5)
    with pytest.raises(ValueError):
        min_sample_size(crit, iv, conf, start_n=0)
    with pytest.raises(ValueError):
        min_sample_size(crit, iv, conf, start_n=10, max_n=9)


def test_configuration_validation_precedes_search():
    with pytest.raises(DeltaOutOfRange):
        min_sample_size(Absolute(0.5), ParamInterval(0.0, 0.5), ConfidenceSpec(0.0))


def _untruncated_search(criterion, interval, delta):
    """The search with every n decided by a scan of all of [a, b]:
    (n_min, total evaluations)."""
    evaluations = 0
    for n in itertools.count(1):
        witness, evals = scan_min_coverage(criterion, n, interval, 1.0 - delta)
        evaluations += evals
        if witness.coverage > 1.0 - delta:
            return n, evaluations


def test_truncation_never_changes_the_answer():
    criterion = Relative(0.4)
    interval = ParamInterval(0.5, 8.0)
    delta = 0.15
    plan = min_sample_size(criterion, interval, ConfidenceSpec(delta))
    n_full, evals_full = _untruncated_search(criterion, interval, delta)
    assert plan.n_min == n_full == 31
    assert plan.truncated_b < interval.b       # the tail bounds bit
    assert plan.evaluations < evals_full       # and they saved work


@settings(max_examples=50, deadline=None)
@given(
    mixed=st.booleans(),
    eps=st.floats(0.25, 0.6),
    eps_a=st.floats(0.05, 0.5),
    a=st.floats(0.5, 2.0),
    width=st.floats(2.0, 10.0),
    delta=st.floats(0.1, 0.4),
)
def test_truncated_search_is_exact_on_the_whole_interval(
        mixed, eps, eps_a, a, width, delta):
    # every n below n_min has a failing rate somewhere in [a, b], confirmed
    # by brute force, and n_min covers all of [a, b], not just [a, scan_b]
    criterion = Mixed(eps_a, eps) if mixed else Relative(eps)
    interval = ParamInterval(a, a + width)
    level = 1.0 - delta
    plan = min_sample_size(criterion, interval, ConfidenceSpec(delta))
    assume(plan.truncated_b < interval.b)
    for n in range(1, plan.n_min):
        witness, _ = scan_min_coverage(criterion, n, interval, level)
        assert witness.coverage <= level
        assert brute_force_coverage(criterion, n, witness.lam) <= level + 1e-12
    assert exact_min_coverage(criterion, plan.n_min, interval) > level


@settings(max_examples=40, deadline=None)
@given(
    mixed=st.booleans(),
    eps=st.floats(0.25, 0.6),
    eps_r=st.floats(0.25, 0.6),
    b=st.floats(0.2, 1.5),
    delta=st.floats(0.1, 0.4),
)
def test_absolute_and_zero_based_mixed_searches_are_exact(mixed, eps, eps_r, b, delta):
    _assert_zero_based_search_is_exact(mixed, eps, eps_r, b, delta)


@pytest.mark.slow
@settings(max_examples=40, deadline=None)
@given(
    mixed=st.booleans(),
    eps=st.floats(0.1, 0.6),
    eps_r=st.floats(0.1, 0.6),
    b=st.floats(0.2, 3.0),
    delta=st.floats(0.1, 0.4),
)
def test_absolute_and_zero_based_mixed_searches_are_exact_on_wider_draws(
        mixed, eps, eps_r, b, delta):
    # smaller margins and longer intervals: thousands of candidates per n,
    # most of them decided by their coverage floors
    _assert_zero_based_search_is_exact(mixed, eps, eps_r, b, delta)


def _assert_zero_based_search_is_exact(mixed, eps, eps_r, b, delta):
    # the searches the truncated property above does not draw: n_min - 1
    # fails at a rate that brute force confirms, and n_min covers all of
    # [0, b] by the independent piecewise minimum
    criterion = Mixed(eps, eps_r) if mixed else Absolute(eps)
    interval = ParamInterval(0.0, b)
    level = 1.0 - delta
    plan = min_sample_size(criterion, interval, ConfidenceSpec(delta))
    if plan.n_min > 1:
        n = plan.n_min - 1
        witness, _ = scan_min_coverage(criterion, n, interval, level)
        assert witness.coverage <= level
        assert brute_force_coverage(criterion, n, witness.lam) <= level + 1e-12
    assert exact_min_coverage(criterion, plan.n_min, interval) > level


def test_degenerate_truncation_checks_only_the_lower_endpoint():
    # at n = 500 the certified threshold sits below a, so one evaluation at
    # a decides the whole interval
    plan = min_sample_size(Relative(0.5), ParamInterval(0.2, 100.0),
                           ConfidenceSpec(0.2), start_n=500)
    assert plan.n_min == 500
    assert plan.truncated_b == 0.2
    assert plan.evaluations == 1
    assert plan.worst_lambda == 0.2


@pytest.mark.parametrize("criterion", [Relative(0.2), Mixed(0.1, 0.2)])
def test_infinite_b_is_searched_when_the_tail_bound_truncates(criterion):
    conf = ConfidenceSpec(0.1)
    unbounded = min_sample_size(criterion, ParamInterval(0.5, math.inf), conf)
    bounded = min_sample_size(criterion, ParamInterval(0.5, 2.0), conf)
    assert unbounded.n_min == bounded.n_min == 141
    assert unbounded.worst_lambda == bounded.worst_lambda
    assert unbounded.worst_coverage == bounded.worst_coverage
    assert unbounded.truncated_b == bounded.truncated_b < 2.0


@pytest.mark.parametrize("criterion", [
    Absolute(0.1),
    Mixed(0.1, 5e-324),     # crossover inf: absolute on all of [a, b]
    Relative(1e-200),       # eps_r**2 underflows: the threshold is inf
    Mixed(0.1, 1e-200),
])
def test_infinite_b_without_truncation_is_a_validation_error(criterion):
    with pytest.raises(NonFiniteBound):
        min_sample_size(criterion, ParamInterval(0.5, math.inf),
                        ConfidenceSpec(0.1))


def test_absolute_criterion_has_nothing_to_truncate():
    plan = min_sample_size(Absolute(0.5), ParamInterval(0.0, 0.5),
                           ConfidenceSpec(0.5))
    assert plan.n_min == 3
    assert plan.truncated_b == 0.5


def test_default_options():
    params = inspect.signature(min_sample_size).parameters
    assert list(params) == ["criterion", "interval", "conf", "start_n", "max_n"]
    assert params["start_n"].default == 1
    assert params["max_n"].default == 1_000_000
    assert params["start_n"].kind is params["max_n"].kind is inspect.Parameter.KEYWORD_ONLY


@pytest.mark.slow
def test_large_plan_absolute_tenth():
    plan = min_sample_size(Absolute(0.1), ParamInterval(0.0, 2.0),
                           ConfidenceSpec(0.05))
    assert plan.n_min == 771
    assert plan.worst_coverage == pytest.approx(0.9501116713140707, rel=1e-12)
    assert plan.worst_lambda == pytest.approx(1.999870298313878, rel=1e-12)
    assert plan.evaluations == 710_968
    below = min_coverage(Absolute(0.1), 770, ParamInterval(0.0, 2.0))
    assert below.coverage == pytest.approx(0.9487716067238277, rel=1e-12)
    assert below.coverage <= 0.95


@pytest.mark.slow
def test_large_plan_absolute_tenth_to_five():
    # 1 925 failing n, each scanned up from rate 0 to its witness
    interval = ParamInterval(0.0, 5.0)
    plan = min_sample_size(Absolute(0.1), interval, ConfidenceSpec(0.05))
    assert plan.n_min == 1926
    assert plan.worst_lambda == 5.0
    assert plan.worst_coverage.hex() == "0x1.e6804fe0c20bcp-1"
    assert plan.evaluations == 11_121_875
    assert min_coverage(Absolute(0.1), 1925, interval).coverage <= 0.95
