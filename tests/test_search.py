"""Minimum sample size search: linear scan, gallop, truncation, budgets."""

import math

import numpy as np
import pytest

from poisson_ss import (
    Absolute,
    ConfidenceSpec,
    DeltaOutOfRange,
    MaxSampleSizeExceeded,
    Mixed,
    NonFiniteBound,
    ParamInterval,
    Relative,
    SearchOptions,
    min_coverage,
    min_sample_size,
)

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
]


@pytest.mark.parametrize(
    "criterion,interval,delta,n_min,worst_lam,worst_cov,evals,trunc_b", PINNED)
def test_pinned_plans(criterion, interval, delta, n_min, worst_lam, worst_cov,
                      evals, trunc_b):
    plan = min_sample_size(criterion, interval, ConfidenceSpec(delta))
    assert plan.n_min == n_min
    assert plan.worst_lambda == pytest.approx(worst_lam, rel=1e-13)
    assert plan.worst_coverage == pytest.approx(worst_cov, rel=1e-13)
    assert plan.evaluations == evals
    assert plan.truncated_b == pytest.approx(trunc_b, rel=1e-13)
    assert plan.worst_coverage > 1.0 - delta


@pytest.mark.parametrize(
    "criterion,interval,delta,n_min,worst_lam,worst_cov,evals,trunc_b", PINNED)
def test_gallop_matches_linear(criterion, interval, delta, n_min, worst_lam,
                               worst_cov, evals, trunc_b):
    linear = min_sample_size(criterion, interval, ConfidenceSpec(delta))
    gallop = min_sample_size(criterion, interval, ConfidenceSpec(delta),
                             SearchOptions(strategy="gallop"))
    assert gallop.n_min == linear.n_min
    assert gallop.worst_lambda == linear.worst_lambda
    assert gallop.worst_coverage == linear.worst_coverage
    assert gallop.truncated_b == linear.truncated_b


def test_returned_n_is_minimal():
    for criterion, interval, delta, n_min, *_ in PINNED:
        if n_min == 1:
            continue
        below = min_coverage(criterion, n_min - 1, interval)
        assert below.coverage <= 1.0 - delta + 1e-12


def test_gallop_survives_non_monotone_sufficiency():
    # here n = 7 suffices, n = 8 does not, n = 9 does again; a strategy that
    # walks down from a high passing probe until the first failure would
    # wrongly stop at 9
    criterion = Absolute(0.37201414200743804)
    interval = ParamInterval(0.4077344983460025, 1.281192605563476)
    delta = 0.42464361871197986
    level = 1.0 - delta
    assert min_coverage(criterion, 7, interval).coverage > level
    assert min_coverage(criterion, 8, interval).coverage <= level
    assert min_coverage(criterion, 9, interval).coverage > level
    linear = min_sample_size(criterion, interval, ConfidenceSpec(delta))
    gallop = min_sample_size(criterion, interval, ConfidenceSpec(delta),
                             SearchOptions(strategy="gallop"))
    assert linear.n_min == 7
    assert gallop.n_min == 7


def test_budget_exhaustion_raises_with_context():
    criterion = Relative(0.2)
    interval = ParamInterval(0.5, 2.0)
    conf = ConfidenceSpec(0.1)  # needs n = 141
    for strategy in ("linear", "gallop"):
        with pytest.raises(MaxSampleSizeExceeded) as info:
            min_sample_size(criterion, interval, conf,
                            SearchOptions(max_n=20, strategy=strategy))
        assert info.value.max_n == 20
        assert "20" in str(info.value)


def test_start_n_floors_the_search():
    plan = min_sample_size(Absolute(0.5), ParamInterval(0.0, 0.5),
                           ConfidenceSpec(0.5), SearchOptions(start_n=200))
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
        min_sample_size(crit, iv, conf, SearchOptions(start_n=0))
    with pytest.raises(ValueError):
        min_sample_size(crit, iv, conf, SearchOptions(start_n=10, max_n=9))
    with pytest.raises(ValueError):
        min_sample_size(crit, iv, conf, SearchOptions(strategy="binary"))


def test_configuration_validation_precedes_search():
    with pytest.raises(DeltaOutOfRange):
        min_sample_size(Absolute(0.5), ParamInterval(0.0, 0.5), ConfidenceSpec(0.0))


def test_truncation_never_changes_the_answer():
    criterion = Relative(0.4)
    interval = ParamInterval(0.5, 8.0)
    conf = ConfidenceSpec(0.15)
    on = min_sample_size(criterion, interval, conf, SearchOptions(use_chernoff=True))
    off = min_sample_size(criterion, interval, conf, SearchOptions(use_chernoff=False))
    assert on.n_min == off.n_min == 31
    assert on.truncated_b < interval.b       # the tail bounds bit
    assert off.truncated_b == interval.b
    assert on.evaluations < off.evaluations  # and they saved work


def test_degenerate_truncation_checks_only_the_lower_endpoint():
    # at n = 500 the certified threshold sits below a, so one evaluation at
    # a decides the whole interval
    plan = min_sample_size(Relative(0.5), ParamInterval(0.2, 100.0),
                           ConfidenceSpec(0.2), SearchOptions(start_n=500))
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


@pytest.mark.parametrize("criterion, opts", [
    (Absolute(0.1), SearchOptions()),
    (Absolute(0.1), SearchOptions(use_chernoff=True)),
    (Relative(0.2), SearchOptions(use_chernoff=False)),
    (Mixed(0.1, 0.2), SearchOptions(use_chernoff=False)),
])
def test_infinite_b_without_truncation_is_a_validation_error(criterion, opts):
    with pytest.raises(NonFiniteBound):
        min_sample_size(criterion, ParamInterval(0.5, math.inf),
                        ConfidenceSpec(0.1), opts)


def test_absolute_criterion_has_nothing_to_truncate():
    plan = min_sample_size(Absolute(0.5), ParamInterval(0.0, 0.5),
                           ConfidenceSpec(0.5), SearchOptions(use_chernoff=True))
    assert plan.n_min == 3
    assert plan.truncated_b == 0.5


def test_default_options():
    opts = SearchOptions()
    assert opts.start_n == 1
    assert opts.max_n == 1_000_000
    assert opts.strategy == "linear"
    assert opts.fail_fast is True
    assert opts.use_chernoff is None


def test_gallop_matches_linear_on_many_random_configs():
    rng = np.random.default_rng(100179)
    for i in range(100):
        kind = ("abs", "rel", "mix")[i % 3]
        delta = float(rng.uniform(0.2, 0.5))
        if kind == "abs":
            crit = Absolute(float(rng.uniform(0.25, 0.7)))
            a = float(rng.uniform(0.0, 2.0))
        elif kind == "rel":
            crit = Relative(float(rng.uniform(0.25, 0.7)))
            a = float(rng.uniform(0.1, 2.0))
        else:
            crit = Mixed(float(rng.uniform(0.25, 0.7)),
                         float(rng.uniform(0.25, 0.7)))
            a = float(rng.uniform(0.1, 2.0))
        interval = ParamInterval(a, a + float(rng.uniform(0.1, 1.5)))
        conf = ConfidenceSpec(delta)
        linear = min_sample_size(crit, interval, conf)
        gallop = min_sample_size(crit, interval, conf,
                                 SearchOptions(strategy="gallop"))
        assert gallop.n_min == linear.n_min, (i, crit, interval, delta)
        assert gallop.worst_lambda == linear.worst_lambda, i
        assert gallop.worst_coverage == linear.worst_coverage, i


@pytest.mark.slow
def test_large_plan_absolute_tenth():
    plan = min_sample_size(Absolute(0.1), ParamInterval(0.0, 2.0),
                           ConfidenceSpec(0.05))
    assert plan.n_min == 771
    assert plan.worst_coverage == pytest.approx(0.9501116713140707, rel=1e-12)
    assert plan.worst_lambda == pytest.approx(1.999870298313878, rel=1e-12)
    below = min_coverage(Absolute(0.1), 770, ParamInterval(0.0, 2.0))
    assert below.coverage == pytest.approx(0.9487716067238277, rel=1e-12)
    assert below.coverage <= 0.95
