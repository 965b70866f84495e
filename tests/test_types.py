"""Configuration validation and criterion resolution."""

import dataclasses
import math

import numpy as np
import pytest

import poisson_ss

from poisson_ss import (
    Absolute,
    CandidateKind,
    CandidatePoint,
    ConfidenceSpec,
    DeltaOutOfRange,
    EmptyInterval,
    EpsilonOutOfRange,
    Mixed,
    NegativeLowerBound,
    NonFiniteBound,
    ParamInterval,
    Relative,
    RelativeWithZeroLowerBound,
    ValidationError,
    effective_criterion,
    min_sample_size,
    validate,
)
from poisson_ss.types import _MIN_DELTA


def test_validate_returns_configuration_unchanged():
    crit = Relative(0.2)
    iv = ParamInterval(0.5, 2.0)
    conf = ConfidenceSpec(0.1)
    assert validate(crit, iv, conf) == (crit, iv, conf)


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.3, 1.7])
def test_absolute_margin_must_be_inside_unit_interval(eps):
    with pytest.raises(EpsilonOutOfRange):
        validate(Absolute(eps), ParamInterval(0.0, 1.0), ConfidenceSpec(0.1))


@pytest.mark.parametrize("eps_a,eps_r", [(0.0, 0.5), (0.5, 0.0), (1.0, 0.5), (0.5, 1.5)])
def test_mixed_margins_must_both_be_inside_unit_interval(eps_a, eps_r):
    with pytest.raises(EpsilonOutOfRange):
        validate(Mixed(eps_a, eps_r), ParamInterval(0.1, 1.0), ConfidenceSpec(0.1))


@pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 2.0])
def test_delta_must_be_inside_unit_interval(delta):
    with pytest.raises(DeltaOutOfRange):
        validate(Absolute(0.1), ParamInterval(0.0, 1.0), ConfidenceSpec(delta))


@pytest.mark.parametrize("delta", [1e-17, 5e-324, 2.0 ** -54])
def test_delta_too_small_for_floats_is_refused(delta):
    # 1 - delta rounds to 1.0: no coverage can exceed the level, so a
    # search would walk on to max_n
    assert 1.0 - delta == 1.0
    with pytest.raises(DeltaOutOfRange, match="too small for floats"):
        validate(Absolute(0.5), ParamInterval(0.0, 0.5), ConfidenceSpec(delta))
    with pytest.raises(DeltaOutOfRange, match="rounds to 1.0"):
        min_sample_size(Absolute(0.5), ParamInterval(0.0, 0.5), ConfidenceSpec(delta))
    # the least delta a search can decide passes the gate, the float below it
    # does not
    validate(Absolute(0.5), ParamInterval(0.0, 0.5), ConfidenceSpec(_MIN_DELTA))
    with pytest.raises(DeltaOutOfRange, match="too small for floats"):
        validate(Absolute(0.5), ParamInterval(0.0, 0.5),
                 ConfidenceSpec(math.nextafter(_MIN_DELTA, 0.0)))


@pytest.mark.parametrize("criterion, interval, n_min", [
    (Absolute(0.5), ParamInterval(0.0, 0.5), 106),
    (Relative(0.2), ParamInterval(0.5, 2.0), 2166),
])
def test_the_least_delta_is_still_searched(criterion, interval, n_min):
    plan = min_sample_size(criterion, interval, ConfidenceSpec(_MIN_DELTA))
    assert plan.n_min == n_min
    assert plan.worst_coverage > 1.0 - _MIN_DELTA


def test_interval_must_be_nonempty():
    with pytest.raises(EmptyInterval):
        validate(Absolute(0.1), ParamInterval(1.0, 1.0), ConfidenceSpec(0.1))
    with pytest.raises(EmptyInterval):
        validate(Absolute(0.1), ParamInterval(2.0, 1.0), ConfidenceSpec(0.1))


def test_interval_lower_bound_must_be_nonnegative():
    with pytest.raises(NegativeLowerBound):
        validate(Absolute(0.1), ParamInterval(-0.5, 1.0), ConfidenceSpec(0.1))


@pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan])
def test_interval_lower_bound_must_be_finite(a):
    with pytest.raises(NonFiniteBound):
        validate(Absolute(0.1), ParamInterval(a, math.inf), ConfidenceSpec(0.1))


def test_infinite_upper_bound_passes_validation():
    # only the search knows whether its tail bound makes the scan finite
    for crit in (Absolute(0.1), Relative(0.1), Mixed(0.1, 0.2)):
        validate(crit, ParamInterval(0.5, math.inf), ConfidenceSpec(0.1))


def test_relative_criterion_rejects_zero_lower_bound():
    with pytest.raises(RelativeWithZeroLowerBound):
        validate(Relative(0.1), ParamInterval(0.0, 1.0), ConfidenceSpec(0.1))


def test_absolute_and_mixed_accept_zero_lower_bound():
    validate(Absolute(0.1), ParamInterval(0.0, 1.0), ConfidenceSpec(0.1))
    validate(Mixed(0.2, 0.4), ParamInterval(0.0, 1.0), ConfidenceSpec(0.1))


def test_margin_violation_reported_before_delta_violation():
    # both eps and delta are bad; the most specific first check wins
    with pytest.raises(EpsilonOutOfRange):
        validate(Absolute(0.0), ParamInterval(0.0, 1.0), ConfidenceSpec(5.0))


def test_all_validation_errors_are_value_errors():
    for exc in (EpsilonOutOfRange, DeltaOutOfRange, EmptyInterval,
                NonFiniteBound, NegativeLowerBound, RelativeWithZeroLowerBound):
        assert issubclass(exc, ValidationError)
        assert issubclass(exc, ValueError)


def test_unknown_criterion_type_rejected():
    with pytest.raises(ValidationError):
        validate(object(), ParamInterval(0.0, 1.0), ConfidenceSpec(0.1))


def test_mixed_crossover_is_margin_ratio():
    assert Mixed(0.3, 0.2).crossover == pytest.approx(1.5)
    assert Mixed(0.1, 0.5).crossover == pytest.approx(0.2)


def test_effective_criterion_resolves_offside_crossover():
    # crossover 0.25 below the interval: relative margin governs throughout
    assert effective_criterion(Mixed(0.1, 0.4), ParamInterval(0.5, 2.0)) == Relative(0.4)
    # crossover 4.0 above the interval: absolute margin governs throughout
    assert effective_criterion(Mixed(0.8, 0.2), ParamInterval(0.5, 2.0)) == Absolute(0.8)


def test_effective_criterion_keeps_interior_crossover():
    crit = Mixed(0.3, 0.2)  # crossover 1.5
    assert effective_criterion(crit, ParamInterval(0.5, 2.0)) is crit


def test_effective_criterion_passes_pure_criteria_through():
    crit = Absolute(0.1)
    assert effective_criterion(crit, ParamInterval(0.0, 1.0)) is crit
    crit = Relative(0.1)
    assert effective_criterion(crit, ParamInterval(0.5, 1.0)) is crit


def test_configuration_carriers_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        Absolute(0.1).eps = 0.2
    with pytest.raises(dataclasses.FrozenInstanceError):
        ParamInterval(0.0, 1.0).b = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        ConfidenceSpec(0.1).delta = 0.2


def test_interval_width():
    assert ParamInterval(0.5, 2.25).width == pytest.approx(1.75)


def test_candidate_point_grid_tags_collects_all_memberships():
    plain = CandidatePoint(0.5, CandidateKind.ENDPOINT_A)
    assert plain.grid_tags() == ()

    tagged = CandidatePoint(0.25, CandidateKind.ABS_PLUS, ell=0,
                            extra_tags=((CandidateKind.ABS_MINUS, 1),))
    assert tagged.grid_tags() == (
        (CandidateKind.ABS_PLUS, 0), (CandidateKind.ABS_MINUS, 1))

    # endpoints never contribute their own kind, only collided breakpoints
    merged = CandidatePoint(0.25, CandidateKind.ENDPOINT_B,
                            extra_tags=((CandidateKind.REL_LOWER, 3),))
    assert merged.grid_tags() == ((CandidateKind.REL_LOWER, 3),)


_UNIT = ParamInterval(0.0, 1.0)


@pytest.mark.parametrize("call", [
    lambda n: poisson_ss.cardinality_bound(Absolute(0.1), n, _UNIT),
    lambda n: poisson_ss.candidate_set(Absolute(0.1), n, _UNIT),
    lambda n: tuple(poisson_ss.candidate_stream(Absolute(0.1), n, _UNIT)),
    lambda n: poisson_ss.min_coverage(Absolute(0.1), n, _UNIT),
    lambda n: poisson_ss.scan_min_coverage(Absolute(0.1), n, _UNIT, 0.9),
    lambda n: poisson_ss.grid_min_coverage(Absolute(0.1), n, _UNIT, points=11),
    lambda n: poisson_ss.acceptance_bounds(Absolute(0.1), n, 0.5),
    lambda n: poisson_ss.coverage_at(Absolute(0.1), n, 0.5),
    lambda n: poisson_ss.coverage_at_point(
        Absolute(0.1), n, CandidatePoint(0.5, CandidateKind.ENDPOINT_A)),
    lambda n: poisson_ss.tail_bounds(n, 0.5, 0.1),
    lambda n: poisson_ss.lambda_threshold(n, 0.1, 0.1),
    lambda n: poisson_ss.brute_force_coverage(Absolute(0.1), n, 0.5),
    lambda n: poisson_ss.monte_carlo_coverage(Absolute(0.1), n, 0.5, 10),
])
def test_every_sample_size_check_refuses_zero_and_a_size_above_the_largest_float(call):
    with pytest.raises(ValueError, match=r"^sample size must be >= 1, got 0$"):
        call(0)
    with pytest.raises(ValueError, match="no larger than the largest float"):
        call(10 ** 400)
    # n is an integer: not a float, even one with an integer value, and not
    # a bool of any kind, though True == 1
    for n in (2.5, 276.0, math.nan, True, np.True_):
        with pytest.raises(ValueError, match=r"^sample size must be an integer, got "):
            call(n)
