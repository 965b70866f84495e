"""Exact minimum sample sizes for Poisson rate estimation.

Given an error criterion (absolute, relative, or mixed margin), a closed
interval of possible rates, and a risk level delta, this package computes
the smallest number of observations n such that the maximum-likelihood rate
estimate meets the margin with probability above 1 - delta for every rate
in the interval.  The worst case over the continuum of rates is reduced to
a finite candidate set, so answers are exact rather than asymptotic.
"""

from .candidates import candidate_set, candidate_stream, cardinality_bound
from .chernoff import TailBounds, lambda_threshold, tail_bounds
from .coverage import (
    AcceptanceBounds,
    acceptance_bounds,
    coverage_at,
    coverage_at_point,
)
from .kernel import interval_prob, pmf
from .minimizer import min_coverage, scan_min_coverage
from .oracle import brute_force_coverage, grid_min_coverage, monte_carlo_coverage
from .search import MaxSampleSizeExceeded, min_sample_size
from .types import (
    Absolute,
    CandidateKind,
    CandidatePoint,
    ConfidenceSpec,
    CoverageResult,
    DeltaOutOfRange,
    EmptyInterval,
    EpsilonOutOfRange,
    ErrorCriterion,
    MarginTooNarrow,
    Mixed,
    NegativeLowerBound,
    NonFiniteBound,
    ParamInterval,
    Relative,
    RelativeWithZeroLowerBound,
    SampleSizePlan,
    ValidationError,
    effective_criterion,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # configuration
    "Absolute",
    "Relative",
    "Mixed",
    "ErrorCriterion",
    "ParamInterval",
    "ConfidenceSpec",
    "validate",
    "effective_criterion",
    "ValidationError",
    "EpsilonOutOfRange",
    "DeltaOutOfRange",
    "EmptyInterval",
    "NegativeLowerBound",
    "NonFiniteBound",
    "RelativeWithZeroLowerBound",
    "MarginTooNarrow",
    # kernel
    "pmf",
    "interval_prob",
    # coverage
    "AcceptanceBounds",
    "acceptance_bounds",
    "coverage_at",
    "coverage_at_point",
    "CoverageResult",
    # candidates
    "CandidateKind",
    "CandidatePoint",
    "candidate_set",
    "candidate_stream",
    "cardinality_bound",
    # minimization and search
    "min_coverage",
    "scan_min_coverage",
    "min_sample_size",
    "MaxSampleSizeExceeded",
    "SampleSizePlan",
    # tail bounds
    "TailBounds",
    "tail_bounds",
    "lambda_threshold",
    # oracles
    "grid_min_coverage",
    "brute_force_coverage",
    "monte_carlo_coverage",
]
