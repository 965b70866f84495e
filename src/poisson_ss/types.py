"""Domain vocabulary for Poisson sample-size planning.

A planning problem is a triple (criterion, interval, confidence): which error
event should hold, over which range of unknown rates it must hold, and with
what probability.  The dataclasses here are plain carriers; `validate` is the
single gate that enforces every field invariant, so anything downstream of a
successful `validate` call may assume a well-formed configuration.

Each argument rule is written once, here, and every public call goes
through it: `_check_integer` for a count (a sample size, a search bound, a
seed, a number of trials or grid points), `_check_sample_size` for n,
`_check_rate` for a rate, `_check_margin` for one margin and
`_check_margins` for a criterion's, and `_check_delta` for a risk level.
So is the margin at a rate, `_margin`, and the window side each
breakpoint family pins, `_PIN_SIDE`.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum


class ValidationError(ValueError):
    """Base class for configuration errors raised by `validate`."""


class EpsilonOutOfRange(ValidationError):
    """A margin parameter lies outside the open interval (0, 1)."""


class DeltaOutOfRange(ValidationError):
    """The risk level lies outside the open interval (0, 1)."""


class EmptyInterval(ValidationError):
    """The rate interval has a >= b."""


class NonFiniteBound(ValidationError):
    """A rate bound is infinite or NaN where the computation needs it finite."""


class NegativeLowerBound(ValidationError):
    """The rate interval has a < 0."""


class RelativeWithZeroLowerBound(ValidationError):
    """A relative margin cannot be certified down to rate zero."""


class MarginTooNarrow(ValidationError):
    """At some rate the margin is narrower than the window rule resolves:
    both window ends fall on one count that lies strictly between them."""


@dataclass(frozen=True, slots=True)
class Absolute:
    """Error event |est - lam| < eps, uniformly in the rate lam."""

    eps: float


@dataclass(frozen=True, slots=True)
class Relative:
    """Error event |est - lam| < eps * lam."""

    eps: float


@dataclass(frozen=True, slots=True)
class Mixed:
    """Error event |est - lam| < eps_a  OR  |est - lam| < eps_r * lam.

    Below the crossover rate eps_a / eps_r the absolute margin is the wider
    of the two and governs the event; above it the relative margin governs.
    """

    eps_a: float
    eps_r: float

    @property
    def crossover(self) -> float:
        return self.eps_a / self.eps_r


ErrorCriterion = Absolute | Relative | Mixed


@dataclass(frozen=True, slots=True)
class ParamInterval:
    """Closed rate interval [a, b] over which the guarantee must hold."""

    a: float
    b: float

    @property
    def width(self) -> float:
        return self.b - self.a


@dataclass(frozen=True, slots=True)
class ConfidenceSpec:
    """Risk level delta; the error event must have probability > 1 - delta."""

    delta: float


class CandidateKind(Enum):
    """Provenance of a candidate rate: interval endpoint, margin crossover,
    or a member of one of the four breakpoint families.  Members are
    declared in priority order among candidates of equal value."""

    ENDPOINT_A = "endpoint_a"
    ENDPOINT_B = "endpoint_b"
    CROSSOVER = "crossover"
    ABS_PLUS = "abs_plus"      # value = ell / n + eps
    ABS_MINUS = "abs_minus"    # value = ell / n - eps
    REL_UPPER = "rel_upper"    # value = ell / (n * (1 + eps))
    REL_LOWER = "rel_lower"    # value = ell / (n * (1 - eps))


# The side of the window each breakpoint family, and only those, pins at
# its own members, as `coverage._coverage` reads a point's tags: 0 for g,
# 1 for h.
_PIN_SIDE = {CandidateKind.ABS_PLUS: 0, CandidateKind.REL_LOWER: 0,
             CandidateKind.ABS_MINUS: 1, CandidateKind.REL_UPPER: 1}


@dataclass(frozen=True, slots=True)
class CandidatePoint:
    """A rate at which the worst-case coverage over an interval can occur.

    A breakpoint carries the integer `ell` that defines it, which lets one
    side of the acceptance window be computed in exact integer arithmetic.
    When two families collide at the same value, the extra memberships are
    kept in `extra_tags` so both sides stay exact.
    """

    value: float
    kind: CandidateKind
    ell: int | None = None
    extra_tags: tuple[tuple[CandidateKind, int], ...] = ()

    def grid_tags(self) -> tuple[tuple[CandidateKind, int], ...]:
        """All (kind, ell) breakpoint memberships of this point."""
        own: tuple[tuple[CandidateKind, int], ...]
        own = ((self.kind, self.ell),) if self.kind in _PIN_SIDE else ()
        return own + self.extra_tags


@dataclass(frozen=True, slots=True)
class CoverageResult:
    """Coverage of the acceptance window [g, h] at one rate.

    g > h encodes an empty window (coverage zero); h = -1 can occur for the
    relative criterion at lam = 0.
    """

    lam: float
    g: int
    h: int
    coverage: float


@dataclass(frozen=True, slots=True)
class SampleSizePlan:
    """Outcome of a minimum sample size search.

    truncated_b is the upper endpoint of the interval actually scanned at
    n_min; it equals b unless the exponential tail-bound shortcut discharged
    the high-rate region.  evaluations counts coverage evaluations across
    the whole search, not just the returned n.
    """

    n_min: int
    worst_lambda: float
    worst_coverage: float
    evaluations: int
    truncated_b: float


_LARGEST_FLOAT = sys.float_info.max


def _check_integer(name: str, value: int) -> None:
    """Raise ValueError unless ``value`` is an integer: a `numbers.Integral`
    and not a bool (numpy's bool is no `numbers.Integral`), so neither
    2.5, 276.0 nor True is a count.  The message names the argument."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_sample_size(n: int) -> None:
    """Raise ValueError unless n is an integer (`_check_integer`) from 1 to
    the largest float: every window and coverage step multiplies n into
    floats."""
    _check_integer("sample size", n)
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n!r}")
    if n > _LARGEST_FLOAT:
        raise ValueError(
            f"sample size must be no larger than the largest float, "
            f"{_LARGEST_FLOAT!r}")


def _check_rate(lam: float) -> None:
    """Raise ValueError unless the rate is nonnegative (NaN is not)."""
    if not (lam >= 0.0):
        raise ValueError(f"rate must be nonnegative, got {lam!r}")


def _check_margin(eps: float) -> None:
    """Raise `EpsilonOutOfRange` unless the margin lies strictly inside
    (0, 1)."""
    if not (0.0 < eps < 1.0):
        raise EpsilonOutOfRange(f"margin must lie strictly inside (0, 1), got {eps!r}")


def _check_margins(criterion: ErrorCriterion) -> None:
    """`_check_margin` for every margin of the criterion, and TypeError for
    a criterion of unknown type."""
    if isinstance(criterion, (Absolute, Relative)):
        _check_margin(criterion.eps)
    elif isinstance(criterion, Mixed):
        _check_margin(criterion.eps_a)
        _check_margin(criterion.eps_r)
    else:
        raise TypeError(f"unknown criterion type: {criterion!r}")


def _margin(criterion: ErrorCriterion, lam: float) -> float:
    """The largest error the event allows at rate lam, of a criterion that
    passed `_check_margins`.  A mixed event holds when either margin does,
    so its margin is the larger of the two."""
    if isinstance(criterion, Absolute):
        return criterion.eps
    if isinstance(criterion, Relative):
        return criterion.eps * lam
    return max(criterion.eps_a, criterion.eps_r * lam)


# The least risk level `validate` accepts.  A coverage close to 1 is summed
# with an error of some 1e-14 (Absolute(0.5) at n = 1000 sums 7.4e-15 below
# a mass of 1 at rate 0.014), so a level that close to 1 cannot be told
# from the coverages around it, and a search would walk on to max_n; 1e-10
# keeps four orders of magnitude clear of that error.
_MIN_DELTA = 1e-10


def _check_delta(delta: float) -> None:
    """Raise `DeltaOutOfRange` unless the risk level lies strictly inside
    (0, 1)."""
    if not (0.0 < delta < 1.0):
        raise DeltaOutOfRange(f"risk level must lie strictly inside (0, 1), got {delta!r}")


def validate(
    criterion: ErrorCriterion,
    interval: ParamInterval,
    conf: ConfidenceSpec,
) -> tuple[ErrorCriterion, ParamInterval, ConfidenceSpec]:
    """Check a planning configuration, returning it unchanged if well formed.

    Raises the most specific `ValidationError` subclass on the first
    violated constraint; a delta below _MIN_DELTA is refused too, since
    1 - delta then rounds to 1.0, which no coverage can exceed, or comes
    near the kernel's rounding error of coverages just below 1.  A Mixed
    criterion whose crossover falls at or below a (or at or above b) is
    accepted; it simply behaves as the pure relative (or absolute)
    criterion over the whole interval.  The upper bound b may be +inf; only
    a search whose tail bound truncates the scan can use it, and a scan
    over it raises `NonFiniteBound`.
    """
    if not isinstance(criterion, (Absolute, Relative, Mixed)):
        raise ValidationError(f"unknown criterion type: {criterion!r}")
    _check_margins(criterion)
    _check_delta(conf.delta)
    if conf.delta < _MIN_DELTA:
        raise DeltaOutOfRange(
            f"risk level {conf.delta!r} is too small for floats: below {_MIN_DELTA!r}, "
            "1 - delta rounds to 1.0 or lies so close to it that the kernel's "
            "rounding error can decide whether a coverage exceeds it")
    if not math.isfinite(interval.a):
        raise NonFiniteBound(
            f"rate interval needs a finite lower bound, got a={interval.a!r}")
    if interval.a < 0.0:
        raise NegativeLowerBound(
            f"rate interval must satisfy a >= 0, got a={interval.a!r}")
    if not (interval.a < interval.b):
        raise EmptyInterval(
            f"rate interval must satisfy a < b, got [{interval.a!r}, {interval.b!r}]")
    if isinstance(criterion, Relative) and interval.a <= 0.0:
        raise RelativeWithZeroLowerBound(
            "a relative margin requires a strictly positive lower rate bound")
    return criterion, interval, conf


def effective_criterion(
    criterion: ErrorCriterion, interval: ParamInterval
) -> ErrorCriterion:
    """Resolve a Mixed criterion whose crossover misses the interval.

    With crossover <= a the relative margin governs everywhere on [a, b];
    with crossover >= b the absolute margin does.  Other criteria (and Mixed
    with an interior crossover) are returned unchanged.
    """
    if isinstance(criterion, Mixed):
        cx = criterion.crossover
        if cx <= interval.a:
            return Relative(criterion.eps_r)
        if cx >= interval.b:
            return Absolute(criterion.eps_a)
    return criterion
