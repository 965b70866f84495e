"""Minimum sample size search: ascending scan, truncation, budgets."""

import contextlib
import hashlib
import inspect
import itertools
import math
import random
import sys
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import poisson_ss.minimizer
import poisson_ss.search
from poisson_ss import (
    Absolute,
    ConfidenceSpec,
    DeltaOutOfRange,
    EpsilonOutOfRange,
    MarginTooNarrow,
    MaxSampleSizeExceeded,
    Mixed,
    NonFiniteBound,
    ParamInterval,
    Relative,
    brute_force_coverage,
    candidate_set,
    coverage_at,
    min_coverage,
    min_sample_size,
    scan_min_coverage,
)
from poisson_ss import candidates, kernel, minimizer, search
from poisson_ss.coverage import _windows

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


# Large Relative searches whose failing n nearly all fail at their first
# candidate, a, which blocks at a decide in one kernel call each.  past_a
# is what the failing n spend past a: evaluations less one per failing n
# and less the passing n's count (131 n near the answer of the first
# search fail at ranks 2 to 8; all 100 000 of the second fail at a).  The
# third holds a dozen blocks capped at _CHUNK n before its first n whose
# a passes.
_FAIL_AT_A = [
    (Relative(0.05), ParamInterval(0.1, 10.0), 0.05,
     15_496, "0x1.9c59579fc9052p-4", "0x1.e68abfd1495dap-1", 20_172,
     "0x1.f8d4dc0abf6bcp-3", 249),
    (Relative(0.999999), ParamInterval(1e-5, 1e5), 0.5,
     100_001, "0x1.4f8b588e368f1p-17", "0x1.1a8848422bc5cp-1", 100_007,
     "0x1.2d0a1e0930cb9p-15", 0),
    (Relative(0.02), ParamInterval(0.1, 10.0), 0.05,
     96_501, "0x1.9aa2d600eb153p-4", "0x1.e688f0a5ab24ep-1", 129_943,
     "0x1.faa8400b9d420p-3", 5_279),
]


@pytest.mark.parametrize(
    "criterion,interval,delta,n_min,worst_lam,worst_cov,evals,trunc_b,past_a", _FAIL_AT_A)
def test_pinned_searches_failing_nearly_every_n_at_a(
        criterion, interval, delta, n_min, worst_lam, worst_cov, evals, trunc_b, past_a):
    plan = min_sample_size(criterion, interval, ConfidenceSpec(delta))
    assert plan.n_min == n_min
    assert plan.worst_lambda.hex() == worst_lam
    assert plan.worst_coverage.hex() == worst_cov
    assert plan.evaluations == evals
    assert plan.truncated_b.hex() == trunc_b
    scanned = ParamInterval(interval.a, plan.truncated_b)
    _, count = scan_min_coverage(criterion, n_min, scanned, 1.0 - delta)
    assert evals - (n_min - 1) - count == past_a


def _a_verdict(criterion, interval, delta, n, prefix=None):
    """n's verdict as the search decides it alone: the public fail-fast scan
    of [a, scan_b], or the coverage at a alone where the tail bounds leave
    only a; with ``prefix``, the scan stops after that many candidates
    (None if none of them fails)."""
    scan_b = search._scan_b(criterion, interval, delta, n)
    if scan_b <= interval.a:
        result = coverage_at(criterion, n, interval.a)
        return (result, 1) if prefix is None or result.coverage <= 1.0 - delta else None
    layout = candidates._layout(criterion, n, ParamInterval(interval.a, scan_b))
    if prefix is None:
        return minimizer._verdict(criterion, n, layout, 1.0 - delta)
    with mock.patch.object(minimizer, "_PREFIX", prefix):
        return minimizer._probe(criterion, n, layout, 1.0 - delta)


@st.composite
def _blocks_at_a(draw):
    """(criterion, interval, delta, ns) for a block at a: a drawn at random,
    on or a few merge tolerances off a breakpoint of one of the block's n,
    or on or next to a mixed crossover; b next to a, a few units above it,
    or inf; n where the tail bounds leave only a, and where they do not; a
    margin too narrow for the window rule at a."""
    kind = draw(st.sampled_from(["abs", "mixed", "rel"]))
    eps, eps_r = draw(st.floats(0.02, 0.6) | st.just(1e-13)), draw(st.floats(0.02, 0.6))
    criterion = {"abs": Absolute(eps), "mixed": Mixed(eps, eps_r), "rel": Relative(eps)}[kind]
    first = draw(st.integers(1, 3000))
    ns = np.arange(first, first + draw(st.integers(1, 64)))
    off = draw(st.sampled_from([0.0, 0.5, -0.5, 1.0, 3.0, -5.0]) | st.floats(-9.0, 9.0))
    case = draw(st.sampled_from(["random", "breakpoint", "crossover"]))
    if case == "crossover" and kind == "mixed":
        a = criterion.crossover
    elif case == "breakpoint":
        n = int(draw(st.sampled_from(ns.tolist())))
        pieces = (Absolute(eps), Relative(eps_r)) if kind == "mixed" else (criterion,)
        div, shift = draw(st.sampled_from([
            (div, shift) for piece in pieces for _, div, shift in candidates._progressions(piece, n)]))
        a = max(0.0, math.floor(div * (draw(st.floats(0.05, 3.0)) - shift)) / div + shift)
    else:
        a = draw(st.floats(0.05, 3.0))
    a = max(a + off * 1e-12 * max(1.0, a), 0.0 if kind == "abs" else 1e-3)
    width = draw(st.sampled_from([1e-13, 3e-12, 1e-9, math.inf]) | st.floats(0.01, 3.0))
    assume(kind != "abs" or width < math.inf)
    return criterion, ParamInterval(a, a + width), draw(st.floats(0.02, 0.6)), ns


@pytest.mark.seeded
@settings(max_examples=300, deadline=None)
@given(_blocks_at_a())
def test_a_block_gives_each_n_that_fails_at_a_its_own_verdict(block):
    # a block at a raises where some n of it raises at a alone; otherwise
    # it counts the n up to the first whose a passes, and the block's
    # windows and sums at a are their verdicts alone, bit for bit, with
    # rank 1.  Each n's scan_b is `_scan_b`'s.
    criterion, interval, delta, ns = block
    bs = search._scan_bs(criterion, interval, delta, ns)
    assert [b.hex() for b in bs.tolist()] == [
        float(search._scan_b(criterion, interval, delta, n)).hex() for n in ns.tolist()]
    assume(bs[0] < math.inf)
    alone = []  # each n's verdict at a alone: None where a passes, or the error
    for n in ns.tolist():
        try:
            alone.append(_a_verdict(criterion, interval, delta, n, prefix=1))
        except ValueError as error:
            alone.append(error)
    if any(isinstance(verdict, ValueError) for verdict in alone):
        with pytest.raises(ValueError):
            minimizer._fails_at_a(criterion, ns, interval.a, bs, 1.0 - delta)
        return
    fails = minimizer._fails_at_a(criterion, ns, interval.a, bs, 1.0 - delta)
    assert fails == (alone + [None]).index(None)
    # the block's windows and sums, from the parts `_fails_at_a` reads
    gs, hs = _windows(criterion, ns, np.full(ns.size, interval.a),
                      *candidates._pins_at_a(criterion, ns, interval.a, bs))
    covs = kernel.interval_probs(gs, hs, ns * interval.a)
    for n, g, h, cov in zip(ns[:fails].tolist(), gs.tolist(), hs.tolist(), covs.tolist()):
        result, rank = _a_verdict(criterion, interval, delta, n)
        assert (result.lam.hex(), result.g, result.h, result.coverage.hex(), rank) == (
            float(interval.a).hex(), g, h, cov.hex(), 1)


_BLOCK_QUERIES = [
    (Relative(0.2), ParamInterval(0.5, 2.0), 0.1, {}),
    (Relative(0.15), ParamInterval(0.5, 2.0), 0.05, {"start_n": 40}),
    # scan_b falls from b = 100, or inf, to near a; at n = 500 the tail
    # bounds leave only a
    (Relative(0.5), ParamInterval(0.2, 100.0), 0.2, {}),
    (Relative(0.2), ParamInterval(0.5, math.inf), 0.05, {}),
    (Relative(0.5), ParamInterval(0.2, 100.0), 0.2, {"start_n": 500}),
    (Mixed(0.3, 0.2), ParamInterval(0.1, 3.0), 0.1, {}),
    (Mixed(0.05, 0.1), ParamInterval(0.5, 2.0), 0.1, {}),
    # a on a REL_UPPER breakpoint of every other n: pinned windows at a
    (Relative(0.25), ParamInterval(0.4, 1.0), 0.1, {}),
    (Relative(0.2), ParamInterval(0.5, 2.0), 0.1, {"max_n": 100}),
    # n_a = 135: start_n past it, and a max_n too large for an int64
    (Relative(0.2), ParamInterval(0.5, 2.0), 0.1, {"start_n": 200}),
    (Relative(0.2), ParamInterval(0.5, 2.0), 0.1, {"max_n": 2**63}),
    (Relative(1e-13), ParamInterval(1 / 64, 1.0), 0.1, {}),
]


def _plan_or_error(criterion, interval, delta, options):
    try:
        plan = min_sample_size(criterion, interval, ConfidenceSpec(delta), **options)
    except (ValueError, MaxSampleSizeExceeded) as error:
        return type(error), str(error)
    return (plan.n_min, plan.worst_lambda.hex(), plan.worst_coverage.hex(),
            plan.evaluations, plan.truncated_b.hex())


@pytest.mark.parametrize("predict", [None, 0.0, 0.5, 2.0, math.inf])
@pytest.mark.parametrize("streak", [None, 0])
@pytest.mark.parametrize("cap", [1, 8192])
@pytest.mark.parametrize("criterion, interval, delta, options", _BLOCK_QUERIES)
def test_plans_do_not_depend_on_the_blocks_at_a(monkeypatch, predict, streak, cap, criterion,
                                                 interval, delta, options):
    # blocks of one n, or growing to 8 192, from the streak gate or from the
    # first n, up to a predicted n_a of 0, half or twice the answer, or inf:
    # the same plan, evaluations included, or the same error
    plan = _plan_or_error(criterion, interval, delta, options)
    monkeypatch.setattr(search, "_CHUNK", cap)
    if streak is not None:
        monkeypatch.setattr(search, "_STREAK", streak)
    if predict is not None:
        # the two queries that raise do so at n = 64 and n = 100
        scale = plan[0] if type(plan[0]) is int else 100
        n_a = predict * scale if 0.0 < predict < math.inf else predict
        monkeypatch.setattr(search, "_n_at_a", lambda *args: n_a)
    assert _plan_or_error(criterion, interval, delta, options) == plan


@pytest.mark.seeded
@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["abs", "mixed", "rel"]),
    eps=st.floats(0.2, 0.5),
    eps_r=st.floats(0.08, 0.5),
    a=st.just(0.0) | st.floats(0.1, 2.0),
    width=st.floats(0.05, 1.5) | st.just(math.inf),
    delta=st.floats(0.01, 0.3),
    start_n=st.integers(1, 30),
    max_n=st.none() | st.integers(60, 600),
)
def test_plans_do_not_depend_on_the_prediction(kind, eps, eps_r, a, width, delta, start_n,
                                                max_n):
    # the same plan, evaluations included, or the same error, with the
    # blocks at a sized by the prediction and by the streak alone
    if kind == "rel":
        eps = eps_r  # a narrower relative margin, for a longer failing run at a
    criterion, interval = _draw_criterion(kind, eps, eps_r, a, width)
    assume(kind != "abs" or width < math.inf)
    options = {"start_n": start_n} if max_n is None else {"start_n": start_n, "max_n": max_n}
    plan = _plan_or_error(criterion, interval, delta, options)
    with mock.patch.object(search, "_n_at_a", lambda *args: 0.0):
        assert _plan_or_error(criterion, interval, delta, options) == plan


@pytest.mark.parametrize("criterion, a, delta, n_a", [
    (Relative(1e-200), 0.5, 0.1, math.inf),  # (z / m)**2 would overflow
    (Relative(1e-200), 1e-200, 0.1, math.inf),  # m underflows to 0
    (Mixed(0.1, 1e-200), 0.5, 0.1, 0.5 * (1.6448536269514722 / 0.1) ** 2),
    (Mixed(0.1, 0.2), 0.0, 0.05, 0.0),
    (Absolute(0.1), 0.0, 0.05, 0.0),
    (Relative(0.2), 0.5, math.nextafter(1.0, 0.0), 0.0),
])
def test_the_prediction_never_raises(criterion, a, delta, n_a):
    assert search._n_at_a(criterion, a, delta) == pytest.approx(n_a, rel=1e-9, abs=1e-20)


def _record_blocks(monkeypatch):
    """Record (first n, n in the block, n that fail at a) of every block;
    None for a block that raised."""
    blocks = []
    real = search._fails_at_a

    def recording(criterion, ns, *args):
        blocks.append((int(ns[0]), ns.size, None))
        fails = real(criterion, ns, *args)
        blocks[-1] = blocks[-1][:2] + (fails,)
        return fails
    monkeypatch.setattr(search, "_fails_at_a", recording, raising=True)
    return blocks


def _expected_blocks(limit, start_n, stop_n, max_n, fails):
    """(first n, n in the block, n that fail at a) of each block at a that a
    search from start_n opens before it reaches stop_n, with its prediction
    at ``limit`` and ``fails(n)`` true where n fails at a: blocks up to the
    prediction from start_n, then, once one ends early or the prediction is
    reached, blocks twice the streak before them after _STREAK n in a row
    have failed at a; each capped at _CHUNK n and at max_n."""
    blocks, streak, n = [], 0, start_n
    while n < stop_n:
        if limit - n > search._STREAK:
            stop = math.ceil(min(limit, n + search._CHUNK, max_n + 1))
        elif streak >= search._STREAK:
            stop = min(n + min(2 * streak, search._CHUNK), max_n + 1)
        else:  # n decided alone
            streak, n = streak + 1 if fails(n) else 0, n + 1
            continue
        count = next((i for i, m in enumerate(range(n, stop)) if not fails(m)), stop - n)
        blocks.append((n, stop - n, count))
        streak, n = streak + count, n + count
        if n < stop:  # the prediction is spent, and n is decided alone
            limit, streak, n = 0.0, 0, n + 1
    return blocks


@pytest.mark.parametrize("n_a, cap", [
    (None, None), (0.0, None), (30_000.5, None), (math.inf, None), (math.inf, 2**20)])
def test_blocks_follow_the_prediction_then_the_streak_and_stop_at_max_n(monkeypatch, n_a, cap):
    # every n fails at a: the first block starts at start_n and ends at the
    # prediction, _CHUNK n or max_n, whichever comes first; past the
    # prediction each block holds twice the streak before it, and the last
    # one ends at max_n.  With no prediction the first block comes after
    # _STREAK n decided alone.
    criterion, interval, delta = Relative(0.999999), ParamInterval(1e-5, 1e5), 0.5
    max_n = 80_000
    if n_a is not None:
        monkeypatch.setattr(search, "_n_at_a", lambda *args: n_a)
    if cap is not None:
        monkeypatch.setattr(search, "_CHUNK", cap)
    limit = search._n_at_a(criterion, interval.a, delta) * (1.0 + search._SLACK)
    blocks = _record_blocks(monkeypatch)
    with pytest.raises(MaxSampleSizeExceeded):
        min_sample_size(criterion, interval, ConfidenceSpec(delta), max_n=max_n)
    assert blocks == _expected_blocks(limit, 1, max_n + 1, max_n, lambda n: True)
    if limit > 1 + search._STREAK:
        assert blocks[0][:2] == (1, math.ceil(min(limit - 1, search._CHUNK, max_n)))
    else:
        assert blocks[0][:2] == (search._STREAK + 1, 2 * search._STREAK)


def test_blocks_after_one_that_ends_early_follow_the_streak(monkeypatch):
    # the second block ends early, at the first n whose a passes; the
    # prediction is spent, and the blocks up to the answer open after
    # streaks of n decided alone
    criterion, interval, delta = Relative(0.05), ParamInterval(0.1, 10.0), 0.05
    limit = search._n_at_a(criterion, interval.a, delta) * (1.0 + search._SLACK)
    blocks = _record_blocks(monkeypatch)
    plan = min_sample_size(criterion, interval, ConfidenceSpec(delta))

    def fails(n):
        with contextlib.suppress(ValueError):
            return _a_verdict(criterion, interval, delta, n, prefix=1) is not None
        return False
    assert blocks == _expected_blocks(limit, 1, plan.n_min, 10**6, fails)
    (_, first_size, first_fails), (second, size, fails_) = blocks[:2]
    assert first_size == first_fails == search._CHUNK
    assert fails_ < size and second + size - 1 < limit
    assert len(blocks) > 2


def test_a_narrow_margin_inside_a_block_raises_at_its_own_n(monkeypatch):
    # n = 64 ends a streak of 63 n that fail at a: the block that holds it
    # raises and is dropped, and n = 64, decided alone, raises
    blocks = _record_blocks(monkeypatch)
    with pytest.raises(MarginTooNarrow, match="for n = 64:"):
        min_sample_size(Relative(1e-13), ParamInterval(1 / 64, 1.0), ConfidenceSpec(0.1))
    first, size, fails = blocks[-1]
    assert first < 64 < first + size and fails is None


def test_n_past_the_answer_in_a_block_cost_work_and_never_count(monkeypatch):
    # the last block reaches past the first n whose a passes, and past the
    # answer; the plan is the one n by n
    criterion, interval, delta = Relative(0.05), ParamInterval(0.1, 10.0), 0.05
    blocks = _record_blocks(monkeypatch)
    plan = min_sample_size(criterion, interval, ConfidenceSpec(delta))
    assert any(first + size > plan.n_min for first, size, _ in blocks)
    monkeypatch.setattr(search, "_STREAK", plan.n_min + 1)
    monkeypatch.setattr(search, "_n_at_a", lambda *args: 0.0)
    assert min_sample_size(criterion, interval, ConfidenceSpec(delta)) == plan


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


def _forbid_coverage(monkeypatch):
    """Make every route by which the search decides an n raise."""
    def evaluated(*args, **kwargs):
        raise AssertionError("coverage was evaluated")
    for name in ("_verdict", "_decide", "_coverage", "_fails_at_a"):
        monkeypatch.setattr(poisson_ss.search, name, evaluated, raising=True)


@pytest.mark.parametrize("max_n", [20_000, 1_000_000])
def test_tiny_relative_lower_bound_exhausts_the_budget_at_once(monkeypatch, max_n):
    # coverage at a is at most 1 - exp(-n a), so every passing n exceeds
    # ln(1/delta) / a ~ 3e300
    _forbid_coverage(monkeypatch)
    with pytest.raises(MaxSampleSizeExceeded) as info:
        min_sample_size(Relative(0.1), ParamInterval(1e-300, 1.0),
                        ConfidenceSpec(0.05), max_n=max_n)
    assert info.value.max_n == max_n
    assert "ln(1/delta) / a" in str(info.value)


def test_relative_lower_bound_tie_is_left_to_the_scan(monkeypatch):
    # max_n * a equals ln(1/delta) up to rounding: the bound must not raise,
    # the scan decides (and here every n <= max_n fails): in a block at a up
    # to the prediction, and without one n by n or, after a streak of 2 n
    # that fail at a, in blocks at a
    scanned = set()

    def recording(name, ns):
        real = getattr(poisson_ss.search, name)

        def wrapper(*args):
            result = real(*args)
            scanned.update(ns(*args, result=result))
            return result
        monkeypatch.setattr(poisson_ss.search, name, wrapper, raising=True)

    recording("_verdict", lambda criterion, n, *_, result: [n])
    recording("_decide", lambda criterion, runs, *_, result: [n for n, _, _ in runs])
    # the leading n of a block that fail at a, the ones it decides
    recording("_fails_at_a",
              lambda criterion, ns, *_, result: ns[:result].tolist())
    max_n, delta = 10, 0.1
    a = math.log(1.0 / delta) / max_n
    real_n_at_a = search._n_at_a
    for streak, n_at_a in ((search._STREAK, real_n_at_a), (search._STREAK, lambda *args: 0.0),
                           (2, lambda *args: 0.0)):
        monkeypatch.setattr(search, "_STREAK", streak)
        monkeypatch.setattr(search, "_n_at_a", n_at_a)
        scanned.clear()
        with pytest.raises(MaxSampleSizeExceeded) as info:
            min_sample_size(Relative(0.5), ParamInterval(a, 1.0),
                            ConfidenceSpec(delta), max_n=max_n)
        assert str(info.value) == f"no sufficient sample size found with n <= {max_n}"
        assert scanned == set(range(1, max_n + 1))


@pytest.mark.parametrize("criterion, interval, where", [
    # the crossover 2e-300 lies inside [0, 1]: ln(2) / 2e-300 ~ 3.5e299
    (Mixed(1e-300, 0.5), ParamInterval(0.0, 1.0), "crossover = 2e-300"),
    # the crossover lies below a = 1e-300, so the relative margin governs at a
    (Mixed(1e-301, 0.5), ParamInterval(1e-300, 1.0), "a = 1e-300"),
])
def test_tiny_mixed_relative_lower_bound_exhausts_the_budget_at_once(
        monkeypatch, criterion, interval, where):
    _forbid_coverage(monkeypatch)
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


def _draw_criterion(kind, eps, eps_r, a, width):
    if kind == "abs":
        criterion = Absolute(eps)
    elif kind == "mixed":
        criterion = Mixed(eps, eps_r)
    else:
        criterion, a = Relative(eps), max(a, 0.1)
    return criterion, ParamInterval(a, a + width)


def _last(criterion, interval, delta, n):
    """(n, witness rate, rank) of n's public fail-fast scan, as the search
    hands it to the batched run after n."""
    scanned = ParamInterval(interval.a, search._scan_b(criterion, interval, delta, n))
    witness, rank = scan_min_coverage(criterion, n, scanned, 1.0 - delta)
    return n, witness.lam, rank


def _run(criterion, interval, delta, start, max_n, last=None):
    """The batched run the search decides from ``start`` when the n before
    it, whose (n, witness rate, rank) is ``last``, was decided past the
    probe: (runs, verdicts).  By default ``last`` is start - 1's own."""
    if last is None:
        last = _last(criterion, interval, delta, start - 1)
    runs = search._run(criterion, interval, delta, start, max_n, last)
    return runs, minimizer._decide(criterion, runs, 1.0 - delta)


@contextlib.contextmanager
def _chunk(size):
    """Chunks, and a run's rounds, of ``size`` points, or as they are."""
    with (mock.patch.object(candidates, "_CHUNK", size or candidates._CHUNK),
          mock.patch.object(minimizer, "_CHUNK", size or minimizer._CHUNK)):
        yield


def _record_rows(monkeypatch):
    """Record the largest rate `_decide` builds for each layout, by id."""
    built = {}
    rows = minimizer._point_rows

    def recording(pieces):
        values, g_ell, h_ell, sizes = rows(pieces)
        for (layout, _, _), part in zip(pieces, np.split(values, np.cumsum(sizes)[:-1])):
            if part.size:
                built[id(layout)] = max(built.get(id(layout), -math.inf), part.max())
        return values, g_ell, h_ell, sizes

    monkeypatch.setattr(minimizer, "_point_rows", recording)
    return built


_DRAWS = dict(
    kind=st.sampled_from(["abs", "mixed", "rel"]),
    eps=st.floats(0.08, 0.5),
    eps_r=st.floats(0.08, 0.5),
    a=st.just(0.0) | st.floats(0.1, 2.0),
    width=st.floats(0.05, 2.0),
    delta=st.floats(0.02, 0.4),
    back=st.integers(0, 30),
    length=st.integers(1, 30),
    chunk=st.sampled_from([None, 64]),
    # the last witness, as a share of the scanned interval, and its rank
    reach=st.floats(0.0, 1.5),
    rank=st.integers(1, 3000),
)


def _draw_run(kind, eps, eps_r, a, width, delta, back, reach, rank):
    """(criterion, interval, start, last) of a run starting up to 30 below
    the answer after a drawn last witness."""
    criterion, interval = _draw_criterion(kind, eps, eps_r, a, width)
    start = max(1, min_sample_size(criterion, interval, ConfidenceSpec(delta)).n_min - back)
    scan_b = search._scan_b(criterion, interval, delta, start)
    assume(scan_b > interval.a)
    last = (max(1, start - 1), interval.a + reach * (scan_b - interval.a), rank)
    return criterion, interval, start, last


@pytest.mark.seeded
@settings(max_examples=60, deadline=None)
@given(**_DRAWS, run_rows=st.sampled_from([None, 64]))
def test_batched_run_decides_each_n_as_its_fail_fast_scan(
        kind, eps, eps_r, a, width, delta, back, length, chunk, reach, rank, run_rows):
    # a run gives each n the verdict of its own fail-fast scan, witness or
    # minimum, with the same count, and ends at the first n that scan
    # finds passing.  Runs start up to 30 below the answer, so most hold
    # failing and passing n, and the drawn last witness puts the ends of
    # their first spans before, at or past their own witnesses.  64-point
    # chunks split each n's layout into several, and with a 64-row run
    # budget a first span above it is a run of one.  An n whose witness
    # lies in its first span has no row built past that span.
    criterion, interval, start, last = _draw_run(
        kind, eps, eps_r, a, width, delta, back, reach, rank)
    level = 1.0 - delta
    with (_chunk(chunk), mock.patch.object(search, "_CHUNK", run_rows or search._CHUNK),
          pytest.MonkeyPatch.context() as monkeypatch):
        built = _record_rows(monkeypatch)
        runs, verdicts = _run(criterion, interval, delta, start, start + length - 1, last)
        assert [n for n, _, _ in runs] == list(range(start, start + len(runs)))
        assert 1 <= len(verdicts) <= len(runs) <= min(length, search._RUN)
        assert all(result.coverage <= level for result, _ in verdicts[:-1])
        assert len(verdicts) == len(runs) or verdicts[-1][0].coverage > level
        for (n, layout, end), (result, count) in zip(runs, verdicts):
            scanned = ParamInterval(interval.a, search._scan_b(criterion, interval, delta, n))
            witness, evals = scan_min_coverage(criterion, n, scanned, level)
            assert (_bits(result), count) == (_bits(witness), evals)
            _, first_end = next(candidates._spans(layout, end))
            if result.coverage <= level and result.lam < first_end:
                assert built[id(layout)] < first_end


@pytest.mark.seeded
@settings(max_examples=40, deadline=None)
@given(**_DRAWS, gap=st.floats(0.0, 0.5))
def test_a_passing_decision_gives_the_full_scan_minimum(
        kind, eps, eps_r, a, width, delta, back, length, chunk, reach, rank, gap):
    # the minimum pass that reads the fail-fast pass's rows gives what a
    # full scan gives, bit for bit and with the same count: for a lone
    # layout whose threshold lies below its minimum (64-point chunks make
    # most layouts several chunks, which are built again), and for the
    # passing n of a run, whose rows come in one span or several
    criterion, interval, start, last = _draw_run(
        kind, eps, eps_r, a, width, delta, back, reach, rank)
    with _chunk(chunk):
        scanned = ParamInterval(interval.a, search._scan_b(criterion, interval, delta, start))
        full, count = scan_min_coverage(criterion, start, scanned)
        threshold = math.nextafter(full.coverage - gap, -math.inf)
        witness, evals = scan_min_coverage(criterion, start, scanned, threshold)
        assert (_bits(witness), evals) == (_bits(full), count)

        _, verdicts = _run(criterion, interval, delta, start, start + length - 1, last)
        passed, evals = verdicts[-1]
        if passed.coverage > 1.0 - delta:
            n = start + len(verdicts) - 1
            scanned = ParamInterval(interval.a, search._scan_b(criterion, interval, delta, n))
            full, count = scan_min_coverage(criterion, n, scanned)
            assert _bits(full) == _bits(min_coverage(criterion, n, scanned))
            assert (_bits(passed), evals) == (_bits(full), count)


def _bits(result):
    return result.lam.hex(), result.g, result.h, result.coverage.hex()


@pytest.mark.parametrize("n", [100, 150])
def test_first_span_ending_inside_a_merged_group(n):
    # Absolute(0.1) with 0.2 n an integer: ell / n + 0.1 and
    # (ell + 0.2 n) / n - 0.1 are one rate up to rounding, so nearly every
    # point is a merged group of two members.  First spans that end on the
    # points around n's witness, and a quarter tol to either side of them,
    # cut between a group's members; each n still gets its public verdict.
    criterion, interval, level = Absolute(0.1), ParamInterval(0.0, 1.0), 0.9
    tol = candidates.DEDUP_REL_TOL
    points = candidate_set(criterion, n, interval)
    witness, count = scan_min_coverage(criterion, n, interval, level)
    assert witness.coverage <= level and points[count - 1].extra_tags
    layouts = [(m, candidates._layout(criterion, m, interval)) for m in (n, n + 1)]
    want = [scan_min_coverage(criterion, m, interval, level) for m, _ in layouts]
    for point in points[count - 3:count + 2]:
        for end in (point.value - tol / 4, point.value, point.value + tol / 4):
            verdicts = minimizer._decide(
                criterion, [(m, layout, end) for m, layout in layouts], level)
            assert [(_bits(r), c) for r, c in verdicts] == [(_bits(r), c) for r, c in want]


def _walk(criterion, interval, delta, start_n, max_n):
    """What a search returns, in the form of `_plan_or_error`, by walking n
    up from start_n with the public fail-fast scan of [a, scan_b], or the
    coverage at a where the tail bounds leave only a, to the first n that
    passes, the first error or max_n."""
    level, evaluations = 1.0 - delta, 0
    try:
        for n in range(start_n, max_n + 1):
            scan_b = search._scan_b(criterion, interval, delta, n)
            if scan_b <= interval.a:
                result, count = coverage_at(criterion, n, interval.a), 1
            else:
                result, count = scan_min_coverage(
                    criterion, n, ParamInterval(interval.a, scan_b), level)
            evaluations += count
            if result.coverage > level:
                return (n, result.lam.hex(), result.coverage.hex(), evaluations,
                        float(max(interval.a, scan_b)).hex())
    except ValueError as error:
        return type(error), str(error)
    return MaxSampleSizeExceeded, str(MaxSampleSizeExceeded(max_n))


@pytest.mark.seeded
@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["abs", "mixed", "rel"]),
    eps=st.floats(0.25, 0.6),
    eps_r=st.floats(0.25, 0.6),
    a=st.just(0.0) | st.floats(0.1, 1.0),
    width=st.floats(0.2, 1.5),
    delta=st.floats(0.1, 0.4),
    start_n=st.integers(1, 20),
)
def test_search_matches_the_public_scan_n_by_n(kind, eps, eps_r, a, width, delta, start_n):
    # every n from start_n below n_min fails the public fail-fast scan of
    # [a, scan_b], or the coverage at a where the tail bounds leave only a;
    # n_min passes it with the plan's worst case; and evaluations is the
    # sum of the counts of those verdicts, 1 for the coverage at a
    criterion, interval = _draw_criterion(kind, eps, eps_r, a, width)
    plan = _plan_or_error(criterion, interval, delta, {"start_n": start_n})
    assert type(plan[0]) is int
    assert plan == _walk(criterion, interval, delta, start_n, 10**6)


# margins near the least the window rule resolves, drawn on a log scale
_NARROW = st.floats(math.log(3e-14), math.log(1e-11)).map(math.exp)


@pytest.mark.seeded
@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["abs", "mixed", "rel"]),
    eps=_NARROW,
    eps_r=_NARROW,
    a=st.just(0.0) | st.floats(0.1, 2.0),
    width=st.floats(0.05, 1e3),
    delta=st.floats(0.01, 0.4),
    start_n=st.sampled_from([1, 2, 17]),
)
def test_search_matches_the_public_scan_n_by_n_at_narrow_margins(
        kind, eps, eps_r, a, width, delta, start_n):
    # most n fail at a, many in blocks, and many raise MarginTooNarrow at
    # some rate: the search returns the walk's plan, or raises its error,
    # whatever its blocks and runs hold.  The queries the r0 bound refuses
    # before any scan have no walk to match.
    criterion, interval = _draw_criterion(kind, eps, eps_r, a, width)
    outcome = _plan_or_error(criterion, interval, delta, {"start_n": start_n, "max_n": 120})
    assume(outcome[0] is not MaxSampleSizeExceeded or "ln(1/delta)" not in outcome[1])
    assert outcome == _walk(criterion, interval, delta, start_n, 120)


def test_run_of_one_builds_only_the_chunk_of_its_witness(monkeypatch):
    # n = 200 has 405 candidates on [0, 1], in spans of 64 points; its first
    # span alone passes a 16-row run budget, so its run holds it alone.  It
    # fails near rate 0.03, inside its first span, and that is the one build
    criterion, interval, delta, n = Absolute(0.02), ParamInterval(0.0, 1.0), 0.1, 200
    last = _last(criterion, interval, delta, n - 1)
    monkeypatch.setattr(candidates, "_CHUNK", 64)
    monkeypatch.setattr(minimizer, "_CHUNK", 64)
    monkeypatch.setattr(search, "_CHUNK", 16)
    assert len(list(candidates._spans(candidates._layout(criterion, n, interval)))) > 1
    built = []
    rows = minimizer._point_rows

    def counting_rows(pieces):
        values, g_ell, h_ell, sizes = rows(pieces)
        built.append(values.size)
        return values, g_ell, h_ell, sizes

    monkeypatch.setattr(minimizer, "_point_rows", counting_rows)
    runs, (hit,) = _run(criterion, interval, delta, n, n + 10, last)
    assert len(runs) == 1 and hit[0].coverage <= 1.0 - delta and len(built) == 1
    assert hit[1] <= built[0] <= 64
    witness, count = scan_min_coverage(criterion, n, interval, 1.0 - delta)
    assert (_bits(hit[0]), hit[1]) == (_bits(witness), count)


# n_min 276; from n = 32 on, its failing n are decided in batched runs of
# 15 to 32
_BATCHED = (Absolute(0.1), ParamInterval(0.0, 1.0), ConfidenceSpec(0.1))


def test_run_of_several_n_builds_and_windows_them_in_one_call_each(monkeypatch):
    # each n's witness lies inside its first span, so the run is one round
    calls = {"_point_rows": 0, "_windows": 0, "_point_arrays": 0}

    def counting(name):
        real = getattr(minimizer, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    criterion, interval, conf = _BATCHED
    last = _last(criterion, interval, conf.delta, 249)
    for name in calls:
        monkeypatch.setattr(minimizer, name, counting(name))
    runs, verdicts = _run(criterion, interval, conf.delta, 250, 400, last)
    fails = [result for result, _ in verdicts if result.coverage <= 1.0 - conf.delta]
    assert len(runs) >= 2 and len(fails) >= 2
    assert calls == {"_point_rows": 1, "_windows": 1, "_point_arrays": 0}


@pytest.mark.parametrize("growth", [1e-3, 1e6])
@pytest.mark.parametrize("criterion, interval, delta", [
    _BATCHED[:2] + (_BATCHED[2].delta,),
    (Absolute(0.2), ParamInterval(0.0, 2.0), 0.05),
    (Mixed(0.1, 0.2), ParamInterval(0.1, 3.0), 0.05),
    (Mixed(0.05, 0.1), ParamInterval(0.0, 2.0), 0.1),
])
def test_plans_do_not_depend_on_the_growth_factor(monkeypatch, growth, criterion, interval,
                                                   delta):
    # first spans that hold next to nothing, or every n's whole layout
    plan = min_sample_size(criterion, interval, ConfidenceSpec(delta))
    monkeypatch.setattr(search, "_GROWTH", growth)
    again = min_sample_size(criterion, interval, ConfidenceSpec(delta))
    assert (again.n_min, again.evaluations, again.truncated_b) == (
        plan.n_min, plan.evaluations, plan.truncated_b)
    assert again.worst_lambda.hex() == plan.worst_lambda.hex()
    assert again.worst_coverage.hex() == plan.worst_coverage.hex()


def test_a_run_builds_no_row_past_a_first_span_that_holds_the_witness(monkeypatch):
    # the first run of this Mixed search predicts from n = 66's witness near
    # a; the n whose witness lies in the first span are built only that far,
    # and the others on to their witnesses
    criterion, interval, delta = Mixed(0.1, 0.2), ParamInterval(0.1, 3.0), 0.05
    last = _last(criterion, interval, delta, 66)
    built = _record_rows(monkeypatch)
    runs, verdicts = _run(criterion, interval, delta, 67, 300, last)
    assert len(runs) == len(verdicts) == search._RUN
    inside = 0
    for (n, layout, end), (result, _) in zip(runs, verdicts):
        _, first_end = next(candidates._spans(layout, end))
        assert first_end < search._scan_b(criterion, interval, delta, n)
        if result.lam < first_end:
            assert built[id(layout)] < first_end
            inside += 1
        else:
            assert built[id(layout)] >= result.lam
    assert 16 <= inside < len(runs)


def _count_builds(monkeypatch, n_min):
    """Count the `_point_rows` calls, with their numbers of pieces, and the
    `_floors` calls made from the moment n_min's layout is first built:
    the work that decides n_min, with the other n of its run."""
    calls = {"pieces": [], "_floors": 0}
    built = []
    layout, rows, floors = candidates._layout, candidates._point_rows, kernel._floors

    def recording_layout(criterion, n, interval):
        if n == n_min:
            built.append(n)
        return layout(criterion, n, interval)

    def counting_rows(pieces):
        if built:
            calls["pieces"].append(len(pieces))
        return rows(pieces)

    def counting_floors(*args):
        calls["_floors"] += bool(built)
        return floors(*args)

    for module in (search, minimizer):
        monkeypatch.setattr(module, "_layout", recording_layout)
    for module in (candidates, minimizer):
        monkeypatch.setattr(module, "_point_rows", counting_rows)
    monkeypatch.setattr(minimizer, "_floors", counting_floors)
    return calls


@pytest.mark.parametrize("criterion, interval, delta, run", [
    # decided passing by the batched run that reaches it
    (_BATCHED[0], _BATCHED[1], _BATCHED[2].delta, True),
    # its probe misses, and it is decided alone
    (Relative(0.15), ParamInterval(0.5, 2.0), 0.1, False),
])
def test_a_passing_n_is_built_and_floored_once(monkeypatch, criterion, interval, delta, run):
    # the minimum pass reads the rows the fail-fast pass floored, so the
    # plan, evaluations included, costs n_min one build
    plan = min_sample_size(criterion, interval, ConfidenceSpec(delta))
    calls = _count_builds(monkeypatch, plan.n_min)
    assert min_sample_size(criterion, interval, ConfidenceSpec(delta)) == plan
    assert len(calls["pieces"]) == calls["_floors"] == 1
    assert (calls["pieces"][0] > 1) == run


def test_a_passing_threshold_scan_is_built_and_floored_once(monkeypatch):
    criterion, interval, conf = _BATCHED
    full = scan_min_coverage(criterion, 276, interval)
    calls = _count_builds(monkeypatch, 276)
    assert scan_min_coverage(criterion, 276, interval, 1.0 - conf.delta) == full
    assert calls == {"pieces": [1], "_floors": 1}


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
    # runs of up to two chunks of first spans: the last one reaches past
    # the answer
    plan = min_sample_size(*_BATCHED)
    monkeypatch.setattr(search, "_CHUNK", 2 * search._CHUNK)
    seen = _record_layouts(monkeypatch, fail=lambda n: n > plan.n_min)
    assert min_sample_size(*_BATCHED) == plan
    assert max(seen) > plan.n_min  # a run did reach past the answer


@pytest.mark.parametrize("bad_n", [40, 250])
def test_errors_building_n_below_the_answer_surface(monkeypatch, bad_n):
    _record_layouts(monkeypatch, fail=lambda n: n == bad_n)
    with pytest.raises(ValueError, match=f"^injected at n = {bad_n}$"):
        min_sample_size(*_BATCHED)


@pytest.mark.parametrize("name", ["_fails_at_a", "_decide"])
def test_plans_do_not_depend_on_a_batch_that_raises(monkeypatch, name):
    # every block at a, or every batched run, raises, so the search drops
    # it and decides its first n alone: the same plans, evaluations
    # included.  The first query decides n in runs, the second in a block.
    queries = [(*_BATCHED[:2], _BATCHED[2].delta),
               (Relative(0.15), ParamInterval(0.5, 2.0), 0.05)]
    plans = [_plan_or_error(*query, {}) for query in queries]
    dropped = []

    def raising(*args):
        dropped.append(args)
        raise ValueError("a batch that raises")
    monkeypatch.setattr(search, name, raising)
    assert [_plan_or_error(*query, {}) for query in queries] == plans
    assert dropped and all(type(plan[0]) is int for plan in plans)


def test_a_run_ends_before_the_first_m_whose_tail_bound_leaves_only_a():
    # m = 388 is the first whose scan_b lies at or below a = 0.5: the run
    # holds 380 to 387 and leaves 388 to be decided at a alone
    criterion, interval, delta = Relative(0.2), ParamInterval(0.5, 2.0), 0.1
    runs = search._run(criterion, interval, delta, 380, 10**6, (379, 0.6, 20))
    assert [m for m, _, _ in runs] == list(range(380, 388))
    assert search._scan_b(criterion, interval, delta, 387) > interval.a
    assert search._scan_b(criterion, interval, delta, 388) <= interval.a


def _drawn_searches(seed, count):
    """``count`` (criterion, interval, conf) drawn with ``random.Random(seed)``:
    Absolute, Relative and Mixed margins, intervals from 0 or above it."""
    rng = random.Random(seed)
    for _ in range(count):
        kind = rng.choice(["abs", "rel", "mixed"])
        a = 0.0 if rng.random() < 0.5 else round(rng.uniform(0.1, 1.5), 3)
        width = round(rng.uniform(0.2, 1.8), 3)
        delta = round(rng.uniform(0.05, 0.4), 3)
        if kind == "abs":
            criterion = Absolute(round(rng.uniform(0.06, 0.4), 3))
        elif kind == "rel":
            criterion, a = Relative(round(rng.uniform(0.15, 0.5), 3)), max(a, 0.2)
        else:
            criterion = Mixed(round(rng.uniform(0.05, 0.4), 3), round(rng.uniform(0.1, 0.5), 3))
        yield criterion, ParamInterval(a, a + width), ConfidenceSpec(delta)


def test_pinned_digest_of_drawn_searches():
    # 150 drawn searches, every field of each plan bit for bit: a change to
    # how the search decides an n may change its cost, never its plan
    digest = hashlib.sha256()
    for criterion, interval, conf in _drawn_searches(2026, 150):
        plan = min_sample_size(criterion, interval, conf)
        digest.update(repr((plan.n_min, plan.worst_lambda.hex(), plan.worst_coverage.hex(),
                            plan.evaluations, plan.truncated_b.hex())).encode())
    assert digest.hexdigest() == (
        "41c7dbe66ed1f2f3dd93617ae18fab5064655cf5e99743c3c33a037c733f1631")


def test_start_n_floors_the_search():
    plan = min_sample_size(Absolute(0.5), ParamInterval(0.0, 0.5),
                           ConfidenceSpec(0.5), start_n=200)
    assert plan.n_min >= 200


def test_generous_risk_level_accepts_tiny_n():
    plan = min_sample_size(Absolute(0.3), ParamInterval(0.0, 1.0),
                           ConfidenceSpec(0.999))
    assert plan.n_min == 2
    assert plan.worst_coverage == pytest.approx(0.258427543033159, rel=1e-12)


def test_option_validation(monkeypatch):
    crit = Absolute(0.5)
    iv = ParamInterval(0.0, 0.5)
    conf = ConfidenceSpec(0.5)
    plan = min_sample_size(crit, iv, conf, start_n=2, max_n=300)
    assert min_sample_size(crit, iv, conf, start_n=np.int64(2), max_n=np.int32(300)) == plan
    assert type(min_sample_size(crit, iv, conf, start_n=np.int64(2)).n_min) is int
    with pytest.raises(ValueError):
        min_sample_size(crit, iv, conf, start_n=0)
    with pytest.raises(ValueError):
        min_sample_size(crit, iv, conf, start_n=10, max_n=9)

    # a budget that is not an integer is refused before any scan
    _forbid_coverage(monkeypatch)
    for option, value in [("max_n", math.inf), ("max_n", 300.0), ("start_n", 2.0),
                          ("max_n", True), ("start_n", True), ("max_n", np.float64(300.0)),
                          ("start_n", "2")]:
        with pytest.raises(ValueError, match=f"^{option} must be an integer, got "):
            min_sample_size(Absolute(0.1), ParamInterval(0.0, 1.0), ConfidenceSpec(0.1),
                            **{option: value})


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


_INFINITE_B = ("a fixed-n scan needs a finite interval, got [{}, inf]; an infinite b is "
               "only searchable with tail-bound truncation under a relative or mixed margin")

# (criterion, interval, delta, options, error, message, evaluated): the
# error a search raises, with the message it gave when every n checked the
# whole query; a message that names an n names the n it comes from.
# evaluated says whether coverage is computed before the error: a check of
# the query fires before any.
SEARCH_ERRORS = [
    (Absolute(0.3), ParamInterval(0.0, math.inf), 0.1, {},
     NonFiniteBound, _INFINITE_B.format(0.0), False),
    (Absolute(0.3), ParamInterval(0.0, math.inf), 0.1, {"start_n": 5},
     NonFiniteBound, _INFINITE_B.format(0.0), False),
    # eps_r**2 underflows, so no rate is certified: the relative search
    # without truncation
    (Relative(1e-200), ParamInterval(0.5, math.inf), 0.1, {},
     NonFiniteBound, _INFINITE_B.format(0.5), False),
    (Mixed(0.1, 1.5), ParamInterval(0.0, 1.0), 0.1, {},
     EpsilonOutOfRange, "margin must lie strictly inside (0, 1), got 1.5", False),
    (Absolute(0.3), ParamInterval(1e11, 1e11 + 1), 0.1, {},
     ValueError, "the interval [100000000000.0, 100000000001.0] is too wide for n = 2: "
     "floats cannot tell its breakpoints apart", True),
    # refused at the first n too wide, after the n below it failed
    (Absolute(0.05), ParamInterval(0.0, 3e9), 0.1, {},
     ValueError, "the interval [0.0, 3000000000.0] is too wide for n = 42: "
     "floats cannot tell its breakpoints apart", True),
    (Absolute(1e-13), ParamInterval(0.0, 1.0), 0.1, {"start_n": 7},
     MarginTooNarrow, "the margin is too narrow at rate 0.0 for n = 7: both window ends, "
     "-7e-13 and 7e-13, fall on the count 0 between them", True),
    # n = 64 ends a streak of 63 n that fail at a, inside a block at a
    (Relative(1e-13), ParamInterval(1 / 64, 1.0), 0.1, {},
     MarginTooNarrow, "the margin is too narrow at rate 0.015625 for n = 64: both window "
     "ends, 0.9999999999999 and 1.0000000000001, fall on the count 1 between them", True),
    (Relative(0.2), ParamInterval(0.5, 2.0), 0.1, {"max_n": 20},
     MaxSampleSizeExceeded, "no sufficient sample size found with n <= 20", True),
    (Relative(0.1), ParamInterval(1e-300, 1.0), 0.05, {},
     MaxSampleSizeExceeded, "no sufficient sample size found with n <= 1000000: "
     "relative coverage at a = 1e-300 needs n > ln(1/delta) / a = 2.99573e+300", False),
    (Absolute(0.1), ParamInterval(0.0, 1.0), 0.1, {"start_n": 10 ** 400, "max_n": 10 ** 401},
     ValueError, "sample size must be no larger than the largest float, "
     "1.7976931348623157e+308", False),
    (Relative(0.1), ParamInterval(0.5, 1.0), 0.1, {"start_n": 10 ** 400, "max_n": 10 ** 401},
     ValueError, "sample size must be no larger than the largest float, "
     "1.7976931348623157e+308", False),
]


@pytest.mark.parametrize(
    "criterion, interval, delta, options, error, message, evaluated", SEARCH_ERRORS)
def test_search_errors_come_at_the_same_n_with_the_same_message(
        monkeypatch, criterion, interval, delta, options, error, message, evaluated):
    if not evaluated:
        _forbid_coverage(monkeypatch)
    with pytest.raises(error) as info:
        min_sample_size(criterion, interval, ConfidenceSpec(delta), **options)
    assert type(info.value) is error
    assert str(info.value) == message


def test_absolute_criterion_has_nothing_to_truncate():
    plan = min_sample_size(Absolute(0.5), ParamInterval(0.0, 0.5),
                           ConfidenceSpec(0.5))
    assert plan.n_min == 3
    assert plan.truncated_b == 0.5
    # integer bounds still give a float, so .hex() works
    plan = min_sample_size(Absolute(0.3), ParamInterval(0, 1), ConfidenceSpec(0.1))
    assert type(plan.truncated_b) is float
    assert plan.truncated_b.hex() == (1.0).hex()


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


@pytest.mark.slow
def test_large_plan_absolute_twentieth():
    # 3 080 failing n over [0, 2], their rows in doubt refined by the
    # continued-fraction brackets
    plan = min_sample_size(Absolute(0.05), ParamInterval(0.0, 2.0), ConfidenceSpec(0.05))
    assert plan.n_min == 3081
    assert plan.evaluations == 12_003_646
    assert plan.worst_lambda.hex() == "0x1.fffeefbb2294fp+0"
    assert plan.worst_coverage.hex() == "0x1.e682c51a5bb0ap-1"


@pytest.mark.xfail(strict=True, reason="a pass within float rounding of 1 - delta is "
                   "decided in floats, not certified exactly")
def test_the_worst_window_of_a_plan_exceeds_the_exact_threshold():
    # the plan's worst coverage is one ulp above float(1 - delta), but the
    # exact mass of its window lies 9.65e-17 below 1 - delta
    criterion, delta = Absolute(0.2), 0.049967351842235996
    plan = min_sample_size(criterion, ParamInterval(0.0, 2.0), ConfidenceSpec(delta))
    worst = min_coverage(criterion, plan.n_min, ParamInterval(0.0, plan.truncated_b))
    assert worst.lam.hex() == plan.worst_lambda.hex()
    threshold = 1 - Fraction(delta)
    with mpmath.workdps(60):
        mu = mpmath.mpf(plan.n_min) * mpmath.mpf(worst.lam)
        mass = mpmath.e ** (-mu) * mpmath.fsum(
            mu ** k / mpmath.factorial(k) for k in range(max(0, worst.g), worst.h + 1))
        assert mass > mpmath.mpf(threshold.numerator) / threshold.denominator
