"""Poisson mass and interval mass against arbitrary-precision references.

The frozen constants below were produced with mpmath at 60 significant
digits: the mass as exp(k ln mu - mu - lngamma(k+1)) and the interval mass
as a difference of regularized upper incomplete gamma functions.  The slow
tier recomputes references live over a wide sweep.  The batched
`interval_probs` is checked against the scalar `interval_prob` bit for bit.
"""

import math
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poisson_ss import interval_prob, kernel, pmf
from poisson_ss.kernel import interval_probs

REL_TOL = 1e-13
ABS_TOL = 1e-12

# (k, mu) -> pmf, 60-digit reference
PMF_REFERENCE = {
    (5, 5.0): 0.17546736976785071,
    (0, 1e-06): 0.9999990000005,
    (1, 1e-06): 9.9999900000049995e-07,
    (2, 1e-06): 4.9999950000024995e-13,
    (0, 0.5): 0.60653065971263342,
    (12, 0.5): 3.0914045870390547e-13,
    (50, 50.0): 0.056325006325190825,
    (75, 50.0): 0.00020578537471544044,
    (4500, 5000.0): 3.4336999160492732e-14,
    (5100, 5000.0): 0.0020686646159516241,
}

# (k_lo, k_hi, mu) -> interval mass, 60-digit reference
INTERVAL_REFERENCE = {
    (4, 6, 5.0): 0.497157547675577,
    (0, 10, 5.0): 0.98630473140161706,
    (3, 8, 0.5): 0.01438767453148044,
    (40, 60, 50.0): 0.86326945126561015,
    (4900, 5100, 5000.0): 0.84477407012150549,
    (0, 4800, 5000.0): 0.002269403878343364,
    (0, 0, 1e-06): 0.9999990000005,
    (1, 3, 1e-06): 9.9999950000016662e-07,
}


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)


@pytest.mark.parametrize("k,mu", sorted(PMF_REFERENCE))
def test_pmf_matches_high_precision_reference(k, mu):
    assert _close(pmf(k, mu), PMF_REFERENCE[(k, mu)])


@pytest.mark.parametrize("k_lo,k_hi,mu", sorted(INTERVAL_REFERENCE))
def test_interval_prob_matches_high_precision_reference(k_lo, k_hi, mu):
    assert _close(interval_prob(k_lo, k_hi, mu), INTERVAL_REFERENCE[(k_lo, k_hi, mu)])


def test_pmf_at_zero_mean():
    assert pmf(0, 0.0) == 1.0
    assert pmf(1, 0.0) == 0.0
    assert pmf(7, 0.0) == 0.0


def test_pmf_far_tail_underflows_to_zero():
    assert pmf(3000, 1.0) == 0.0


def test_pmf_rejects_bad_arguments():
    with pytest.raises(ValueError):
        pmf(-1, 1.0)
    with pytest.raises(ValueError):
        pmf(2, -0.5)
    with pytest.raises(ValueError):
        pmf(2.5, 1.0)
    with pytest.raises(ValueError):
        pmf(2, float("nan"))


def test_interval_prob_empty_range_is_zero():
    assert interval_prob(5, 4, 3.0) == 0.0
    assert interval_prob(1, 0, 0.0) == 0.0


def test_interval_prob_clamps_negative_lower_index():
    mu = 2.75
    assert interval_prob(-7, 3, mu) == interval_prob(0, 3, mu)


def test_interval_prob_at_zero_mean():
    assert interval_prob(0, 5, 0.0) == 1.0
    assert interval_prob(1, 5, 0.0) == 0.0


def test_interval_prob_rejects_negative_mean():
    with pytest.raises(ValueError):
        interval_prob(0, 3, -1.0)


_BAD_KERNEL_CALLS = [
    (interval_prob, (0, 3, math.inf)),
    (interval_prob, (0, 3, math.nan)),
    (interval_prob, (0, 3, math.nextafter(2.0 ** 38, math.inf))),
    (interval_prob, (0, 10**13, 1e13)),       # millions of terms to sum
    (interval_prob, (0, math.inf, 1.0)),
    (interval_prob, (-math.inf, 3, 1.0)),
    (interval_prob, (math.inf, math.inf, 1.0)),
    (interval_prob, (0, math.nan, 1.0)),
    (pmf, (math.inf, 1.0)),
    (pmf, (math.nan, 1.0)),
    (pmf, (0, math.inf)),
    (pmf, (1, math.nextafter(2.0 ** 38, math.inf))),
]


@pytest.mark.parametrize("fn, args", _BAD_KERNEL_CALLS,
                         ids=[f"{fn.__name__}{args}" for fn, args in _BAD_KERNEL_CALLS])
def test_kernel_rejects_non_finite_inputs_and_means_above_the_limit(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


_BAD_INTERVAL_CALLS = [args for fn, args in _BAD_KERNEL_CALLS if fn is interval_prob]


@pytest.mark.parametrize("args", _BAD_INTERVAL_CALLS, ids=str)
def test_batched_kernel_raises_the_scalar_error(args):
    with pytest.raises(ValueError) as want:
        interval_prob(*args)
    # alone, and behind a good element so the first bad one is reported;
    # the coverage floor checks its input the same way
    for g, h, mu in ([args[0]], [args[1]], [args[2]]), (
            [0, args[0], 1], [3, args[1], 2], [1.0, args[2], 1.0]):
        for fn in (interval_probs, kernel._floors):
            with pytest.raises(ValueError) as got:
                fn(g, h, mu)
            assert str(got.value) == str(want.value)


def test_kernel_accepts_the_mean_limit_itself():
    k = 2 ** 38
    assert interval_prob(0, 3, float(k)) == 0.0
    assert pmf(0, float(k)) == 0.0
    assert 0.0 < interval_prob(k - 10, k + 10, float(k)) < 1.0


def test_interval_prob_single_point_equals_pmf():
    for k, mu in [(0, 0.3), (4, 4.0), (60, 50.0), (5100, 5000.0)]:
        assert interval_prob(k, k, mu) == pytest.approx(pmf(k, mu), rel=1e-13)


def test_interval_prob_normalizes():
    for mu in (1e-6, 0.5, 5.0, 50.0, 5000.0):
        hi = int(mu + 50.0 * math.sqrt(mu + 1.0))
        assert interval_prob(0, hi, mu) == pytest.approx(1.0, abs=1e-13)


# (k_lo, k_hi, mu) -> interval_prob, bit for bit: the references above allow
# ~1e-13, so only these catch a change in summation order or compensation
INTERVAL_BITS = {
    (3, 12, 7.0): "0x1.e3009d4afc94ep-1",          # integer mu: two modal terms
    (900, 1100, 1000.0): "0x1.ff3cabe2a1715p-1",
    (15, 30, 7.3): "0x1.0c4e04779840cp-7",         # anchor clamped at lo
    (0, 4, 9.6): "0x1.359d37ca89f7bp-5",           # anchor clamped at k_hi
    (1, 3, 1e-9): "0x1.12e0be801f1e3p-30",
    (995000, 1005000, 1e6): "0x1.ffffeccf51008p-1",
    (50, 50, 48.5): "0x1.c2f0deeff8780p-5",        # single-point range
    (-5, 20, math.nextafter(10.0, 0.0)): "0x1.ff2fd2d0ccb44p-1",
    (432, 743, 462.8893215240607): "0x1.dba0bbb52b23fp-1",  # moves if summed downward first
}


@pytest.mark.parametrize("k_lo,k_hi,mu", list(INTERVAL_BITS))
def test_interval_prob_is_bit_stable(k_lo, k_hi, mu):
    assert interval_prob(k_lo, k_hi, mu).hex() == INTERVAL_BITS[k_lo, k_hi, mu]


def _stirlerr_by_branches(n):
    """`kernel._stirlerr` written as its four series, one branch each."""
    if n <= 15.0:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - kernel._HALF_LN_2PI
    s0, s1, s2, s3, s4 = kernel._S0, kernel._S1, kernel._S2, kernel._S3, kernel._S4
    nn = n * n
    if n > 500.0:
        return (s0 - s1 / nn) / n
    if n > 80.0:
        return (s0 - (s1 - s2 / nn) / nn) / n
    if n > 35.0:
        return (s0 - (s1 - (s2 - s3 / nn) / nn) / nn) / n
    return (s0 - (s1 - (s2 - (s3 - s4 / nn) / nn) / nn) / nn) / n


def test_stirlerr_nests_its_four_series_bit_for_bit():
    ks = [float(k) for k in range(1, 200_001)] + [2.0 ** j for j in range(18, 39)]
    want = [_stirlerr_by_branches(k).hex() for k in ks]
    assert [kernel._stirlerr(k).hex() for k in ks] == want
    assert [x.hex() for x in kernel._stirlerrs(np.array(ks)).tolist()] == want


def test_batched_kernel_reproduces_the_pinned_bits():
    g, h, mu = zip(*INTERVAL_BITS)
    want = list(INTERVAL_BITS.values())
    assert [v.hex() for v in interval_probs(g, h, mu).tolist()] == want
    assert [interval_probs([a], [b], [m])[0].hex()
            for a, b, m in INTERVAL_BITS] == want


def _scalar_hex(g, h, mu):
    return [interval_prob(a, b, m).hex() for a, b, m in zip(g, h, mu)]


def _edge(mu: float, up: bool) -> int | None:
    """The last index out from the mode of mu, upward or downward, whose
    term has its lower bound above the clean-row bound (`kernel._above`);
    None downward when every term down to 0 has."""
    mode = np.array([float(math.floor(mu))])
    steps = np.array([1e8]) if up else mode
    safe = kernel._safe_steps(mode, steps, np.array([mu]), up)[0]
    if not up and safe == mode[0]:
        return None
    return int(mode[0] + safe if up else mode[0] - safe)


def _edge_rows(mu: float) -> list[tuple[int, int, float]]:
    """Rows of mean mu whose last in-range term is the last one above the
    clean-row bound, or the first one below it, upward and downward: from
    the mode where that is at most 5000 steps, and as a few terms in the
    tail."""
    mode, rows = math.floor(mu), []
    up, down = _edge(mu, True), _edge(mu, False)
    for e in (up, up + 1):
        rows.append((e - 3, e, mu))
        if e - mode <= 5000:
            rows.append((mode, e, mu))
    for e in () if down is None else (down, down - 1):
        rows.append((e, e + 3, mu))
        if mode - e <= 5000:
            rows.append((e, mode, mu))
    return rows


# Rows at the clean-row bound, for means from 5e-324 to 2**38.
_EDGE_ROWS = [row for mu in (5e-324, 1e-300, 1e-9, 0.5, 3.7, 40.0, 700.5, 1e5, 1e10,
                             2.0 ** 38)
              for row in _edge_rows(mu)]


@st.composite
def _kernel_args(draw):
    """(g, h, mu) around the mode of mu: negative g, empty ranges, zero and
    tiny means up to 2**38, anchors far enough out to underflow, and ranges
    wide enough that the 1e-18 cutoff stops either side early."""
    mu = draw(st.sampled_from([0.0, 5e-324, 1e-300, 1e-9, 2.0 ** 38])
              | st.floats(0.0, 1e-9) | st.floats(1e-9, 60.0)
              | st.floats(60.0, 1e5) | st.floats(1e5, 2.0 ** 38))
    spread = int(12.0 * math.sqrt(mu)) + 40 if mu <= 1e5 else 2000
    g = math.floor(mu) + draw(st.integers(-spread, spread)
                              | st.integers(spread, 40 * spread))
    if draw(st.integers(0, 9)) == 0:
        g = -draw(st.integers(1, 50))
    return g, g + draw(st.integers(-3, 2 * spread)), mu


@pytest.mark.seeded
@settings(max_examples=300, deadline=None)
@given(st.lists(_kernel_args(), min_size=1, max_size=40),
       st.sampled_from([8192, 64, 7, 1]))
@example([(-5, 3, 0.0), (0, 0, 0.0), (2, 9, 0.0)], 8192)      # mu = 0
@example([(4, 3, 2.5), (-9, -2, 1.0), (0, 40, 1e-9)], 8192)   # empty and tiny
@example([(3000, 3100, 50.0), (0, 3, 1e10)], 1)              # anchor underflows
@example([(0, 2000, 4.5), (0, 2000, 1500.0)], 64)            # cutoff up, down
@example([(5, 7, 6.0), (0, 3000, 2000.0), (0, 3000, 2000.0)], 8192)  # k / mu < 0
@example(_EDGE_ROWS + [(-5, 3, 0.0), (4, 3, 2.5)], 8192)     # at the clean-row bound
def test_batched_kernel_matches_the_scalar_kernel_bit_for_bit(args, cells):
    g, h, mu = zip(*args)
    want = _scalar_hex(g, h, mu)
    # small batch sizes split the steps into many batches; a width of 1
    # sends every call through the lean pre-pass and then the batched loop,
    # and an unreachable one through the loop alone
    for wide in (1, 10 ** 9):
        with mock.patch.object(kernel, "_BATCH_CELLS", cells), \
                mock.patch.object(kernel, "_WIDE", wide):
            got = interval_probs(g, h, mu)
        assert got.dtype == np.float64
        assert [v.hex() for v in got.tolist()] == want


# Rows for wide calls: cutoffs up and down, anchors that underflow, mu = 0
# and empty ranges, ranges that end on every step from 0 to 300 around a
# mode of 1000, and ranges that end at the clean-row bound.
_WIDE_ROWS = ([(0, 2000, 4.5), (0, 2000, 1500.0), (3000, 3100, 50.0), (0, 3, 1e10),
               (-5, 3, 0.0), (2, 9, 0.0), (4, 3, 2.5), (-9, -2, 1.0)]
              + [(1000 - d, 1000 + d // 2, 1000.0) for d in range(301)] + _EDGE_ROWS)


def _wide_sums(g, h, mu):
    """``interval_probs(g, h, mu)``, and for each `_safe_steps` call, upward
    then downward, whether some row has steps left past its safe ones."""
    left, safe_steps = [], kernel._safe_steps

    def recorded(anchor, steps, mu, up):
        safe = safe_steps(anchor, steps, mu, up)
        left.append(bool((steps > safe).any()))
        return safe

    with mock.patch.object(kernel, "_safe_steps", recorded):
        return interval_probs(g, h, mu), left


@pytest.mark.parametrize("long_rows", [0, 1, 2000])
def test_wide_kernel_calls_match_the_scalar_kernel_bit_for_bit(long_rows):
    # Cutoffs 9 sigma from a mode of 2000 stop the long rows after ~400
    # steps each way.  With 2000 of them the short rows stay among the
    # points still going after they stop, so their k / mu turns negative
    # and only a ratio of 0 keeps their terms at exact zeros.
    rows = _WIDE_ROWS + [(0, 3000, 2000.0)] * long_rows
    rows *= -(-kernel._WIDE // len(rows))  # a call of at least _WIDE points
    g, h, mu = zip(*rows)
    got, left = _wide_sums(g, h, mu)
    # upward and downward, some rows go on from the lean pre-pass to the
    # loop that tests the cutoff
    assert left == [True, True]
    assert [v.hex() for v in got.tolist()] == _scalar_hex(g, h, mu)


def test_wide_kernel_calls_of_clean_rows_take_the_lean_route_alone():
    # every last in-range term is above the clean-row bound, so no step is
    # left for the loop that tests the cutoff
    rows = [(1000 - d % 90, 1000 + d % 70, 1000.0 + d / 7.0) for d in range(kernel._WIDE)]
    g, h, mu = zip(*rows)
    got, left = _wide_sums(g, h, mu)
    assert left == [False, False]
    assert [v.hex() for v in got.tolist()] == _scalar_hex(g, h, mu)


def test_batched_kernel_takes_empty_arrays():
    assert interval_probs([], [], []).shape == (0,)


@st.composite
def _floor_args(draw):
    """(g, h, mu) with either side of the window anywhere from deep in one
    tail to deep in the other: negative g, empty windows, g above and h
    below mu, zero, subnormal and tiny means up to 2**38."""
    mu = draw(st.sampled_from([0.0, 5e-324, 1e-300, 1e-6, 2.0 ** 38])
              | st.floats(1e-6, 60.0) | st.floats(60.0, 1e6)
              | st.floats(1e6, 2.0 ** 38))
    reach = int(12.0 * min(math.sqrt(mu), 200.0)) + 20
    side = st.integers(-reach, reach) | st.integers(reach, 20 * reach)
    g = math.floor(mu) + draw(side | side.map(lambda k: -k))
    if draw(st.integers(0, 9)) == 0:
        g = -draw(st.integers(1, 50))
    h = math.floor(mu) + draw(side | side.map(lambda k: -k))
    return g, h, mu


@pytest.mark.seeded
@settings(max_examples=200, deadline=None)
@given(st.lists(_floor_args(), min_size=1, max_size=20))
@example([(-5, 3, 0.0), (1, 0, 5e-324), (0, -1, 1e-6)])        # mu = 0, empty
@example([(9160, 9538, 9348.0), (1, 10**6, 2.0 ** 38)])        # a scan row
def test_floor_is_a_lower_bound_on_the_kernel(args):
    g, h, mu = zip(*args)
    floors = kernel._floors(g, h, mu)
    # the batched kernel is interval_prob bit for bit (tested above)
    probs = interval_probs(g, h, mu)
    for floor, prob, row in zip(floors.tolist(), probs.tolist(), args):
        assert floor <= prob + 1e-12, row
        assert floor == -math.inf or row[2] > 0.0, row



def test_interval_prob_monotone_in_upper_index():
    mu = 7.3
    values = [interval_prob(2, hi, mu) for hi in range(2, 40)]
    assert all(x <= y + 1e-18 for x, y in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


@given(
    mu=st.floats(min_value=1e-8, max_value=2000.0),
    k_lo=st.integers(min_value=0, max_value=300),
    width=st.integers(min_value=0, max_value=300),
)
def test_interval_prob_stays_in_unit_interval(mu, k_lo, width):
    v = interval_prob(k_lo, k_lo + width, mu)
    assert 0.0 <= v <= 1.0


@given(
    mu=st.floats(min_value=1e-8, max_value=500.0),
    k=st.integers(min_value=0, max_value=700),
)
def test_pmf_recurrence(mu, k):
    # (k+1) p(k+1) = mu p(k), the defining ratio of the mass function
    left = (k + 1) * pmf(k + 1, mu)
    right = mu * pmf(k, mu)
    if right > 1e-280:
        assert math.isclose(left, right, rel_tol=1e-12)
    else:
        # too close to the subnormal floor for a relative comparison
        assert left < 1e-270


@given(
    mu=st.floats(min_value=1e-6, max_value=1000.0),
    k_lo=st.integers(min_value=0, max_value=200),
    split=st.integers(min_value=0, max_value=100),
    width=st.integers(min_value=0, max_value=100),
)
def test_interval_prob_additive_over_splits(mu, k_lo, split, width):
    k_mid = k_lo + split
    k_hi = k_mid + width
    whole = interval_prob(k_lo, k_hi, mu)
    parts = interval_prob(k_lo, k_mid, mu) + interval_prob(k_mid + 1, k_hi, mu)
    assert math.isclose(whole, parts, rel_tol=1e-11, abs_tol=1e-13)


@pytest.mark.slow
@settings(deadline=None, max_examples=30)
@given(
    mu=st.sampled_from([1e-6, 0.5, 5.0, 50.0, 5000.0]),
    k_lo=st.integers(min_value=0, max_value=5200),
    width=st.integers(min_value=0, max_value=400),
)
def test_interval_prob_against_live_mpmath(mu, k_lo, width):
    k_hi = k_lo + width
    with mp.workdps(50):
        if k_hi < 0:
            want = mp.mpf(0)
        else:
            upper = mp.gammainc(k_hi + 1, mp.mpf(mu), mp.inf, regularized=True)
            lower = (mp.gammainc(k_lo, mp.mpf(mu), mp.inf, regularized=True)
                     if k_lo >= 1 else mp.mpf(0))
            want = upper - lower
        assert _close(interval_prob(k_lo, k_hi, mu), float(want))


@pytest.mark.slow
def test_pmf_against_live_mpmath_sweep():
    with mp.workdps(50):
        for mu in (1e-6, 0.5, 5.0, 50.0, 5000.0):
            center = int(mu)
            spread = int(6.0 * math.sqrt(mu + 1.0)) + 3
            ks = sorted({0, 1, 2, max(0, center - spread), center,
                         center + spread, center + 4 * spread})
            for k in ks:
                want = mp.exp(k * mp.log(mp.mpf(mu)) - mp.mpf(mu)
                              - mp.loggamma(k + 1))
                assert _close(pmf(k, mu), float(want)), (k, mu)
