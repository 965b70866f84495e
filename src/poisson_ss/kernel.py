"""Numerically careful Poisson probabilities.

Everything downstream reduces to two quantities: the probability mass
``pmf(k, mu) = mu^k e^(-mu) / k!`` and the interval mass
``interval_prob(k_lo, k_hi, mu) = sum of pmf over max(0, k_lo) <= k <= k_hi``.

The mass function is evaluated through the deviance decomposition

    pmf(k, mu) = exp(-stirlerr(k) - bd0(k, mu)) / sqrt(2 pi k),    k >= 1,

where ``stirlerr(k) = ln k! - ln sqrt(2 pi k) - k ln k + k`` and
``bd0(k, mu) = k ln(k / mu) + mu - k``.  Both pieces are small, cancellation
free numbers, so the result keeps close to full double precision even for
means in the thousands, where the naive ``exp(k ln mu - mu - ln k!)`` loses
several digits to rounding inside the large exponent.

Interval masses are summed outward from the in-range index nearest the mode
with the two-term recurrence ``p(k+1) = p(k) mu / (k+1)``, compensated
Fast2Sum addition, and a relative cutoff of 1e-18 once terms are falling.
Fast2Sum's error term is exact because no term exceeds the running total:
the anchor is the largest in-range term and the total never drops below it.

A sum's length grows like sqrt(mu) (0.3 s at mu = 1e10), so a mean above
_MAX_MEAN = 2**38 (about 2.7e11; the candidate stream's spacing guard keeps
n * b below 1.25e11), a non-finite mean or a non-finite count raises.

`interval_probs` is the batched form: element i of its result is
``interval_prob(g[i], h[i], mu[i])`` bit for bit.  It performs the same
floating-point operations in the same order, in one loop that lays its
arrays out steps x points.  The term recurrence is
``np.multiply.accumulate`` and the running totals and Fast2Sum error terms
are ``np.add.accumulate`` down the step axis; both fold strictly left to
right, as the loops do (``np.sum`` would sum pairwise and change bits).
Each internal batch holds at most _BATCH_CELLS steps x points, or one step
when there are more points.  A step past a range's end or its cutoff has
ratio 0, and adding 0 is exact.

A call of _WIDE points or more first runs a lean pre-pass, `_lean`, over
each point's steps that the cutoff provably cannot stop (`_safe_steps`):
one step at a time over every point still going, with elementwise ufuncs,
0.8 ns a cell against 4 to 9 ns for an accumulate down the step axis
(numpy 2.4, a 2-core x86 host).  With the points in order of falling step
count, the points still going are a prefix, so a step is seven ufunc calls
on slices, with no cutoff test, mask or gather.  Only the points with steps
left go on to the loop, from `_lean`'s last term.  On the 19 262 coverage
rows of Absolute(0.1) [0, 5] at n = 1926 every point but those of the
smallest rates is clean and never reaches the loop.

numpy's ``+ - * /`` and ``sqrt`` round correctly, like Python's, but its
``exp`` and ``log`` need not round like libm, so those go through ``math``
one element at a time.

The cutoff cannot stop a point's sum before a step whose term has the lower
bound ``_pmf_tops(k, mu) * exp(-1 / (12 k))`` above _CLEAN_TERM = 1e-16,
100 times the cutoff (`_above`; stirlerr(k) < 1 / (12 k), and at k = 0 the
bound is exp(-mu) * exp(-1 / 12)).  The terms fall outward from the anchor,
since every ratio rounds to at most 1, so each earlier term is at least as
large; the total is a partial sum of the mass, at most 1; and the error
budget is far inside the factor of 100: the anchor mass is off by a few
ulps, the recurrence by about one ulp a step (below 1e-9 over the few
million steps a term above 1e-16 can be from the mode at mu = 2**38), and
`_pmf_tops`' exponent by a few ulps of |k - mu|.  So no term up to such a
step is at or below 1e-18 of its total, the test would never fire, and
leaving it out changes no bit.  A point whose last in-range term passes
this test is clean: `_lean` sums all of it.  For any other, `_safe_steps`
finds by bisection how many of its steps pass, and the loop takes the rest.

`_floors` is a cheap lower bound on the interval mass, for skipping sums
that cannot matter: one minus the geometric tail bounds
``P(K <= k) <= pmf(k) mu / (mu - k)`` and
``P(K >= k) <= pmf(k) (k + 1) / (k + 1 - mu)``, with ``pmf`` replaced by
its deviance form without the ``stirlerr(k) > 0`` term, an upper bound.
It runs on whole arrays with numpy's ``exp`` and ``log1p``, so it matches
no other route bit for bit.

`_brackets` gives a sharper floor and a ceiling, for the rows the floor
leaves in doubt.  Each tail over its pmf is a continued fraction (DLMF
8.9; Jones and Thron, Continued Fractions, 1980), and the geometric bounds
are convergent 1 of the lower one and 2 of the upper.  The lower tail,
for k < mu, is Legendre's fraction for the upper incomplete gamma
function Gamma(k + 1, mu):

    P(K <= k) / pmf(k) = mu / (b0 + k / (b1 + 2 (k - 1) / (b2 + 3 (k - 2) / ...))),

b_i = mu - k + 2 i, partial numerators i (k + 1 - i).  Its elements are
positive and it ends at i = k + 1, so its convergents lie alternately
above (1, 3, ...) and below (2, 4, ...) the tail.  The upper tail, for
k + 1 > mu, is the fraction for the lower function gamma(k, mu):

    P(K >= k) / pmf(k) = 1 / (1 - mu / (k + 1 + mu / (k + 2 - (k + 1) mu
                             / (k + 3 + 2 mu / (k + 4 - (k + 2) mu / ...))))).

Its partial numerators alternate in sign, and its convergents 2 and 3
(mod 4) lie above the tail, 0 and 1 below.  The even ones, which
`_brackets` uses, follow: written 1 / (1 - c / G) with c = mu / (k + 1)
and G = 1 + a_2 mu / (1 + a_3 mu / (1 + ...)), a_2j = j / ((k + 2 j - 1)
(k + 2 j)) and a_2j+1 = -(k + j) / ((k + 2 j)(k + 2 j + 1)), convergent
2 m is 1 / (1 - c / G_2m-2), which falls as G grows, and G's even part
(its approximants G_0, G_2, G_4, ...) has partial numerators a_2 mu and
-a_2j+1 a_2j+2 mu^2 > 0 and denominators 1 + a_3 mu and
1 + (a_2j + a_2j+1) mu = 1 - (k - 1) mu / ((k + 2 j - 1)(k + 2 j + 1)),
all positive once k + 1 > mu.  So G_0 < G, G_2 > G and G_4 < G: the
tail's convergents 2 and 6 lie above it and 4 below.  The fraction is a
C-fraction whose coefficients tend to 0, so it converges to the function.
The floor takes the lower tail's convergent 3 and the upper's 6 with the
pmf bounded above by `_pmf_tops`; the ceiling takes convergents 2 and 4
with the pmf bounded below by ``_pmf_tops(k, mu) * (1 - 1 / (12 k))``, as
exp(-stirlerr(k)) > 1 - stirlerr(k) and stirlerr(k) < 1 / (12 k) (k = 0,
where `_pmf_tops` is the pmf itself, takes k = 1).  A tail whose fraction
does not apply counts as 1 in a floor and 0 in a ceiling.
`test_brackets_hold_the_exact_mass` checks both against mpmath for means
from 1e-3 to 2**38.

The error budget of all three bounds.  `_brackets` evaluates each fraction
backward from its fixed depth using only sums, products and quotients of
positive numbers (the upper one rewritten through f = k + 1 - mu), so a
convergent is within about a dozen ulps of its value, and the geometric
bounds within 3.  `_pmf_tops` rounds its exponent by a few ulps of
|k - mu|: measured against mpmath, a tail bound moves by at most 1e-14 up
to mu = 1e4, 1e-11 at 1e10 and 5e-11 at 2**38.  So each bound is within
1e-10 of a true one, inside the minimizer's margin of 1e-9 together with
the kernel's own error.
"""

from __future__ import annotations

import math

import numpy as np

_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
_TWO_PI = 2.0 * math.pi

# Coefficients of the asymptotic series stirlerr(n) ~ 1/(12n) - 1/(360n^3) + ...
_S0 = 1.0 / 12.0
_S1 = 1.0 / 360.0
_S2 = 1.0 / 1260.0
_S3 = 1.0 / 1680.0
_S4 = 1.0 / 1188.0

_TERM_CUTOFF = 1e-18
# A point whose last in-range term is above this, 100 times the cutoff, is
# never stopped by it (see the module docstring).
_CLEAN_TERM = 100.0 * _TERM_CUTOFF
_MAX_MEAN = 2.0 ** 38

# Most steps x points cells one batch of `interval_probs` holds (64 KiB per
# float array), so long ranges do not grow its memory; more points than
# this take one step a batch.
_BATCH_CELLS = 8192

# Fewest points for which `interval_probs` runs the lean pre-pass before
# its loop: above the widths, about 250, 350 and 500 points, at which
# pre-pass + loop overtook the loop alone on the coverage rows of
# Absolute(0.1) n = 1926 and of Relative(0.1) n = 781 and the short
# windows of Absolute(0.1) n = 276 (best of 15 interleaved calls, numpy
# 2.4, a 2-core x86 host).  It took 0.55, 0.72 and 0.97 of the loop's
# time at 512 points, and 0.38, 0.57 and 0.76 at 768.
_WIDE = 768

__all__ = ["pmf", "interval_prob", "interval_probs"]


def _stirlerr(n: float) -> float:
    """ln n! - ln(sqrt(2 pi n) (n/e)^n) for integer n >= 1."""
    if n <= 15.0:
        # Direct evaluation; the intermediate terms stay O(40), so the
        # cancellation costs only a few ulps of absolute error.
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _HALF_LN_2PI
    # Four series, shorter as n grows, that nest alike: where one stops
    # early, its innermost coefficient (_S3, _S2 or _S1) stands alone.
    nn = n * n
    c = _S3 if n > 35.0 else _S3 - _S4 / nn
    c = _S2 if n > 80.0 else _S2 - c / nn
    c = _S1 if n > 500.0 else _S1 - c / nn
    return (_S0 - c / nn) / n


def _bd0(x: float, mu: float) -> float:
    """Deviance term x ln(x/mu) + mu - x, stable for x near mu.

    Near x = mu the direct formula subtracts two large, nearly equal
    quantities; the expansion in v = (x - mu)/(x + mu) avoids that.
    """
    if abs(x - mu) < 0.1 * (x + mu):
        v = (x - mu) / (x + mu)
        s = (x - mu) * v
        ej = 2.0 * x * v
        v2 = v * v
        j = 1
        while True:
            ej *= v2
            s1 = s + ej / (2 * j + 1)
            if s1 == s:
                return s1
            s = s1
            j += 1
    return x * math.log(x / mu) + mu - x


# _stirlerr(k) for k = 0..15, the range it evaluates through lgamma and log;
# entry 0 is never read.
_STIRLERR_TABLE = np.array([0.0] + [_stirlerr(float(k)) for k in range(1, 16)])


def _stirlerrs(n: np.ndarray) -> np.ndarray:
    """`_stirlerr` elementwise for integer n >= 1, by its nested series."""
    nn = n * n
    c = np.where(n > 35.0, _S3, _S3 - _S4 / nn)
    c = np.where(n > 80.0, _S2, _S2 - c / nn)
    c = np.where(n > 500.0, _S1, _S1 - c / nn)
    out = (_S0 - c / nn) / n
    small = n <= 15.0
    if small.any():
        out[small] = _STIRLERR_TABLE[n[small].astype(np.intp)]
    return out


def _bd0s(x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """`_bd0` elementwise; the direct formula takes its log from `math`."""
    near = np.abs(x - mu) < 0.1 * (x + mu)
    if near.all():
        return _bd0_series(x, mu)
    out = np.empty_like(x)
    out[near] = _bd0_series(x[near], mu[near])
    xf, mf = x[~near], mu[~near]
    logs = np.fromiter(map(math.log, (xf / mf).tolist()), np.float64, xf.size)
    out[~near] = xf * logs + mf - xf
    return out


def _bd0_series(x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """The series of `_bd0` until no element changes.  An element that has
    stopped changing stays put: its later addends are smaller, with the same
    sign, and rounding is monotone."""
    v = (x - mu) / (x + mu)
    s = (x - mu) * v
    ej = 2.0 * x * v
    v2 = v * v
    j = 1
    while True:
        ej *= v2
        s1 = s + ej / (2 * j + 1)
        if (s1 == s).all():
            return s1
        s = s1
        j += 1


def _pmfs(k: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """`pmf` elementwise for integer k >= 0 and 0 < mu <= 2**38, every exp
    through `math`."""
    zero = k == 0.0
    if zero.any():
        out = np.empty_like(mu)
        out[zero] = np.fromiter(map(math.exp, (-mu[zero]).tolist()), np.float64)
        out[~zero] = _pmfs(k[~zero], mu[~zero])
        return out
    args = -_stirlerrs(k) - _bd0s(k, mu)
    return np.fromiter(map(math.exp, args.tolist()), np.float64, k.size) / np.sqrt(_TWO_PI * k)


def pmf(k: int, mu: float) -> float:
    """Poisson probability mass mu^k e^(-mu) / k!.

    Args:
        k: nonnegative integer count.
        mu: mean in [0, 2**38]; pmf(0, 0.0) is 1.0 by convention.

    Returns:
        The mass as a float, with relative error a few ulps (well inside
        1e-13) throughout the supported range; underflows to 0.0 in the far
        tails rather than raising.
    """
    if k < 0 or k != k // 1:  # inf // 1 and NaN // 1 are NaN
        raise ValueError(f"count must be a nonnegative integer, got {k!r}")
    if not (0.0 <= mu <= _MAX_MEAN):
        raise ValueError(f"mean must lie in [0, 2**38], got {mu!r}")
    if mu == 0.0:
        return 1.0 if k == 0 else 0.0
    if k == 0:
        return math.exp(-mu)
    kf = float(k)
    return math.exp(-_stirlerr(kf) - _bd0(kf, mu)) / math.sqrt(2.0 * math.pi * kf)


def interval_prob(k_lo: int, k_hi: int, mu: float) -> float:
    """Probability that a Poisson(mu) variate lies in [max(0, k_lo), k_hi].

    An empty range (k_hi < max(0, k_lo)) has probability 0.  The sum is
    anchored at the admissible index nearest the mode floor(mu) and extended
    outward by the term recurrence, so every term is reached through
    decreasing ratios and no factorials are formed.

    Absolute error is far below 1e-12 for means up to 1e6 and ranges up to
    1e6 terms.  The result is clamped to [0, 1].
    """
    if not (0.0 <= mu <= _MAX_MEAN):
        raise ValueError(f"mean must lie in [0, 2**38], got {mu!r}")
    if not (abs(k_hi - k_lo) < math.inf):  # inf or NaN: a count is not finite
        raise ValueError(f"counts must be finite, got [{k_lo!r}, {k_hi!r}]")
    lo = max(0, k_lo)
    if k_hi < lo:
        return 0.0
    if mu == 0.0:
        return 1.0 if lo == 0 else 0.0

    # The pmf is unimodal with mode floor(mu), so the clamped anchor is the
    # largest in-range term.  Each recurrence factor (mu/k with k > mu, k/mu
    # with k <= floor(mu)) rounds to at most 1 and a sum of positive terms
    # never drops below the anchor mass, so total >= term at every step.
    anchor = min(max(math.floor(mu), lo), k_hi)
    anchor_mass = pmf(anchor, mu)
    if anchor_mass == 0.0:
        # The largest in-range term underflows; the whole range is
        # negligible at double precision.
        return 0.0

    total = anchor_mass
    comp = 0.0

    term = anchor_mass
    k = anchor
    while k < k_hi:
        k += 1
        term *= mu / k
        fresh = total + term
        comp += (total - fresh) + term
        total = fresh
        if term <= _TERM_CUTOFF * total:
            break

    term = anchor_mass
    k = anchor
    while k > lo:
        term *= k / mu
        k -= 1
        fresh = total + term
        comp += (total - fresh) + term
        total = fresh
        if term <= _TERM_CUTOFF * total:
            break

    out = total + comp
    if out < 0.0:
        return 0.0
    if out > 1.0:
        return 1.0
    return out


def _extend(total, comp, mass, anchor, steps, mu, up: bool) -> None:
    """Continue the compensated sums (total, comp), in place, by up to
    ``steps`` terms outward from ``mass`` at index ``anchor``: upward by the
    ratio mu / k, downward by k / mu, each point stopping after its first
    term at or below 1e-18 of its total, as the loops of `interval_prob` do.

    A call of _WIDE points or more first sends each point's steps that the
    cutoff cannot stop (`_safe_steps`) through `_lean`; only the points
    with steps left go on, from `_lean`'s last term.  The loop lays rows
    out as steps and columns as points, at most _BATCH_CELLS cells a batch.
    A step past a point's last one has ratio 0 and adds an exact 0, so the
    last row holds each point's sums after its last step, unless the cutoff
    stopped it on an earlier row."""
    term, k, left, pos = mass, anchor, steps, slice(None)
    if steps.size >= _WIDE:
        safe = _safe_steps(anchor, steps, mu, up)
        term = _lean(total, comp, mass, anchor, safe, mu, up)
        pos = np.flatnonzero(steps > safe)
        k = anchor + safe if up else anchor - safe
        term, k, left, mu = term[pos], k[pos], (steps - safe)[pos], mu[pos]
    while left.size:
        most = int(left.max())
        if most == 0:
            return
        rows = min(most, max(1, _BATCH_CELLS // left.size))
        j = np.arange(1.0, rows + 1.0)[:, None]
        terms = np.empty((rows + 1, left.size))
        terms[0] = term
        if up:
            np.divide(mu, k + j, out=terms[1:])
        else:
            np.divide(k - (j - 1.0), mu, out=terms[1:])
        np.copyto(terms[1:], 0.0, where=j > left)
        np.multiply.accumulate(terms, axis=0, out=terms)
        sums = terms.copy()
        sums[0] = total[pos]
        np.add.accumulate(sums, axis=0, out=sums)
        comps = np.empty_like(sums)
        comps[0] = comp[pos]
        np.subtract(sums[:-1], sums[1:], out=comps[1:])
        comps[1:] += terms[1:]
        np.add.accumulate(comps, axis=0, out=comps)
        # a cutoff on a point's last step or later changes nothing
        early = (terms[1:] <= _TERM_CUTOFF * sums[1:]) & (j < left)
        stopped = early.any(axis=0)
        if stopped.any():
            stop = np.where(stopped, early.argmax(axis=0) + 1, rows)
            cols = np.arange(left.size)
            term, total[pos], comp[pos] = (
                terms[stop, cols], sums[stop, cols], comps[stop, cols])
        else:
            term, total[pos], comp[pos] = terms[-1], sums[-1], comps[-1]
        if rows == most:
            return
        more = ~stopped & (left > rows)
        pos = np.flatnonzero(more) if isinstance(pos, slice) else pos[more]
        term, k, left, mu = term[more], k[more], left[more] - rows, mu[more]
        k = k + rows if up else k - rows


def _safe_steps(anchor, steps, mu, up: bool) -> np.ndarray:
    """How many of each point's ``steps`` the cutoff provably cannot stop:
    all of them where the last in-range term is `_above` the clean bound,
    else the most, found by bisection, whose last term is (see the module
    docstring)."""
    safe = np.where(_above(anchor, steps, mu, up), steps, 0.0)
    rows = np.flatnonzero(safe != steps)
    if rows.size:
        anchor, mu, lo, hi = anchor[rows], mu[rows], safe[rows], steps[rows]
        while (hi - lo > 1.0).any():
            mid = np.floor(0.5 * (lo + hi))
            ok = _above(anchor, mid, mu, up)
            lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
        safe[rows] = lo
    return safe


def _above(anchor, steps, mu, up: bool) -> np.ndarray:
    """Whether the term ``steps`` out from ``anchor`` is above _CLEAN_TERM
    by its lower bound ``_pmf_tops(k, mu) * exp(-1 / (12 k))`` (with 1 / 12
    at k = 0)."""
    k = anchor + steps if up else anchor - steps
    # log1p(-1) at k = 0 is not selected; a tiny mu overflows to a bound of 0
    with np.errstate(all="ignore"):
        low = _pmf_tops(k, mu) * np.exp(-1.0 / (12.0 * np.maximum(k, 1.0)))
    return low > _CLEAN_TERM


def _lean(total, comp, mass, anchor, steps, mu, up: bool) -> np.ndarray:
    """`_extend`'s lean pre-pass: ``steps`` that the cutoff cannot stop
    (`_safe_steps`), one step at a time over every point, returning each
    point's last term.  In order of falling step count the points still
    going at each step are a prefix, so a step is seven ufunc calls on
    slices, the operations of `interval_prob`'s loops in their order, with
    no cutoff test, mask or gather.  Each step writes the new totals into
    the other of two buffers, so a point's sum ends in the first buffer
    after an even number of steps and in the second after an odd one."""
    order = np.argsort(-steps)
    left = steps[order]
    term, k, mu, cmp = mass[order], anchor[order], mu[order], comp[order]
    even, odd, ratio = total[order], np.empty(order.size), np.empty(order.size)
    cur, nxt = even, odd
    ends = left.tolist()
    going, shown = len(ends), -1
    for step in range(1, int(ends[0]) + 1):
        while ends[going - 1] < step:
            going -= 1
        if going != shown:
            shown = going
            t, r, kk, m, c, x, y = (
                a[:going] for a in (term, ratio, k, mu, cmp, cur, nxt))
        if up:  # term *= mu / k with k = anchor + step
            kk += 1.0
            np.divide(m, kk, out=r)
        else:  # term *= k / mu, then k -= 1
            np.divide(kk, m, out=r)
            kk -= 1.0
        t *= r
        np.add(x, t, out=y)
        np.subtract(x, y, out=x)
        x += t
        c += x
        x, y, cur, nxt = y, x, nxt, cur
    total[order] = np.where(left % 2.0 == 0.0, even, odd)
    comp[order] = cmp
    out = np.empty(order.size)
    out[order] = term
    return out


def interval_probs(g, h, mu) -> np.ndarray:
    """`interval_prob` over 1-D arrays of equal length.

    Element i of the float64 result is ``interval_prob(g[i], h[i], mu[i])``
    bit for bit, from `_extend`'s loop, after a lean pre-pass in a call of
    _WIDE points or more.  Counts are integers (integer or float arrays);
    input that `interval_prob` rejects raises its ValueError, for the first
    bad element.
    """
    g, h, mu = np.asarray(g), np.asarray(h), np.asarray(mu)
    # Python floats overflow to inf silently (x / mu at a subnormal mean,
    # inf - inf in the count check); so do these arrays.
    with np.errstate(over="ignore", invalid="ignore"):
        _check(g, h, mu)
        lo = np.maximum(g, 0.0)
        hi = np.asarray(h, dtype=np.float64)
        mu = np.asarray(mu, dtype=np.float64)
        live = (hi >= lo) & (mu != 0.0)
        if live.all():
            out = np.empty(mu.shape)
            live = slice(None)
        else:
            out = np.zeros(mu.shape)
            out[(mu == 0.0) & (lo == 0.0) & (hi >= 0.0)] = 1.0
            live = np.flatnonzero(live)
            lo, hi, mu = lo[live], hi[live], mu[live]

        anchor = np.minimum(np.maximum(np.floor(mu), lo), hi)
        mass = _pmfs(anchor, mu)
        total, comp = mass.copy(), np.zeros_like(mass)
        _extend(total, comp, mass, anchor, hi - anchor, mu, up=True)
        _extend(total, comp, mass, anchor, anchor - lo, mu, up=False)
        # An underflowing anchor, the largest in-range term, makes every term
        # and so the result an exact 0.0.
        res = total + comp
        out[live] = np.where(res < 0.0, 0.0, np.where(res > 1.0, 1.0, res))
        return out


def _check(g: np.ndarray, h: np.ndarray, mu: np.ndarray) -> None:
    """Raise `interval_prob`'s ValueError for the first element it rejects."""
    if mu.size and not (mu.min() >= 0.0 and mu.max() <= _MAX_MEAN
                        and np.isfinite(h - g).all()):
        bad = ~((mu >= 0.0) & (mu <= _MAX_MEAN) & np.isfinite(h - g))
        i = int(bad.argmax())
        interval_prob(g[i].item(), h[i].item(), mu[i].item())  # raises


def _floors(g, h, mu) -> np.ndarray:
    """A lower bound on ``interval_probs(g, h, mu)`` elementwise, within
    1e-10 (see the module docstring): 1 minus the geometric bounds on the
    two tails outside [g, h], convergents 1 and 2 of `_brackets`'
    fractions, a tail bound being 1 where its formula does not apply, and
    -inf where mu = 0.  Input that `interval_prob` rejects raises its
    ValueError."""
    g, h, mu = np.asarray(g), np.asarray(h), np.asarray(mu)
    with np.errstate(all="ignore"):
        _check(g, h, mu)
        below = g - 1.0  # the lower tail is K <= below
        t_lo = np.where(g <= 0.0, 0.0, np.where(
            below < mu, _pmf_tops(below, mu) * mu / (mu - below), 1.0))
        above = h + 1.0  # the upper tail is K >= above
        t_hi = np.where((above >= 0.0) & (above + 1.0 > mu),
                        _pmf_tops(above, mu) * (above + 1.0) / (above + 1.0 - mu), 1.0)
        return np.where(mu == 0.0, -np.inf, 1.0 - t_lo - t_hi)


def _brackets(g, h, mu) -> tuple[np.ndarray, np.ndarray]:
    """(floor, ceiling) of ``interval_probs(g, h, mu)`` elementwise, for
    arrays that `_floors` accepts (see the module docstring): 1 minus upper
    bounds on the two tails outside [g, h], from convergent 3 of the lower
    tail's fraction and 6 of the upper's and the pmf bound `_pmf_tops`,
    and 1 minus lower bounds, from convergents 2 and 4 and the pmf bound
    ``_pmf_tops(k, mu) * (1 - 1 / (12 max(k, 1)))``, and at least 0.  A
    tail whose fraction does not apply is 1 in the floor and 0 in the
    ceiling; where mu = 0 the floor is -inf and the ceiling inf."""
    g, h, mu = np.asarray(g), np.asarray(h), np.asarray(mu, dtype=np.float64)
    n = mu.size
    with np.errstate(all="ignore"):
        ks = np.concatenate((g - 1.0, h + 1.0))
        tops = _pmf_tops(ks, np.concatenate((mu, mu)))
        below, above = ks[:n], ks[n:]
        np.copyto(tops[:n], 0.0, where=below < 0.0)  # an empty lower tail
        lows = 12.0 * np.maximum(ks, 1.0)
        np.divide(1.0, lows, out=lows)
        np.subtract(1.0, lows, out=lows)
        lows *= tops
        # The lower tail K <= k = below, for k < mu: P / pmf(k) = mu / D,
        # D = b0 + k / (b0 + 2 + 2 (k - 1) / (b0 + 4 + ...)), b0 = mu - k.
        b0 = mu - below
        lo = below < mu
        d = b0 + below / (b0 + 2.0)
        ceiling = 1.0 - np.where(lo, lows[:n] * mu / d, 0.0)
        d = b0 + below / ((b0 + 2.0) + (2.0 * below - 2.0) / (b0 + 4.0))
        floor = 1.0 - np.where(lo, tops[:n] * mu / d, 1.0)
        # The upper tail K >= k = above, for f = k + 1 - mu > 0:
        # P / pmf(k) = Y_1 / (Y_1 - mu), Y_i = k + i + c_i+1 / Y_i+1 the
        # fraction's tail from k + i, up to k + depth - 1.  Each
        # Y_2j = k + 2 j - (k + j) mu / Y_2j+1 is taken without its
        # subtraction, as ((k + j)(f + 2 j) + j (k + 2 j + 1) + (k + 2 j) x)
        # / Y_2j+1 with Y_2j+1 = k + 2 j + 1 + x, x = (j + 1) mu / Y_2j+2 (0
        # at the last), and Y_1 - mu as f + mu / Y_2: positive terms only.
        a1 = above + 1.0
        f = a1 - mu
        hi = (above >= 0.0) & (f > 0.0)
        k3 = above + 3.0
        base = a1 * (f + 2.0) + k3  # Y_2 Y_3 without its x term
        x = mu * k3 / base  # mu / Y_2 at depth 4, Y_3 = k + 3
        ceiling -= np.where(hi, lows[n:] * ((a1 + x) / (f + x)), 0.0)
        k2, k5 = above + 2.0, above + 5.0
        x = 2.0 * mu * k5 / (k2 * (f + 4.0) + 2.0 * k5)  # 2 mu / Y_4 at depth 6
        x = mu * (k3 + x) / (base + k2 * x)  # mu / Y_2, Y_3 = k + 3 + x
        floor -= np.where(hi, tops[n:] * ((a1 + x) / (f + x)), 1.0)
        zero = mu == 0.0
        # an empty window's tails can overlap, a ceiling below its mass, 0
        return np.where(zero, -np.inf, floor), np.where(zero, np.inf, np.maximum(ceiling, 0.0))


def _pmf_tops(k: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """An upper bound on `pmf` elementwise for integer k >= 0 and mu > 0:
    the deviance form without its ``stirlerr(k) > 0`` term, with
    ``bd0(k, mu) = k log1p((k - mu) / mu) - (k - mu)`` in numpy.  Its error,
    a few ulps of |k - mu|, stays far inside what the tail bounds give away
    wherever the result is not negligible.  k = 0 gives exp(-mu) itself."""
    d = k - mu
    bd0 = k * np.log1p(d / mu) - d
    return np.where(k == 0.0, np.exp(-mu), np.exp(-bd0) / np.sqrt(_TWO_PI * k))
