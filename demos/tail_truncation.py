"""
Truncating wide rate ranges with exponential tail bounds
========================================================

Relative-margin coverage improves as the rate grows: both deviation
tails shrink like exp(-n * rate * eps^2).  Past a closed-form threshold
the coverage provably exceeds the confidence target, so a planner faced
with a huge rate range only needs exact evaluation below the threshold.
This script compares the bounds with the exact tails, then plans over
[0.2, 100] with the truncation, as `min_sample_size` always does, and
without it, by scanning all of [0.2, 100] at every n.
"""

import itertools

import numpy as np

from poisson_ss import (
    ConfidenceSpec,
    ParamInterval,
    Relative,
    interval_prob,
    lambda_threshold,
    min_sample_size,
    scan_min_coverage,
    tail_bounds,
)


def exact_tails(n, lam, eps):
    """Exact strict-event tail masses for the relative margin."""
    mu = n * lam
    k_lo = int(np.floor(mu * (1.0 - eps)))
    k_hi = int(np.ceil(mu * (1.0 + eps)))
    span = int(mu + 40.0 * np.sqrt(mu) + 60.0)
    lower = interval_prob(0, k_lo, mu) if k_lo >= 0 else 0.0
    upper = interval_prob(k_hi, k_hi + span, mu)
    return lower, upper


def untruncated_search(criterion, interval, delta):
    """The search with no tail bound: every n scans all of [a, b] until the
    first failing rate.  Returns (n_min, coverage evaluations)."""
    evaluations = 0
    for n in itertools.count(1):
        witness, evals = scan_min_coverage(criterion, n, interval, 1.0 - delta)
        evaluations += evals
        if witness.coverage > 1.0 - delta:
            return n, evaluations


def main():
    n, eps = 100, 0.1

    print(f"relative margin {eps:g}, n = {n}: tails vs closed-form bounds")
    print(f"{'rate':>6}  {'exact lower':>12} {'bound':>10}   "
          f"{'exact upper':>12} {'bound':>10}")
    for lam in (0.5, 1.0, 2.0, 5.0, 10.0):
        lo, up = exact_tails(n, lam, eps)
        closed = tail_bounds(n, lam, eps)
        print(f"{lam:>6g}  {lo:>12.3e} {closed.lower:>10.3e}   "
              f"{up:>12.3e} {closed.upper:>10.3e}")
    print()

    # Planning over a deliberately huge range.  Without truncation the
    # candidate scan covers the whole range; with it, everything above
    # the threshold is certified by the bound instead of scanned.
    criterion = Relative(0.5)
    interval = ParamInterval(0.2, 100.0)
    conf = ConfidenceSpec(0.2)

    full_n, full_evals = untruncated_search(criterion, interval, conf.delta)
    cut = min_sample_size(criterion, interval, conf)
    thr = lambda_threshold(cut.n_min, criterion.eps, conf.delta)
    print(f"planning {criterion!r} over [{interval.a:g}, {interval.b:g}], "
          f"80% confidence:")
    print(f"  without truncation: n = {full_n}, "
          f"{full_evals} coverage evaluations, "
          f"scanned up to {interval.b:g}")
    print(f"  with truncation:    n = {cut.n_min}, "
          f"{cut.evaluations} coverage evaluations, "
          f"scanned up to {cut.truncated_b:.6g}")
    print(f"  threshold at the answer: {thr:.6g}")
    assert full_n == cut.n_min
    print(f"  same answer, {full_evals / cut.evaluations:.0f}x "
          f"fewer evaluations with the bound")


if __name__ == "__main__":
    main()
