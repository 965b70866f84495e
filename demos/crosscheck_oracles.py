"""
Cross-checking a plan against independent oracles
=================================================

The candidate scan claims an exact worst-case coverage.  Claims are
cheap; this script audits one plan four different ways: a dense uniform
grid (can only overestimate the minimum), a brute-force sum of the
margin event (no window algebra at all), a seeded Monte Carlo
simulation of the actual estimation experiment, and the pass/fail
decision of the two exact routes.
"""

import math

from poisson_ss import (
    ConfidenceSpec,
    Mixed,
    ParamInterval,
    brute_force_coverage,
    grid_min_coverage,
    min_coverage,
    min_sample_size,
    monte_carlo_coverage,
)


def main():
    criterion = Mixed(0.3, 0.25)
    interval = ParamInterval(0.2, 4.0)
    conf = ConfidenceSpec(0.1)

    plan = min_sample_size(criterion, interval, conf)
    n = plan.n_min
    print(f"plan: n = {n} for {criterion!r} on "
          f"[{interval.a:g}, {interval.b:g}] at 90% confidence")
    print(f"claimed worst coverage {plan.worst_coverage:.12f} "
          f"at rate {plan.worst_lambda:.12f}")
    print()

    worst = min_coverage(criterion, n, interval)

    # Route 1: a 5001-point uniform grid.  Grids sample between
    # breakpoints, so their minimum sits at or above the exact one.
    grid = grid_min_coverage(criterion, n, interval, points=5001)
    print(f"grid minimum       {grid.coverage:.12f} at {grid.lam:.6f} "
          f"(excess {grid.coverage - worst.coverage:+.3e})")

    # Route 2: brute-force summation of the strict margin event at the
    # claimed worst rate, term by term over k.
    brute = brute_force_coverage(criterion, n, worst.lam)
    print(f"brute-force sum    {brute:.12f} "
          f"(difference {brute - worst.coverage:+.3e})")

    # Route 3: simulate the experiment.  Draw the sample sum, form the
    # estimate, count how often it lands within the margin.
    trials = 200_000
    est, stderr = monte_carlo_coverage(criterion, n, worst.lam,
                                       trials=trials, seed=20_240_817)
    z = (est - worst.coverage) / stderr if stderr else 0.0
    print(f"monte carlo        {est:.12f} +- {stderr:.2e} "
          f"({trials:,} trials, {z:+.2f} standard errors)")
    print()

    # Route 4: the exact routes must reach the same verdict.  A grid can
    # miss the worst rate, so it bounds the minimum but casts no vote.
    level = 1.0 - conf.delta
    votes = {
        "candidate scan": worst.coverage > level,
        "brute force": brute > level,
    }
    for name, vote in votes.items():
        print(f"  {name:<15} says coverage > {level:g}: {vote}")
    assert len(set(votes.values())) == 1
    assert abs(brute - worst.coverage) < 1e-12
    assert grid.coverage >= worst.coverage - 1e-12
    # the standard error of the coverage the simulation tests
    sigma = math.sqrt(worst.coverage * (1 - worst.coverage) / trials)
    assert abs(est - worst.coverage) <= 5.0 * sigma
    print(f"\nall oracles agree; simulation sits within "
          f"{abs(est - worst.coverage) / sigma:.2f} true standard errors")


if __name__ == "__main__":
    main()
