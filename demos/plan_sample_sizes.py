"""
Planning sample sizes for rate estimation
=========================================

How many Poisson observations does it take before the sample mean is
trustworthy?  Each scenario below fixes an error margin, a plausible
range for the unknown rate, and a risk level, then asks for the
smallest n whose worst-case coverage over the whole range still clears
the confidence target.
"""

from poisson_ss import (
    Absolute,
    ConfidenceSpec,
    Mixed,
    ParamInterval,
    Relative,
    min_coverage,
    min_sample_size,
)


def describe(title, criterion, interval, conf):
    plan = min_sample_size(criterion, interval, conf)
    print(title)
    print(f"  rate range        [{interval.a:g}, {interval.b:g}]")
    print(f"  confidence target > {1.0 - conf.delta:g}")
    print(f"  minimum n         {plan.n_min}")
    print(f"  worst-case rate   {plan.worst_lambda:.6g}")
    print(f"  coverage there    {plan.worst_coverage:.6f}")
    print(f"  coverage scans    {plan.evaluations}")
    print()
    return plan


def main():
    # A lab counts decay events and wants the rate pinned down to 0.25
    # in absolute terms, 95% of the time, for any true rate up to 2.
    describe("absolute margin 0.25 on [0, 2], 95% confidence",
             Absolute(0.25), ParamInterval(0.0, 2.0), ConfidenceSpec(0.05))

    # A service owner wants arrival-rate estimates within 20% of truth.
    # Relative margins get harder as the rate drops, so the lower end
    # of the range drives the answer.
    describe("relative margin 20% on [0.5, 2], 90% confidence",
             Relative(0.2), ParamInterval(0.5, 2.0), ConfidenceSpec(0.1))

    # The mixed margin accepts either error notion, absolute below the
    # crossover rate and relative above it, which keeps small rates
    # from dominating the budget.
    crit = Mixed(0.3, 0.2)
    print(f"mixed margins switch branches at rate {crit.crossover:g}")
    describe("mixed margin (0.3 abs / 20% rel) on [0.1, 3], 90% confidence",
             crit, ParamInterval(0.1, 3.0), ConfidenceSpec(0.1))

    # More data does not always help: worst-case coverage can dip when
    # n grows, because every window boundary moves at once.  Here n = 7
    # suffices, n = 8 does not, and n = 9 does again.
    crit = Absolute(0.372)
    interval = ParamInterval(0.408, 1.281)
    conf = ConfidenceSpec(0.4246)
    print("sufficiency is not monotone in n "
          f"(margin 0.372 on [0.408, 1.281], target > {1 - conf.delta:g}):")
    for n in (7, 8, 9):
        worst = min_coverage(crit, n, interval)
        verdict = "pass" if worst.coverage > 1.0 - conf.delta else "FAIL"
        print(f"  n = {n}: worst coverage {worst.coverage:.6f}  {verdict}")

    # Because of such dips, no search may walk back from a passing n to
    # the first failure below it; the ascending scan stops at the first
    # passing n and so returns 7, not 9.
    plan = min_sample_size(crit, interval, conf)
    assert plan.n_min == 7
    print(f"the search returns n = {plan.n_min}")


if __name__ == "__main__":
    main()
