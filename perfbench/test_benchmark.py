"""Checks of the benchmark's pinned answers and of its span accounting.

The pinned answers are confirmed by routes that do not use the acceptance
windows of the main path: brute-force enumeration of total counts, and an
exact rational count of the candidate rates.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import math
import types
from fractions import Fraction

import pytest

import tracing
import workloads
from poisson_ss import Absolute, Mixed, Relative, brute_force_coverage, min_coverage
from run import p90

QUERIES = [q for queries in workloads.PLAN_QUERIES.values() for q in queries]
QUERY_IDS = [f"{q.criterion}-{q.interval.a}-{q.interval.b}-{q.delta}" for q in QUERIES]
VERIFY_JOBS = [job for job in workloads.CERTIFY_JOBS if job.line["cmd"] == "verify"]


def _criterion(line: dict):
    if line["criterion"] == "mixed":
        return Mixed(line["eps_a"], line["eps_r"])
    return (Absolute if line["criterion"] == "abs" else Relative)(line["eps"])


@pytest.mark.parametrize("query", QUERIES, ids=QUERY_IDS)
def test_worst_coverage_matches_brute_force(query):
    brute = brute_force_coverage(query.criterion, query.n_min, query.worst_lambda)
    assert abs(brute - query.worst_coverage) <= 1e-12
    assert brute > 1.0 - query.delta


@pytest.mark.parametrize("query", QUERIES, ids=QUERY_IDS)
def test_one_fewer_sample_has_a_failing_witness(query):
    n = query.n_min - 1
    level = 1.0 - query.delta
    witness = min_coverage(query.criterion, n, query.interval, level)
    assert brute_force_coverage(query.criterion, n, witness.lam) <= level


@pytest.mark.parametrize("job", VERIFY_JOBS, ids=lambda job: job.line["criterion"])
def test_verify_worst_coverage_matches_brute_force(job):
    expect = job.expect
    brute = brute_force_coverage(_criterion(job.line), expect["n"], expect["worst_lambda"])
    assert abs(brute - expect["worst_coverage"]) <= 1e-12


def test_coverage_row_minimum_matches_brute_force():
    job = next(j for j in workloads.CERTIFY_JOBS if j.line["cmd"] == "coverage")
    brute = brute_force_coverage(_criterion(job.line), job.line["n"], job.expect["min_lambda"])
    assert abs(brute - job.expect["min_coverage"]) <= 1e-12


def test_candidate_count_matches_exact_rationals():
    # Relative breakpoints are ell / (n (1 -+ eps)); distinct rationals in
    # [a, b] together with the endpoints are the candidate rates.
    job = next(j for j in workloads.CERTIFY_JOBS if j.line["cmd"] == "candidates")
    line = job.line
    eps, a, b = (Fraction(str(line[key])) for key in ("eps", "a", "b"))
    rates = {a, b}
    for scale in (line["n"] * (1 + eps), line["n"] * (1 - eps)):
        for ell in range(math.floor(a * scale), math.ceil(b * scale) + 1):
            if a <= ell / scale <= b:
                rates.add(ell / scale)
    assert len(rates) == job.expect["count"]
    assert len(rates) < 2 * line["n"] * (b - a) + 4


def test_self_time_excludes_child_spans(monkeypatch):
    clock = iter(range(100))
    monkeypatch.setattr(tracing, "perf_counter", lambda: next(clock))
    module = types.SimpleNamespace()
    module.inner = lambda: None
    module.outer = lambda: [module.inner(), module.inner()]
    tracer = tracing.Tracer()
    originals = (module.inner, module.outer)
    tracer.wrap(module, "inner", "inner")
    tracer.wrap(module, "outer", "outer")
    # Clock reads: outer starts 0; inner 1-2 and 3-4; outer ends 5.
    module.outer()
    tracer.remove()
    log = tracer.totals()
    assert (module.inner, module.outer) == originals
    assert log.spans == {"inner": [2, 2], "outer": [1, 3]}
    assert tracer.take_top() == [(0, 5)]
    assert not tracer.wrap(module, "missing", "missing")


def test_covered_seconds_merges_overlaps():
    assert tracing.covered_seconds([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4
    assert tracing.covered_seconds([]) == 0


def test_p90_interpolates_between_order_statistics():
    assert p90([5, 1, 4, 2, 3, 6, 7, 8, 9, 10, 11]) == 10
    assert p90([1, 2]) == pytest.approx(1.9)
    assert p90([7]) == 7
