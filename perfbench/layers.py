"""The traced run: per-layer numbers for one workload.

The run alternates untraced and traced passes until its time is up.
Spans come from `tracing.Tracer`, wrapped at the names the callers look the
functions up under.  Counts and self times are reported per traced pass;
the untraced passes give the base of ``trace.overhead_share``.  Before the
passes, microbenchmarks time single layers at fixed inputs, apart from the
search policy, and ``certify`` runs each job alone to measure how much the
batch pool overlaps them.
"""

from __future__ import annotations

import statistics
import time

import poisson_ss
import poisson_ss.cli
import poisson_ss.coverage
import poisson_ss.minimizer
import poisson_ss.oracle
import poisson_ss.search
from poisson_ss import Absolute, ParamInterval, Relative
from tracing import Tracer, covered_seconds
from workloads import PassTimer

SEARCH = "search.min_sample_size"


def _scanned_share(log, args) -> None:
    """(scan upper end - a) / (b - a), with a and b the searched interval;
    a scan that is not part of a search covers its whole interval."""
    share = 1.0
    if log.stack and log.stack[-1][0] == SEARCH:
        interval, scanned = log.stack[-1][1][1], args[2]
        share = (scanned.b - interval.a) / interval.width
    log.samples["scanned_width_share"].append(share)


def _on_scan(log, args, result, seconds) -> None:
    log.counts["scan_evaluations"] += result[1]
    _scanned_share(log, args)


def _on_search_scan(log, args, result, seconds) -> None:
    """One scan per decided n; its verdict is the search's own test."""
    _on_scan(log, args, result, seconds)
    log.counts["n_decided"] += 1
    if log.stack and log.stack[-1][0] == SEARCH:
        delta = log.stack[-1][1][2].delta
        verdict = "pass_n_s" if result[0].coverage > 1.0 - delta else "fail_n_s"
        log.samples[verdict].append(seconds)


def _on_search_shortcut(log, args, result, seconds) -> None:
    # The tail bound left only the rate a: the n is decided by one coverage.
    log.counts["n_decided"] += 1


def _on_candidates(log, args, result, seconds) -> None:
    log.counts["points_built"] += len(result)


# (module, attribute the caller looks up, span name, hook)
SPANS = (
    (poisson_ss, "min_sample_size", SEARCH, None),
    (poisson_ss.search, "scan_min_coverage", "minimizer.scan_min_coverage", _on_search_scan),
    (poisson_ss.search, "coverage_at", "coverage.coverage_at", _on_search_shortcut),
    (poisson_ss.minimizer, "scan_min_coverage", "minimizer.scan_min_coverage", _on_scan),
    (poisson_ss.minimizer, "candidate_set", "candidates.candidate_set", _on_candidates),
    (poisson_ss.minimizer, "coverage_at_point", "coverage.coverage_at_point", None),
    (poisson_ss.coverage, "interval_prob", "kernel.interval_prob", None),
    (poisson_ss.oracle, "coverage_at", "coverage.coverage_at", None),
    (poisson_ss.cli, "candidate_set", "candidates.candidate_set", _on_candidates),
    (poisson_ss.cli, "coverage_at_point", "coverage.coverage_at_point", None),
    (poisson_ss.cli, "coverage_at", "coverage.coverage_at", None),
    (poisson_ss.cli, "grid_min_coverage", "oracle.grid_min_coverage", None),
    (poisson_ss.cli, "brute_force_coverage", "oracle.brute_force_coverage", None),
    (poisson_ss.cli, "monte_carlo_coverage", "oracle.monte_carlo_coverage", None),
)


def _install(tracer: Tracer) -> None:
    for module, attr, name, hook in SPANS:
        tracer.wrap(module, attr, name, hook)


def _per_call_us(fn, min_seconds: float = 0.02, repeat: int = 5) -> float:
    """Median over ``repeat`` timings of one call of ``fn``, in µs."""
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            fn()
        if time.perf_counter() - start >= min_seconds:
            break
        number *= 2
    timings = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        timings.append((time.perf_counter() - start) / number)
    return statistics.median(timings) * 1e6


def microbenchmarks() -> dict[str, tuple[float, str]]:
    """Single-layer costs at fixed inputs."""
    out = {}
    rel = Relative(0.1)
    for label, mu in (("mu1", 1.0), ("mu1e2", 1e2), ("mu1e4", 1e4)):
        window = poisson_ss.acceptance_bounds(rel, 1, mu)
        out[f"kernel.interval_prob.us_{label}"] = (_per_call_us(
            lambda: poisson_ss.interval_prob(window.g, window.h, mu)), "us")

    cases = ((Absolute(0.1), 276, ParamInterval(0.0, 1.0)),
             (rel, 781, ParamInterval(0.5, 2.0)))
    build_us = sum(_per_call_us(lambda c=case: poisson_ss.candidate_set(*c))
                   for case in cases)
    built = sum(len(poisson_ss.candidate_set(*case)) for case in cases)
    out["candidates.us_per_point"] = (build_us / built, "us")

    criterion, n, interval = cases[0]
    points = poisson_ss.candidate_set(criterion, n, interval).points

    def cover_all():
        for point in points:
            poisson_ss.coverage_at_point(criterion, n, point)

    out["coverage.coverage_at_point.us"] = (_per_call_us(cover_all) / len(points), "us")
    return out


def traced_run(timer: PassTimer, seconds: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the timer's workload, measured for about
    ``seconds``; every operation run is checked and counted in ``timer``."""
    deadline = time.perf_counter() + seconds
    workload = timer.workload
    metrics = microbenchmarks()
    alone_s = 0.0
    if workload.uses_cli:
        alone_s, failed = workload.run_alone()
        timer.attempted += len(workload.jobs)
        timer.failed += failed

    untraced, untraced_norm, traced_norm = [], [], []
    evaluations = output_bytes = 0
    cli_self_s = 0.0
    tracer = Tracer()
    while True:
        elapsed, norm, _ = timer.run()
        untraced.append(elapsed)
        untraced_norm.append(norm)
        _install(tracer)
        try:
            elapsed, norm, outcome = timer.run()
        finally:
            tracer.remove()
        traced_norm.append(norm)
        evaluations += workload.evaluations(outcome)
        output_bytes += workload.output_bytes(outcome)
        top = tracer.take_top()
        if workload.uses_cli:
            cli_self_s += elapsed - covered_seconds(top)
        if time.perf_counter() >= deadline:
            break

    passes = len(traced_norm)
    log = tracer.totals()

    def per_pass(value):
        return value / passes

    def put(name, value, unit):
        metrics[name] = (value, unit)

    for layer in ("kernel.interval_prob", "coverage.coverage_at_point",
                  "coverage.coverage_at", "candidates.candidate_set",
                  "minimizer.scan_min_coverage"):
        put(f"{layer}.calls", per_pass(log.calls(layer)), "count")
        put(f"{layer}.self_s", per_pass(log.self_s(layer)), "s")

    built = log.counts["points_built"]
    put("candidates.points_built", per_pass(built), "count")
    put("candidates.points_used_ratio",
        log.calls("coverage.coverage_at_point") / built if built else 0.0, "ratio")
    scans = log.calls("minimizer.scan_min_coverage")
    put("minimizer.evals_per_scan",
        log.counts["scan_evaluations"] / scans if scans else 0.0, "count")

    put(f"{SEARCH}.self_s", per_pass(log.self_s(SEARCH)), "s")
    put("search.evaluations", per_pass(evaluations), "count")
    put("search.n_decided", per_pass(log.counts["n_decided"]), "count")
    fail_n, pass_n = log.samples["fail_n_s"], log.samples["pass_n_s"]
    put("search.fail_n_ms_mean", 1e3 * statistics.fmean(fail_n) if fail_n else 0.0, "ms")
    put("search.fail_n_ms_max", 1e3 * max(fail_n, default=0.0), "ms")
    put("search.pass_n_ms", 1e3 * statistics.fmean(pass_n) if pass_n else 0.0, "ms")
    shares = log.samples["scanned_width_share"]
    put("chernoff.scanned_width_share", statistics.fmean(shares) if shares else 0.0, "ratio")

    put("oracle.grid_min_coverage.self_s", per_pass(log.self_s("oracle.grid_min_coverage")), "s")
    put("oracle.brute_force_coverage.self_s",
        per_pass(log.self_s("oracle.brute_force_coverage")), "s")
    put("oracle.monte_carlo_coverage.s", per_pass(log.self_s("oracle.monte_carlo_coverage")), "s")

    batch_s = statistics.median(untraced)
    put("cli.self_s", per_pass(cli_self_s), "s")
    put("cli.output_bytes", per_pass(output_bytes), "bytes")
    put("cli.batch_speedup", alone_s / batch_s if workload.uses_cli else 0.0, "ratio")
    put("trace.overhead_share",
        statistics.median(traced_norm) / statistics.median(untraced_norm) - 1.0, "ratio")
    return metrics
