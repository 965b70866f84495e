"""Command-line surface: plan sample sizes, inspect coverage, verify answers.

Subcommands:

* ``size``        smallest sufficient n for a (criterion, interval, delta)
* ``coverage``    coverage rows over the candidate set or a uniform grid,
                  summed a chunk at a time by the scan's array path
* ``candidates``  the candidate rates with their breakpoint provenance
* ``verify``      cross-check the candidate-based answer against the
                  grid, brute-force, and Monte Carlo oracles

A batch mode (``--config FILE``) runs one JSON job per line, one after
another, and prints each job's JSON result line as soon as the job ends.
A job's keys are the long flags of its subcommand in underscore form;
any other key fails that job with a validation error.  A job goes through
the same argument parser as a command line, built once for the whole
batch, and a job the parser rejects gets a line whose error is the
parser's reason (``poisson-ss size: the following arguments are required:
--delta``).  JSON true and false switch an on/off flag (``check_bound``);
any other flag takes its value as written, so true or false there is
rejected with a reason.  Machine output serializes every float with 17
significant digits so values round-trip exactly, and is strict JSON: a
non-finite float (the upper bound b = inf that ``size`` accepts for a
relative or mixed margin, whose tail bound makes the scan finite) is
written as null.  The rows of ``coverage`` and
``candidates`` are kept as tuples and written with one ``%`` template per
row and format, byte for byte what formatting each value apart gives; a
row float that is inf or NaN, found from its block's arrays, is null in
JSON too.

Exit codes: 0 success, 1 validation error, 2 budget exceeded, 3 internal
verification failure.  No other value is ever returned.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time

import numpy as np

from .candidates import _layout, _point_arrays, candidate_set, cardinality_bound
from .minimizer import _blocks, min_coverage
from .oracle import (
    _MAX_GRID_POINTS,
    _check_points,
    _check_trials,
    _grid_rows,
    brute_force_coverage,
    grid_min_coverage,
    monte_carlo_coverage,
)
from .search import MaxSampleSizeExceeded, min_sample_size
from .types import (
    Absolute,
    ConfidenceSpec,
    ErrorCriterion,
    Mixed,
    NonFiniteBound,
    ParamInterval,
    Relative,
    ValidationError,
    validate,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BUDGET = 2
EXIT_VERIFY = 3

GRID_FLOOR_TOL = 1e-12
BRUTE_FORCE_TOL = 1e-12
MC_STDERR_MULTIPLE = 4.0


class _UsageError(ValidationError):
    """argparse's reason for rejecting arguments, prefixed by the rejecting
    (sub)command's prog; ``usage`` is that (sub)command's usage line."""

    def __init__(self, parser: argparse.ArgumentParser, reason: str) -> None:
        super().__init__(f"{parser.prog}: {reason}")
        self.usage = parser.format_usage()


class _Parser(argparse.ArgumentParser):
    """Usage errors raise instead of exiting: argparse would exit with
    status 2, which the contract reserves for exceeded budgets, and a batch
    job's line must carry the reason."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(self, message)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


_json_string = json.encoder.encode_basestring_ascii

# One template per row and format; "%.17g" writes a finite float as _fmt
# does, and "%d" writes an int as its repr.
_COVERAGE_JSON = '{"lambda": %.17g, "g": %d, "h": %d, "coverage": %.17g}'
_COVERAGE_CSV = "%.17g,%d,%d,%.17g\n"
_CANDIDATE_JSON = '{"lambda": %.17g, "kind": %s, "ell": %s, "extra_tags": %s}'
_CANDIDATE_TEXT = "%.17g  %s%s%s\n"
# "%.17g" of inf, -inf or NaN, where a row template writes a float value
_NON_FINITE = re.compile(r"(?<=: )(?:-?inf|nan)(?=[,}])")


class _Rows(list):
    """A result's row tuples, which `_jsonify` writes as one ``to_json(row)``
    text per row.  ``finite`` is false when a float in them is inf or NaN:
    the row text then holds that float's "%.17g" text, which `_jsonify`
    replaces by null."""

    finite = True

    def __init__(self, to_json) -> None:
        super().__init__()
        self.to_json = to_json


def _candidate_json(row: tuple) -> str:
    lam, kind, ell, extra_tags = row
    return _CANDIDATE_JSON % (lam, _json_string(kind), "null" if ell is None else ell,
                              _jsonify(extra_tags))


def _candidate_text(row: tuple) -> str:
    lam, kind, ell, extra_tags = row
    return _CANDIDATE_TEXT % (lam, kind, "" if ell is None else f"  ell={ell}",
                              "".join(f"  (+{kind2} ell={ell2})" for kind2, ell2 in extra_tags))


def _jsonify(obj) -> str:
    """Strict JSON text with all finite floats at 17 significant digits and
    non-finite ones as null.  Exact floats and ints are tested for first,
    then `_Rows`, the bulk of ``coverage`` and ``candidates`` output, whose
    rows are written one template each; strings are written as `json.dumps`
    writes them."""
    kind = type(obj)
    if kind is float:
        return format(obj, ".17g") if math.isfinite(obj) else "null"
    if kind is int:
        return int.__repr__(obj)
    if kind is _Rows:
        text = "[" + ", ".join(map(obj.to_json, obj)) + "]"
        return text if obj.finite else _NON_FINITE.sub("null", text)
    if isinstance(obj, str):
        return _json_string(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(
            f"{_json_string(str(k))}: {_jsonify(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(_jsonify, obj)) + "]"
    # bool, None, int subclasses and float subclasses such as numpy's
    if isinstance(obj, bool) or obj is None or isinstance(obj, int):
        return json.dumps(obj)
    if isinstance(obj, float):
        return _fmt(obj) if math.isfinite(obj) else "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _add_problem_flags(p: argparse.ArgumentParser, with_delta: bool) -> None:
    p.add_argument("--criterion", required=True, choices=("abs", "rel", "mixed"),
                   help="error margin type")
    p.add_argument("--eps", type=float, help="margin for abs/rel")
    p.add_argument("--eps-a", dest="eps_a", type=float,
                   help="absolute margin for mixed")
    p.add_argument("--eps-r", dest="eps_r", type=float,
                   help="relative margin for mixed")
    p.add_argument("--a", type=float, required=True, help="lower rate bound")
    p.add_argument("--b", type=float, required=True, help="upper rate bound")
    if with_delta:
        p.add_argument("--delta", type=float, required=True,
                       help="risk level; require coverage > 1 - delta")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="poisson-ss",
                  description="Exact minimum sample sizes for Poisson rate "
                              "estimation with margin-of-error guarantees.")
    top.add_argument("--config", metavar="FILE",
                     help="batch mode: one JSON job per line, e.g. "
                          '{"cmd": "size", "criterion": "abs", ...}')
    sub = top.add_subparsers(dest="command")

    p_size = sub.add_parser("size", help="minimum sufficient sample size")
    _add_problem_flags(p_size, with_delta=True)
    p_size.add_argument("--start-n", dest="start_n", type=int, default=1)
    p_size.add_argument("--max-n", dest="max_n", type=int, default=1_000_000)
    p_size.add_argument("--format", choices=("json", "text"), default="json")

    p_cov = sub.add_parser("coverage", help="coverage rows at fixed n")
    _add_problem_flags(p_cov, with_delta=False)
    p_cov.add_argument("--n", type=int, required=True, help="sample size")
    p_cov.add_argument("--grid", type=int, metavar="K",
                       help="evaluate on a K-point uniform grid instead of "
                            "the candidate set")
    p_cov.add_argument("--format", choices=("csv", "json"), default="csv")

    p_cand = sub.add_parser("candidates", help="list candidate rates")
    _add_problem_flags(p_cand, with_delta=False)
    p_cand.add_argument("--n", type=int, required=True, help="sample size")
    p_cand.add_argument("--check-bound", dest="check_bound",
                        action="store_true",
                        help="fail (exit 3) unless the cardinality bound holds")
    p_cand.add_argument("--format", choices=("json", "text"), default="json")

    p_ver = sub.add_parser("verify", help="cross-check the candidate answer")
    _add_problem_flags(p_ver, with_delta=True)
    p_ver.add_argument("--n", type=int,
                       help="sample size to verify (default: search n_min)")
    p_ver.add_argument("--grid-points", dest="grid_points", type=int,
                       default=2001)
    p_ver.add_argument("--trials", type=int, default=100_000,
                       help="Monte Carlo trials")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--format", choices=("json", "text"), default="json")
    return top


def _build_criterion(ns: argparse.Namespace) -> ErrorCriterion:
    if ns.criterion == "mixed":
        if ns.eps is not None:
            raise ValidationError(
                "--eps applies to --criterion abs/rel; "
                "mixed takes --eps-a and --eps-r")
        if ns.eps_a is None or ns.eps_r is None:
            raise ValidationError(
                "--criterion mixed requires both --eps-a and --eps-r")
        return Mixed(ns.eps_a, ns.eps_r)
    if ns.eps_a is not None or ns.eps_r is not None:
        raise ValidationError(
            "--eps-a/--eps-r apply only to --criterion mixed")
    if ns.eps is None:
        raise ValidationError(f"--criterion {ns.criterion} requires --eps")
    return Absolute(ns.eps) if ns.criterion == "abs" else Relative(ns.eps)


def _problem(
    ns: argparse.Namespace, bounded: bool = True
) -> tuple[ErrorCriterion, ParamInterval, ConfidenceSpec]:
    """The validated problem; ``bounded`` commands scan all of [a, b] at a
    fixed n and so also need b finite."""
    criterion = _build_criterion(ns)
    interval = ParamInterval(ns.a, ns.b)
    # Commands without a risk level still get the interval/margin checks;
    # the placeholder delta can never be the failing constraint.
    delta = getattr(ns, "delta", None)
    conf = ConfidenceSpec(0.5 if delta is None else delta)
    validate(criterion, interval, conf)
    if bounded and math.isinf(interval.b):
        raise NonFiniteBound(
            f"{ns.command} scans all of [a, b] and needs a finite --b, got {ns.b!r}")
    return criterion, interval, conf


def _criterion_obj(criterion: ErrorCriterion) -> dict:
    if isinstance(criterion, Absolute):
        return {"kind": "abs", "eps": criterion.eps}
    if isinstance(criterion, Relative):
        return {"kind": "rel", "eps": criterion.eps}
    assert isinstance(criterion, Mixed)
    return {"kind": "mixed", "eps_a": criterion.eps_a,
            "eps_r": criterion.eps_r}


def _execute_size(ns: argparse.Namespace) -> tuple[dict, int]:
    criterion, interval, conf = _problem(ns, bounded=False)
    t0 = time.perf_counter()
    plan = min_sample_size(criterion, interval, conf,
                           start_n=ns.start_n, max_n=ns.max_n)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    result = {
        "criterion": _criterion_obj(criterion),
        "interval": {"a": interval.a, "b": interval.b},
        "delta": conf.delta,
        "n_min": plan.n_min,
        "worst_lambda": plan.worst_lambda,
        "worst_coverage": plan.worst_coverage,
        "truncated_b": plan.truncated_b,
        "evaluations": plan.evaluations,
        "elapsed_ms": elapsed_ms,
    }
    return result, EXIT_OK


def _execute_coverage(ns: argparse.Namespace) -> tuple[dict, int]:
    criterion, interval, _ = _problem(ns)
    if ns.grid is not None:
        blocks = _grid_rows(criterion, ns.n, interval, ns.grid)
    else:
        _row_bound(criterion, ns.n, interval)
        blocks = _blocks(criterion, ns.n, _point_arrays(_layout(criterion, ns.n, interval)))
    rows = _Rows(_COVERAGE_JSON.__mod__)
    for lams, gs, hs, covs in blocks:
        # dtype=float also reads the Python floats of an object-dtype block
        # (oracle._grid_rows' per-rate chunk)
        rows.finite &= bool(np.isfinite(np.asarray((lams, covs), dtype=float)).all())
        rows.extend(zip(lams.tolist(), gs.tolist(), hs.tolist(), covs.tolist()))
    result = {
        "criterion": _criterion_obj(criterion),
        "interval": {"a": interval.a, "b": interval.b},
        "n": ns.n,
        "rows": rows,
    }
    return result, EXIT_OK


def _row_bound(criterion, n: int, interval) -> float:
    """`cardinality_bound` for a command that builds the candidate set of
    one n (coverage, candidates, verify), refused when it exceeds the
    ceiling a uniform grid has; the command checks it before it builds any
    point."""
    bound = cardinality_bound(criterion, n, interval)
    if bound > _MAX_GRID_POINTS:
        raise ValidationError(
            f"the candidate set may hold up to {bound:.15g} points, more than "
            f"the {_MAX_GRID_POINTS} a command builds for one n; narrow [a, b] "
            "or lower n")
    return bound


def _execute_candidates(ns: argparse.Namespace) -> tuple[dict, int]:
    criterion, interval, _ = _problem(ns)
    bound = _row_bound(criterion, ns.n, interval)
    points = candidate_set(criterion, ns.n, interval)
    bound_holds = len(points) < bound
    # every rate lies in the finite [a, b], so the rows stay finite
    rows = _Rows(_candidate_json)
    rows.extend((p.value, p.kind.value, p.ell,
                 tuple((kind.value, ell) for kind, ell in p.extra_tags))
                for p in points)
    result = {
        "criterion": _criterion_obj(criterion),
        "interval": {"a": interval.a, "b": interval.b},
        "n": ns.n,
        "count": len(points),
        "bound": bound,
        "bound_holds": bound_holds,
        "points": rows,
    }
    return result, EXIT_VERIFY if ns.check_bound and not bound_holds else EXIT_OK


def _check(name: str, discrepancy: float, tolerance: float) -> dict:
    return {"name": name, "passed": discrepancy <= tolerance,
            "discrepancy": discrepancy, "tolerance": tolerance}


def _execute_verify(ns: argparse.Namespace) -> tuple[dict, int]:
    criterion, interval, conf = _problem(ns)
    _check_trials(ns.trials)  # bad sizes fail before any search
    _check_points(ns.grid_points)
    if ns.seed < 0:
        raise ValidationError(f"--seed must be >= 0, got {ns.seed}")
    n = ns.n
    if n is None:
        n = min_sample_size(criterion, interval, conf).n_min
    _row_bound(criterion, n, interval)
    worst = min_coverage(criterion, n, interval)

    grid = grid_min_coverage(criterion, n, interval, ns.grid_points)
    brute = brute_force_coverage(criterion, n, worst.lam)
    estimate, _ = monte_carlo_coverage(criterion, n, worst.lam, ns.trials, ns.seed)
    p = worst.coverage
    level = 1.0 - conf.delta
    # A grid can miss the worst rate, so only bounds the minimum; the
    # decision is the candidate minimum's, which brute force must share.
    decisions = {p > level, brute > level}
    checks = [
        _check("grid_floor", p - grid.coverage, GRID_FLOOR_TOL),
        _check("brute_force_at_worst", abs(brute - p), BRUTE_FORCE_TOL),
        # the standard error of a mean of trials with success chance p
        _check("monte_carlo_at_worst", abs(estimate - p),
               MC_STDERR_MULTIPLE * math.sqrt(p * (1.0 - p) / ns.trials)),
        _check("decision_agreement", len(decisions) - 1, 0),
    ]
    passed = all(c["passed"] for c in checks)
    result = {
        "criterion": _criterion_obj(criterion),
        "interval": {"a": interval.a, "b": interval.b},
        "delta": conf.delta,
        "n": n,
        "worst_lambda": worst.lam,
        "worst_coverage": worst.coverage,
        "grid_points": ns.grid_points,
        "trials": ns.trials,
        "seed": ns.seed,
        "checks": checks,
        "passed": passed,
    }
    return result, EXIT_OK if passed else EXIT_VERIFY


_EXECUTORS = {
    "size": _execute_size,
    "coverage": _execute_coverage,
    "candidates": _execute_candidates,
    "verify": _execute_verify,
}


def _render_size(result: dict, out) -> None:
    print(f"n_min: {result['n_min']}", file=out)
    print(f"worst rate: {_fmt(result['worst_lambda'])}", file=out)
    print(f"worst coverage: {_fmt(result['worst_coverage'])}", file=out)
    print(f"scanned up to rate: {_fmt(result['truncated_b'])}", file=out)
    print(f"coverage evaluations: {result['evaluations']}", file=out)
    print(f"elapsed: {result['elapsed_ms']:.1f} ms", file=out)


def _render_coverage(result: dict, out) -> None:
    out.write("lambda,g,h,coverage\n" + "".join(map(_COVERAGE_CSV.__mod__, result["rows"])))


def _render_candidates(result: dict, out) -> None:
    out.write("".join(map(_candidate_text, result["points"])))
    verdict = "holds" if result["bound_holds"] else "VIOLATED"
    print(f"count: {result['count']}  bound: {_fmt(result['bound'])} "
          f"({verdict})", file=out)


def _render_verify(result: dict, out) -> None:
    for check in result["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        print(f"check {check['name']}: {status} "
              f"(discrepancy {_fmt(check['discrepancy'])}, "
              f"tolerance {_fmt(check['tolerance'])})", file=out)
    print(f"n: {result['n']}  worst rate: {_fmt(result['worst_lambda'])}  "
          f"worst coverage: {_fmt(result['worst_coverage'])}", file=out)
    print("overall: " + ("pass" if result["passed"] else "FAIL"), file=out)


# Text and CSV formats; every subcommand's json format is _jsonify(result).
_RENDERERS = {
    "size": _render_size,
    "coverage": _render_coverage,
    "candidates": _render_candidates,
    "verify": _render_verify,
}


def _run(execute, *args) -> tuple[dict, int]:
    """``execute(*args)`` as (result, exit code); an exception becomes an
    ``{"error", "code"}`` result under the exit-code contract."""
    try:
        return execute(*args)
    except ValueError as exc:  # ValidationError included
        error, code = str(exc), EXIT_VALIDATION
    except MaxSampleSizeExceeded as exc:
        error, code = str(exc), EXIT_BUDGET
    except Exception as exc:  # keep the exit-code contract even on bugs
        error, code = f"internal error: {exc}", EXIT_VERIFY
    return {"error": error, "code": code}, code


def _job_flags(parser: argparse.ArgumentParser, cmd: str) -> dict[str, bool]:
    """The keys a ``cmd`` job accepts, the subcommand's long flags in
    underscore form except help, each mapped to whether it is on/off."""
    sub = parser._subparsers._group_actions[0].choices[cmd]
    return {flag[2:].replace("-", "_"): action.nargs == 0
            for flag, action in sub._option_string_actions.items()
            if flag.startswith("--") and flag != "--help"}


def _job_to_argv(job: dict, parser: argparse.ArgumentParser) -> list[str]:
    """Each key names a flag exactly, so argparse never expands a prefix
    (``"crit"``) or reaches help, which would print to stdout; values go
    after ``=`` so none is read as a flag.  true gives the bare flag and
    false leaves an on/off flag off; for any other flag both reach argparse
    as a missing or invalid value."""
    job = dict(job)
    cmd = job.pop("cmd", None)
    if cmd not in _EXECUTORS:
        raise ValidationError(
            f'job needs "cmd" set to one of size/coverage/candidates/verify, '
            f"got {cmd!r}")
    flags = _job_flags(parser, cmd)
    argv = [cmd]
    for key, value in job.items():
        if key not in flags:
            raise ValidationError(
                f"unknown key {key!r} for a {cmd} job; "
                f"expected one of {', '.join(sorted(flags))}")
        if value is None or (value is False and flags[key]):
            continue
        flag = "--" + key.replace("_", "-")
        argv.append(flag if value is True else f"{flag}={value}")
    return argv


def _run_job(job, parser: argparse.ArgumentParser) -> tuple[dict, int]:
    if not isinstance(job, dict):
        raise ValidationError(f"job must be a JSON object, got {job!r}")
    ns = parser.parse_args(_job_to_argv(job, parser))
    return _EXECUTORS[ns.command](ns)


def _run_batch(path: str, out, parser: argparse.ArgumentParser) -> int:
    """Runs every job of the file at ``path`` through ``parser``, which a
    parse leaves as it was, so one parser serves the whole batch."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config file: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    jobs = []
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        try:
            jobs.append(json.loads(line))
        except json.JSONDecodeError as exc:
            print(f"error: config line {lineno} is not valid JSON: {exc}",
                  file=sys.stderr)
            return EXIT_VALIDATION

    status = EXIT_OK
    for job in jobs:
        result, code = _run(_run_job, job, parser)
        print(_jsonify(result), file=out, flush=True)
        status = max(status, code)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if (ns.config is None) == (ns.command is None):
            parser.error("give either a subcommand or --config")
    except _UsageError as exc:
        print(f"{exc.usage}error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if ns.config is not None:
        return _run_batch(ns.config, sys.stdout, parser)
    result, code = _run(_EXECUTORS[ns.command], ns)
    if "error" in result:
        print(f"error: {result['error']}", file=sys.stderr)
    elif ns.format == "json":
        print(_jsonify(result))
    else:
        _RENDERERS[ns.command](result, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
