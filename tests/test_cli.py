"""Command-line behavior: output schemas, formats, exit codes, batch mode."""

import contextlib
import enum
import io
import json
import math
import os
import pathlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

import poisson_ss
from poisson_ss import (
    Absolute,
    Mixed,
    ParamInterval,
    Relative,
    candidate_set,
    candidate_stream,
    coverage_at,
    min_coverage,
    min_sample_size,
    ConfidenceSpec,
)
from poisson_ss import candidates, cli, kernel, oracle, search
from poisson_ss.candidates import _layout, _point_arrays, cardinality_bound
from poisson_ss.cli import main
from poisson_ss.minimizer import _blocks

sys.path.insert(0, __file__.rsplit("/", 1)[0])
from exact_reference import reference_coverage_at_point  # noqa: E402
from test_minimizer import _SMALL_CHUNKS, _scans  # noqa: E402
from test_oracle import _GRID_CHUNKS, grid_reference, grids  # noqa: E402

SIZE_ARGS = ["size", "--criterion", "abs", "--eps", "0.5",
             "--a", "0", "--b", "0.5", "--delta", "0.5"]
SIZE_JOB = {"criterion": "abs", "eps": 0.5, "a": 0, "b": 0.5, "delta": 0.5}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_size_json_schema_and_values(capsys):
    code, out, _ = run(capsys, SIZE_ARGS)
    assert code == 0
    result = json.loads(out)
    assert set(result) == {"criterion", "interval", "delta", "n_min",
                           "worst_lambda", "worst_coverage", "truncated_b",
                           "evaluations", "elapsed_ms"}
    assert result["criterion"] == {"kind": "abs", "eps": 0.5}
    assert result["interval"] == {"a": 0.0, "b": 0.5}
    assert result["n_min"] == 3
    plan = min_sample_size(Absolute(0.5), ParamInterval(0.0, 0.5),
                           ConfidenceSpec(0.5))
    # 17 significant digits means the parsed floats round-trip exactly
    assert result["worst_coverage"] == plan.worst_coverage
    assert result["worst_lambda"] == plan.worst_lambda


def test_size_text_format(capsys):
    code, out, _ = run(capsys, SIZE_ARGS + ["--format", "text"])
    assert code == 0
    assert "n_min: 3" in out
    assert "worst coverage:" in out


def test_size_budget_exhaustion_exits_2(capsys):
    code, out, err = run(capsys, [
        "size", "--criterion", "rel", "--eps", "0.2", "--a", "0.5",
        "--b", "2", "--delta", "0.1", "--max-n", "20"])
    assert code == 2
    assert out == ""
    assert "20" in err


def test_size_tiny_relative_lower_bound_exits_2_at_once(capsys, monkeypatch):
    def evaluated(*args, **kwargs):
        raise AssertionError("coverage was evaluated")
    for name in ("scan_min_coverage", "_decide", "coverage_at"):
        monkeypatch.setattr(search, name, evaluated)
    code, out, err = run(capsys, [
        "size", "--criterion", "rel", "--eps", "0.1", "--a", "1e-300",
        "--b", "1", "--delta", "0.05"])
    assert code == 2
    assert out == ""
    assert "1000000" in err


@pytest.mark.parametrize("argv", [
    ["size", "--criterion", "rel", "--eps", "1e-200", "--a", "0.5",
     "--b", "2", "--delta", "0.1", "--max-n", "5"],
    ["size", "--criterion", "mixed", "--eps-a", "0.1", "--eps-r", "1e-200",
     "--a", "0.5", "--b", "2", "--delta", "0.1", "--max-n", "3"],
])
def test_size_with_an_underflowing_relative_margin_exits_2(capsys, argv):
    # eps_r**2 underflows to 0, so the tail bound certifies nothing and
    # every n up to max_n is scanned over all of [a, b]; --max-n 5 clears
    # the relative lower bound ln(1/delta) / a ~ 4.6, so rel is scanned too
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: no sufficient sample size found with n <= {argv[-1]}\n"


def test_coverage_csv_schema(capsys):
    code, out, _ = run(capsys, [
        "coverage", "--criterion", "abs", "--eps", "0.25",
        "--a", "0", "--b", "1", "--n", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,g,h,coverage"
    points = candidate_set(Absolute(0.25), 2, ParamInterval(0.0, 1.0))
    assert len(lines) == 1 + len(points)
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(lines[-1].split(",")[0]) == 1.0


def test_coverage_grid_rows_round_trip(capsys):
    code, out, _ = run(capsys, [
        "coverage", "--criterion", "rel", "--eps", "0.3",
        "--a", "0.5", "--b", "1.5", "--n", "7", "--grid", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    lams = [float(row.split(",")[0]) for row in lines[1:]]
    assert lams == [0.5, 1.0, 1.5]
    for row, lam in zip(lines[1:], lams):
        _, g, h, cov = row.split(",")
        want = coverage_at(Relative(0.3), 7, lam)
        assert (int(g), int(h)) == (want.g, want.h)
        assert float(cov) == want.coverage


def test_coverage_json_format(capsys):
    code, out, _ = run(capsys, [
        "coverage", "--criterion", "abs", "--eps", "0.25",
        "--a", "0", "--b", "1", "--n", "2", "--format", "json"])
    assert code == 0
    result = json.loads(out)
    assert result["n"] == 2
    assert [row["lambda"] for row in result["rows"]] == [0.0, 0.25, 0.75, 1.0]


def _criterion_argv(crit) -> list[str]:
    if isinstance(crit, Mixed):
        return ["--criterion", "mixed", "--eps-a", repr(crit.eps_a),
                "--eps-r", repr(crit.eps_r)]
    kind = "abs" if isinstance(crit, Absolute) else "rel"
    return ["--criterion", kind, "--eps", repr(crit.eps)]


def _listable(config) -> bool:
    crit, _, interval, _ = config
    return interval.a < interval.b and not (isinstance(crit, Relative) and interval.a == 0.0)


def _coverage_rows(argv) -> list[tuple]:
    """The rows of a ``coverage --format json`` command, floats as hex."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv + ["--format", "json"]) == 0
    return [(float(row["lambda"]).hex(), row["g"], row["h"], float(row["coverage"]).hex())
            for row in json.loads(out.getvalue())["rows"]]


@pytest.mark.seeded
@settings(max_examples=200, deadline=None)
@given(_scans().filter(_listable), _SMALL_CHUNKS)
def test_coverage_rows_match_the_per_point_reference(config, chunk):
    # Small chunks put rows on every side of chunk cuts and held-back merge
    # groups, and a small kernel width sends most of them through the
    # step-by-step sweep; each row must still be the reference's.
    crit, n, interval, _ = config
    argv = ["coverage", *_criterion_argv(crit), "--a", repr(interval.a),
            "--b", repr(interval.b), "--n", str(n)]
    with mock.patch.object(candidates, "_CHUNK", chunk), mock.patch.object(kernel, "_WIDE", 5):
        got = _coverage_rows(argv)
    want = [(r.lam.hex(), r.g, r.h, r.coverage.hex())
            for r in (reference_coverage_at_point(crit, n, point)
                      for point in candidate_stream(crit, n, interval))]
    assert got == want


@pytest.mark.seeded
@settings(max_examples=100, deadline=None)
@given(grids(), _GRID_CHUNKS)
def test_coverage_grid_rows_match_the_per_rate_reference(config, chunk):
    crit, n, interval, points = config
    argv = ["coverage", *_criterion_argv(crit), "--a", repr(interval.a),
            "--b", repr(interval.b), "--n", str(n), "--grid", str(points)]
    with mock.patch.object(oracle, "_CHUNK", chunk):
        got = _coverage_rows(argv)
    want = [(r.lam.hex(), r.g, r.h, r.coverage.hex())
            for r in grid_reference(crit, n, interval, points)]
    assert got == want


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _head(crit, n, interval) -> dict:
    return {"criterion": cli._criterion_obj(crit),
            "interval": {"a": interval.a, "b": interval.b}, "n": n}


def _coverage_reference(head, blocks) -> tuple[str, str]:
    """The JSON and CSV a ``coverage`` command writes for ``blocks``, as
    per-row dicts through `_jsonify` and as one `_fmt` line per row."""
    rows = [row for block in blocks for row in zip(*(column.tolist() for column in block))]
    dicts = [{"lambda": lam, "g": g, "h": h, "coverage": cov} for lam, g, h, cov in rows]
    csv = "".join(f"{cli._fmt(lam)},{g},{h},{cli._fmt(cov)}\n" for lam, g, h, cov in rows)
    return cli._jsonify({**head, "rows": dicts}) + "\n", "lambda,g,h,coverage\n" + csv


def _candidates_reference(crit, n, interval) -> tuple[str, str]:
    """The JSON and text a ``candidates`` command writes, from a dict per
    point through `_jsonify` and one `_fmt` line per point."""
    points = candidate_set(crit, n, interval)
    bound = cardinality_bound(crit, n, interval)
    result = {**_head(crit, n, interval), "count": len(points), "bound": bound,
              "bound_holds": len(points) < bound,
              "points": [{"lambda": p.value, "kind": p.kind.value, "ell": p.ell,
                          "extra_tags": [[kind.value, ell] for kind, ell in p.extra_tags]}
                         for p in points]}
    text = "".join(
        f"{cli._fmt(p.value)}  {p.kind.value}{'' if p.ell is None else f'  ell={p.ell}'}"
        + "".join(f"  (+{kind.value} ell={ell})" for kind, ell in p.extra_tags) + "\n"
        for p in points)
    text += f"count: {len(points)}  bound: {cli._fmt(bound)} (holds)\n"
    return cli._jsonify(result) + "\n", text


def _argv(cmd, crit, n, interval) -> list[str]:
    return [cmd, *_criterion_argv(crit), "--a", repr(interval.a), "--b", repr(interval.b),
            "--n", str(n)]


def _assert_grid_output_matches_the_per_row_writer(crit, n, interval, points) -> None:
    argv = _argv("coverage", crit, n, interval) + ["--grid", str(points)]
    want_json, want_csv = _coverage_reference(
        _head(crit, n, interval), oracle._grid_rows(crit, n, interval, points))
    assert _stdout(argv + ["--format", "json"]) == want_json
    assert _stdout(argv) == want_csv


@pytest.mark.seeded
@settings(max_examples=100, deadline=None)
@given(_scans().filter(_listable), _SMALL_CHUNKS, grids(), _GRID_CHUNKS)
def test_row_output_matches_the_per_row_writer(config, chunk, grid, grid_chunk):
    # Rows are written one template each; the text must be what a dict per
    # row through _jsonify, or one _fmt line per row, gives.
    crit, n, interval, _ = config
    argv = _argv("coverage", crit, n, interval)
    with mock.patch.object(candidates, "_CHUNK", chunk):
        want_json, want_csv = _coverage_reference(
            _head(crit, n, interval),
            _blocks(crit, n, _point_arrays(_layout(crit, n, interval))))
        assert _stdout(argv + ["--format", "json"]) == want_json
        assert _stdout(argv) == want_csv
        want_json, want_text = _candidates_reference(crit, n, interval)
        argv[0] = "candidates"
        assert _stdout(argv) == want_json
        assert _stdout(argv + ["--format", "text"]) == want_text
    with mock.patch.object(oracle, "_CHUNK", grid_chunk):
        _assert_grid_output_matches_the_per_row_writer(*grid)


@pytest.mark.parametrize("config", [
    (Relative(0.01), 2**53 + 1, ParamInterval(1e-12, 2e-12), 20),
    (Absolute(1e-25), 10**21, ParamInterval(0.0, 1e-20), 50),
    (Mixed(1e-17, 0.1), 2**52, ParamInterval(1e-13, 3e-13), 9),
])
def test_grid_output_of_the_per_rate_chunk_matches_the_per_row_writer(config):
    # n >= 2**52 sends each chunk through coverage_at rate by rate, whose
    # object-dtype columns carry Python ints and floats
    assert all(column.dtype == object
               for block in oracle._grid_rows(*config) for column in block)
    _assert_grid_output_matches_the_per_row_writer(*config)


def _non_finite_blocks(*args):
    yield (np.array([0.0, math.inf]), np.array([0, 1]), np.array([0, 2]),
           np.array([1.0, math.nan]))
    yield (np.array([0.5, 1.0]), np.array([1, 2]), np.array([1, 3]),
           np.array([-math.inf, 0.25]))
    yield tuple(np.array(column, dtype=object)
                for column in ([2.0, math.nan], [3, 10**20], [4, 10**20], [0.5, math.inf]))


@pytest.mark.parametrize("route, extra", [("_blocks", []), ("_grid_rows", ["--grid", "4"])])
def test_non_finite_row_values_are_null_in_json_and_fmt_text_in_csv(route, extra):
    crit, n, interval = Absolute(0.25), 2, ParamInterval(0.0, 1.0)
    argv = _argv("coverage", crit, n, interval) + extra
    want_json, want_csv = _coverage_reference(_head(crit, n, interval), _non_finite_blocks())
    with mock.patch.object(cli, route, _non_finite_blocks):
        got_json = _stdout(argv + ["--format", "json"])
        got_csv = _stdout(argv)
    assert got_json == want_json
    rows = json.loads(got_json, parse_constant=_reject_constant)["rows"]
    assert [(row["lambda"], row["coverage"]) for row in rows] == [
        (0.0, 1.0), (None, None), (0.5, None), (1.0, 0.25), (2.0, 0.5), (None, None)]
    assert got_csv == want_csv
    assert got_csv.splitlines()[1:3] == ["0,0,0,1", "inf,1,2,nan"]


def test_candidates_json_listing(capsys):
    code, out, _ = run(capsys, [
        "candidates", "--criterion", "abs", "--eps", "0.25",
        "--a", "0", "--b", "1", "--n", "2"])
    assert code == 0
    result = json.loads(out)
    assert result["count"] == 4
    assert result["bound"] == 2.0 * 2 * 1.0 + 4
    assert result["bound_holds"] is True
    kinds = [p["kind"] for p in result["points"]]
    assert kinds[0] == "endpoint_a"
    assert kinds[-1] == "endpoint_b"
    middle = result["points"][1]
    assert middle["lambda"] == 0.25
    assert middle["kind"] == "abs_plus"
    assert middle["ell"] == 0
    assert middle["extra_tags"] == [["abs_minus", 1]]


def test_candidates_check_bound_passes(capsys):
    code, _, _ = run(capsys, [
        "candidates", "--criterion", "mixed", "--eps-a", "0.3",
        "--eps-r", "0.2", "--a", "0.1", "--b", "3", "--n", "29",
        "--check-bound"])
    assert code == 0


def test_candidates_text_format(capsys):
    code, out, _ = run(capsys, [
        "candidates", "--criterion", "abs", "--eps", "0.25",
        "--a", "0", "--b", "1", "--n", "2", "--format", "text"])
    assert code == 0
    assert "count: 4" in out
    assert "(holds)" in out


def test_verify_passes_and_is_deterministic(capsys):
    argv = ["verify", "--criterion", "rel", "--eps", "0.5", "--a", "0.5",
            "--b", "3", "--delta", "0.2", "--n", "40", "--trials", "20000",
            "--seed", "5"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    result = json.loads(out1)
    assert result["passed"] is True
    assert [c["name"] for c in result["checks"]] == [
        "grid_floor", "brute_force_at_worst", "monte_carlo_at_worst",
        "decision_agreement"]
    assert all(c["passed"] for c in result["checks"])
    assert result["n"] == 40
    worst = min_coverage(Relative(0.5), 40, ParamInterval(0.5, 3.0))
    assert result["worst_coverage"] == worst.coverage


def test_verify_searches_n_when_omitted(capsys):
    code, out, _ = run(capsys, [
        "verify", "--criterion", "abs", "--eps", "0.5", "--a", "0",
        "--b", "0.5", "--delta", "0.5", "--trials", "5000"])
    assert code == 0
    assert json.loads(out)["n"] == 3


def test_verify_text_format(capsys):
    code, out, _ = run(capsys, [
        "verify", "--criterion", "abs", "--eps", "0.5", "--a", "0",
        "--b", "0.5", "--delta", "0.5", "--n", "3", "--trials", "5000",
        "--format", "text"])
    assert code == 0
    assert "overall: pass" in out
    assert out.count("check ") == 4


def test_verify_failure_exits_3(capsys, monkeypatch):
    # force the brute-force agreement check to an impossible tolerance
    monkeypatch.setattr(cli, "BRUTE_FORCE_TOL", -1.0)
    code, out, _ = run(capsys, [
        "verify", "--criterion", "abs", "--eps", "0.5", "--a", "0",
        "--b", "0.5", "--delta", "0.5", "--n", "3", "--trials", "5000"])
    assert code == 3
    result = json.loads(out)
    assert result["passed"] is False
    failed = [c for c in result["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["brute_force_at_worst"]


# The six queries of the benchmark's plan workloads, with their n_min.
_PLAN_QUERIES = [
    (["--criterion", "rel", "--eps", "0.15", "--a", "0.5", "--b", "2", "--delta", "0.05"], 354),
    (["--criterion", "rel", "--eps", "0.2", "--a", "0.5", "--b", "50", "--delta", "0.05"], 201),
    (["--criterion", "rel", "--eps", "0.2", "--a", "0.5", "--b", "2", "--delta", "0.1"], 141),
    (["--criterion", "abs", "--eps", "0.1", "--a", "0", "--b", "1", "--delta", "0.1"], 276),
    (["--criterion", "abs", "--eps", "0.2", "--a", "0", "--b", "2", "--delta", "0.05"], 193),
    (["--criterion", "mixed", "--eps-a", "0.1", "--eps-r", "0.2", "--a", "0.1", "--b", "3",
      "--delta", "0.05"], 201),
]


@pytest.mark.parametrize("flags, n_min", _PLAN_QUERIES)
@pytest.mark.parametrize("below", [0, 1])
def test_verify_passes_at_n_min_and_the_n_below(capsys, flags, n_min, below):
    # At n_min - 1 of the Absolute(0.1) [0, 1] query the minimum, 0.89697 at
    # rate 0.99818, lies between two of the 2001 grid rates, whose minimum is
    # above 0.9: the grid bounds the minimum but does not vote on the decision.
    code, out, _ = run(capsys, ["verify", *flags, "--n", str(n_min - below)])
    result = json.loads(out)
    assert (code, result["passed"]) == (0, True), result["checks"]
    assert (result["worst_coverage"] > 1.0 - result["delta"]) == (below == 0)


def test_verify_monte_carlo_tolerance_comes_from_the_worst_coverage(capsys):
    # Every trial lands in the window, so the estimate is 1 and its own
    # standard error 0; the coverage it tests is 1 - 1e-12.
    code, out, _ = run(capsys, [
        "verify", "--criterion", "abs", "--eps", "0.5", "--a", "0", "--b", "1e-12",
        "--delta", "1e-6", "--n", "1", "--trials", "100"])
    result = json.loads(out)
    assert code == 0 and result["passed"] is True
    p = result["worst_coverage"]
    (mc,) = [c for c in result["checks"] if c["name"] == "monte_carlo_at_worst"]
    assert 0.0 < mc["discrepancy"] <= mc["tolerance"]
    assert mc["tolerance"] == cli.MC_STDERR_MULTIPLE * math.sqrt(p * (1.0 - p) / 100)


@pytest.mark.parametrize("argv", [
    [],                                                     # nothing given
    ["sizes"],                                              # unknown command
    ["size", "--criterion", "abs", "--a", "0", "--b", "1",
     "--delta", "0.1"],                                     # missing --eps
    ["size", "--criterion", "abs", "--eps", "2", "--a", "0",
     "--b", "1", "--delta", "0.1"],                         # margin out of range
    ["size", "--criterion", "abs", "--eps", "0.2", "--a", "1",
     "--b", "1", "--delta", "0.1"],                         # empty interval
    ["size", "--criterion", "rel", "--eps", "0.2", "--a", "0",
     "--b", "1", "--delta", "0.1"],                         # relative with a = 0
    ["size", "--criterion", "mixed", "--eps", "0.2", "--eps-a", "0.3",
     "--eps-r", "0.2", "--a", "0.1", "--b", "1", "--delta", "0.1"],
    ["size", "--criterion", "mixed", "--eps-a", "0.3", "--a", "0.1",
     "--b", "1", "--delta", "0.1"],                         # missing --eps-r
    ["size", "--criterion", "rel", "--eps", "0.2", "--eps-a", "0.3",
     "--a", "0.1", "--b", "1", "--delta", "0.1"],           # stray mixed flag
    ["coverage", "--criterion", "abs", "--eps", "0.2", "--a", "0",
     "--b", "1", "--n", "0"],                               # n < 1
    ["coverage", "--criterion", "abs", "--eps", "0.2", "--a", "0",
     "--b", "1", "--n", "5", "--grid", "1"],                # grid too small
    ["verify", "--criterion", "abs", "--eps", "0.2", "--a", "0",
     "--b", "1", "--delta", "0.1", "--n", "5", "--trials", "0"],
    ["verify", "--criterion", "abs", "--eps", "0.2", "--a", "0",
     "--b", "1", "--delta", "0.1", "--n", "5", "--seed", "-1"],
    ["size", "--criterion", "rel", "--eps", "0.2", "--a", "nan",
     "--b", "1", "--delta", "0.1"],                         # non-finite a
    ["size", "--criterion", "mixed", "--eps-a", "0.1", "--eps-r", "1e-200",
     "--a", "0.5", "--b", "inf", "--delta", "0.1"],         # unbounded scan
    ["verify", "--criterion", "rel", "--eps", "0.2", "--a", "0.5",
     "--b", "inf", "--delta", "0.1"],
    ["verify", "--criterion", "rel", "--eps", "0.2", "--a", "0.5",
     "--b", "inf", "--delta", "0.1", "--n", "5"],
    ["coverage", "--criterion", "rel", "--eps", "0.2", "--a", "0.5",
     "--b", "inf", "--n", "5"],
    ["coverage", "--criterion", "rel", "--eps", "0.2", "--a", "0.5",
     "--b", "inf", "--n", "5", "--grid", "5"],
    ["candidates", "--criterion", "rel", "--eps", "0.2", "--a", "0.5",
     "--b", "inf", "--n", "5"],
    ["size", "--criterion", "rel", "--eps", "0.5", "--a", "0.2",
     "--b", "100", "--delta", "0.2", "--chernoff", "off"],  # not a flag
    ["coverage", "--criterion", "abs", "--eps", "0.1", "--a", "0",
     "--b", "1e308", "--n", "2", "--grid", "2"],            # n * b overflows
    ["coverage", "--criterion", "rel", "--eps", "0.1", "--a", "1",
     "--b", "1e308", "--n", "2", "--grid", "2"],
    ["verify", "--criterion", "abs", "--eps", "0.1", "--a", "1e308",
     "--b", "1.7e308", "--delta", "0.1", "--n", "2"],
    ["candidates", "--criterion", "abs", "--eps", "0.2", "--a", "0",
     "--b", "1", "--n", "-3"],                              # n < 1
    ["verify", "--criterion", "abs", "--eps", "0.2", "--a", "0",
     "--b", "1", "--delta", "0.1", "--n", "0"],
    ["size", "--criterion", "abs", "--eps", "0.1", "--a", "0",
     "--b", "1e308", "--delta", "0.1"],                     # too wide to resolve
    ["size", "--criterion", "rel", "--eps", "0.3", "--a", "1e300",
     "--b", "1.5e300", "--delta", "0.1"],                   # mean above the limit
    ["coverage", "--criterion", "rel", "--eps", "0.3", "--a", "1e-300",
     "--b", "1e300", "--n", "1", "--grid", "2"],
    ["verify", "--criterion", "abs", "--eps", "0.3", "--a", "0", "--b", "1",
     "--delta", "0.1", "--n", "3", "--grid-points", "99999999999999"],
    ["coverage", "--criterion", "abs", "--eps", "0.3", "--a", "0", "--b", "1",
     "--n", "3", "--grid", "99999999999999"],               # grid above the ceiling
    ["verify", "--criterion", "abs", "--eps", "0.3", "--a", "0", "--b", "1",
     "--delta", "0.1", "--n", "3", "--trials", "99999999999999"],  # trials above it
] + [
    # a sample size above the largest float, and one just below it
    argv + [flag, str(n)] for n in (10 ** 400, 10 ** 308) for argv, flag in (
        (["candidates", "--criterion", "abs", "--eps", "0.1", "--a", "0", "--b", "1"],
         "--n"),
        (["coverage", "--criterion", "abs", "--eps", "0.1", "--a", "0", "--b", "1"],
         "--n"),
        (["coverage", "--criterion", "abs", "--eps", "0.1", "--a", "0", "--b", "1",
          "--grid", "3"], "--n"),
        (["verify", "--criterion", "abs", "--eps", "0.1", "--a", "0", "--b", "1",
          "--delta", "0.1"], "--n"),
        (["size", "--criterion", "abs", "--eps", "0.1", "--a", "0", "--b", "1",
          "--delta", "0.1", "--max-n", str(n)], "--start-n"),
        (["size", "--criterion", "rel", "--eps", "0.1", "--a", "0.5", "--b", "1",
          "--delta", "0.1", "--max-n", str(n)], "--start-n"),
    )
])
def test_validation_failures_exit_1(capsys, argv):
    code = main(argv)
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["coverage", "--criterion", "abs", "--eps", "0.2", "--a", "0", "--b", "1",
     "--n", "0"],
    ["coverage", "--criterion", "abs", "--eps", "0.2", "--a", "0", "--b", "1",
     "--n", "0", "--grid", "3"],
    ["candidates", "--criterion", "abs", "--eps", "0.2", "--a", "0", "--b", "1",
     "--n", "0"],
    ["verify", "--criterion", "abs", "--eps", "0.2", "--a", "0", "--b", "1",
     "--delta", "0.1", "--n", "0"],
])
def test_sample_size_below_one_is_the_librarys_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == "error: sample size must be >= 1, got 0\n"


def test_size_with_infinite_b_and_absolute_margin_exits_1(capsys):
    code, out, err = run(capsys, [
        "size", "--criterion", "abs", "--eps", "0.1", "--a", "0",
        "--b", "inf", "--delta", "0.1"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "finite" in err


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


JSON_ARGV = [
    ["size", "--criterion", "rel", "--eps", "0.2", "--a", "0.5", "--b", "inf",
     "--delta", "0.1", "--format", "json"],
    SIZE_ARGS,
    ["coverage", "--criterion", "abs", "--eps", "0.25", "--a", "0", "--b", "1",
     "--n", "2", "--format", "json"],
    ["coverage", "--criterion", "abs", "--eps", "0.25", "--a", "0", "--b", "1",
     "--n", "2", "--grid", "5", "--format", "json"],
    ["candidates", "--criterion", "mixed", "--eps-a", "0.3", "--eps-r", "0.2",
     "--a", "0.1", "--b", "3", "--n", "4", "--format", "json"],
    ["verify", "--criterion", "rel", "--eps", "0.5", "--a", "0.5", "--b", "3",
     "--delta", "0.2", "--n", "12", "--trials", "2000", "--format", "json"],
]


@pytest.mark.parametrize("argv", JSON_ARGV)
def test_json_output_is_strict(capsys, argv):
    code, out, _ = run(capsys, argv)
    assert code == 0
    result = json.loads(out, parse_constant=_reject_constant)
    if "inf" in argv:
        assert result["interval"]["b"] is None


def test_batch_output_is_strict_json(tmp_path, capsys):
    jobs = []
    for argv in JSON_ARGV:
        job = {"cmd": argv[0]}
        for flag, value in zip(argv[1::2], argv[2::2]):
            job[flag[2:].replace("-", "_")] = value
        jobs.append(job)
    config = tmp_path / "jobs.jsonl"
    config.write_text("".join(json.dumps(j) + "\n" for j in jobs), encoding="utf-8")
    code, out, _ = run(capsys, ["--config", str(config)])
    assert code == 0
    lines = [json.loads(line, parse_constant=_reject_constant)
             for line in out.splitlines()]
    assert len(lines) == len(jobs)
    assert not any("error" in line for line in lines)
    assert lines[0]["interval"]["b"] is None


def test_batch_preserves_input_order(tmp_path, capsys):
    jobs = [
        {"cmd": "size", "criterion": "abs", "eps": 0.5, "a": 0, "b": 0.5,
         "delta": 0.5},
        {"cmd": "size", "criterion": "rel", "eps": 0.5, "a": 0.2, "b": 100,
         "delta": 0.2},
        {"cmd": "candidates", "criterion": "abs", "eps": 0.25, "a": 0, "b": 1,
         "n": 2, "check_bound": True},
    ]
    config = tmp_path / "jobs.jsonl"
    config.write_text("\n".join(json.dumps(j) for j in jobs) + "\n",
                      encoding="utf-8")
    code, out, _ = run(capsys, ["--config", str(config)])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0])["n_min"] == 3
    assert json.loads(lines[1])["n_min"] == 41
    assert json.loads(lines[2])["count"] == 4


def test_batch_embeds_errors_and_exits_with_worst_code(tmp_path, capsys):
    jobs = [
        {"cmd": "size", "criterion": "abs", "eps": 0.5, "a": 0, "b": 0.5,
         "delta": 0.5},
        {"cmd": "size", "criterion": "abs", "eps": 5.0, "a": 0, "b": 0.5,
         "delta": 0.5},
        {"cmd": "size", "criterion": "rel", "eps": 0.2, "a": 0.5, "b": 2,
         "delta": 0.1, "max_n": 20},
    ]
    config = tmp_path / "jobs.jsonl"
    config.write_text("\n".join(json.dumps(j) for j in jobs) + "\n",
                      encoding="utf-8")
    code, out, _ = run(capsys, ["--config", str(config)])
    assert code == 2  # the worst job outcome wins
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0])["n_min"] == 3
    assert json.loads(lines[1])["code"] == 1
    assert json.loads(lines[2])["code"] == 2
    assert "error" in json.loads(lines[1])


def test_batch_rejects_unknown_job_command(tmp_path, capsys):
    config = tmp_path / "jobs.jsonl"
    config.write_text('{"cmd": "explode"}\n', encoding="utf-8")
    code, out, _ = run(capsys, ["--config", str(config)])
    assert code == 1
    assert "error" in json.loads(out.strip())


# At n = 10 000 on [0, 10 000] the candidate set has up to 2e8 points.
HUGE_SET = {"criterion": "abs", "eps": 0.1, "a": 0, "b": 10000, "n": 10000}


def _refuse_to_build(monkeypatch):
    """Fail the test if a command lays out, builds or scans a candidate set."""
    def refuse(*args):
        pytest.fail("the candidate set was built")

    for name in ("candidate_set", "_layout", "_point_arrays", "min_coverage"):
        monkeypatch.setattr(cli, name, refuse)


# the extra options each command that builds the candidate set of one n needs
_ONE_N_COMMANDS = {"coverage": [], "candidates": [], "verify": ["--delta", "0.1"]}


@pytest.mark.parametrize("cmd", list(_ONE_N_COMMANDS))
def test_row_commands_refuse_a_candidate_set_above_the_ceiling(capsys, monkeypatch, cmd):
    _refuse_to_build(monkeypatch)
    argv = [cmd] + [f"--{key}={value}" for key, value in HUGE_SET.items()]
    code, out, err = run(capsys, argv + _ONE_N_COMMANDS[cmd])
    assert code == 1
    assert out == ""
    assert "200000004 points" in err and "10000000" in err
    # the ceiling itself is allowed: [0, 1] at n = 10 has a bound of 24
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 24)
    small = [cmd, "--criterion", "abs", "--eps", "0.1", "--a", "0", "--b", "1",
             *_ONE_N_COMMANDS[cmd]]
    assert run(capsys, small + ["--n", "10"])[0] == 0
    code, _, err = run(capsys, small + ["--n", "11"])
    assert code == 1 and "up to 26 points, more than the 24" in err


def test_row_bound_refusal_prints_a_readable_count(capsys):
    # the bound is about 1e300: the message shows it in 15 significant
    # digits, not as a 301-digit integer
    code, out, err = run(capsys, ["coverage", "--criterion", "rel", "--eps", "0.1",
                                  "--a", "1e300", "--b", "1.5e300", "--n", "1"])
    assert code == 1
    assert out == ""
    assert "up to 1e+300 points" in err


def test_batch_jobs_refuse_a_candidate_set_above_the_ceiling(tmp_path, capsys, monkeypatch):
    _refuse_to_build(monkeypatch)
    config = tmp_path / "jobs.jsonl"
    config.write_text("".join(json.dumps({"cmd": cmd, **HUGE_SET, **extra}) + "\n"
                              for cmd, extra in (("coverage", {}), ("candidates", {}),
                                                 ("verify", {"delta": 0.1}))),
                      encoding="utf-8")
    code, out, _ = run(capsys, ["--config", str(config)])
    assert code == 1
    results = [json.loads(line) for line in out.splitlines()]
    assert len(results) == 3
    for result in results:
        assert result["code"] == 1
        assert "10000000" in result["error"]


def test_batch_job_that_is_not_an_object_exits_1(tmp_path, capsys):
    config = tmp_path / "jobs.jsonl"
    config.write_text("[1, 2]\n" + json.dumps({"cmd": "size", **SIZE_JOB}) + "\n",
                      encoding="utf-8")
    code, out, _ = run(capsys, ["--config", str(config)])
    assert code == 1
    bad, good = (json.loads(line) for line in out.splitlines())
    assert bad == {"error": "job must be a JSON object, got [1, 2]", "code": 1}
    assert good["n_min"] == 3


def test_an_executor_bug_is_an_internal_error_exiting_3(tmp_path, capsys, monkeypatch):
    def broken(ns):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._EXECUTORS, "size", broken)
    assert cli._run(broken, None) == ({"error": "internal error: boom", "code": 3}, 3)
    code, out, err = run(capsys, SIZE_ARGS)
    assert (code, out, err) == (3, "", "error: internal error: boom\n")
    config = tmp_path / "jobs.jsonl"
    config.write_text(json.dumps({"cmd": "size", **SIZE_JOB}) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, ["--config", str(config)])
    assert code == 3
    assert json.loads(out) == {"error": "internal error: boom", "code": 3}


def test_batch_rejects_malformed_json(tmp_path, capsys):
    config = tmp_path / "jobs.jsonl"
    config.write_text("not json\n", encoding="utf-8")
    code, out, err = run(capsys, ["--config", str(config)])
    assert code == 1
    assert out == ""
    assert "line 1" in err


def test_batch_missing_file_exits_1(capsys):
    code, out, err = run(capsys, ["--config", "/nonexistent/jobs.jsonl"])
    assert code == 1
    assert "cannot read" in err


def test_batch_non_utf8_file_exits_1(tmp_path, capsys):
    config = tmp_path / "jobs.jsonl"
    config.write_bytes(b"\xff\xfe{\x00}\x00\n")
    code, out, err = run(capsys, ["--config", str(config)])
    assert code == 1
    assert out == ""
    assert "cannot read" in err


def test_batch_empty_file_is_a_successful_noop(tmp_path, capsys):
    config = tmp_path / "jobs.jsonl"
    config.write_text("\n\n", encoding="utf-8")
    code, out, _ = run(capsys, ["--config", str(config)])
    assert code == 0
    assert out == ""


@pytest.mark.parametrize("job, key", [
    ({"cmd": "size", "help": True}, "help"),
    ({"cmd": "verify", "h": True}, "h"),
    ({"cmd": "size", "crit": "rel", "eps": 0.2, "a": 0.5, "b": 2,
      "delta": 0.1}, "crit"),
    ({"cmd": "coverage", "criterion": "abs", "eps": 0.25, "a": 0, "b": 1,
      "n": 2, "delta": 0.1}, "delta"),
    ({"cmd": "candidates", "criterion": "abs", "eps": 0.25, "a": 0, "b": 1,
      "n": 2, "check-bound": True}, "check-bound"),
    ({"cmd": "size", "criterion": "rel", "eps": 0.5, "a": 0.2, "b": 100,
      "delta": 0.2, "chernoff": "off"}, "chernoff"),
])
def test_batch_job_keys_must_name_a_flag_exactly(tmp_path, capsys, job, key):
    good = {"cmd": "size", "criterion": "abs", "eps": 0.5, "a": 0, "b": 0.5,
            "delta": 0.5}
    config = tmp_path / "jobs.jsonl"
    config.write_text(json.dumps(job) + "\n" + json.dumps(good) + "\n",
                      encoding="utf-8")
    code, out, _ = run(capsys, ["--config", str(config)])
    assert code == 1
    lines = [json.loads(line, parse_constant=_reject_constant)
             for line in out.splitlines()]
    assert len(lines) == 2
    assert lines[0]["code"] == 1
    assert repr(key) in lines[0]["error"]
    assert lines[1]["n_min"] == 3


def test_batch_rejections_carry_the_parsers_reason(tmp_path, capsys):
    size = {"cmd": "size", "criterion": "abs", "eps": 0.5, "a": 0, "b": 0.5}
    cov = {"cmd": "coverage", "criterion": "abs", "eps": 0.25, "a": 0, "b": 1,
           "n": 2}
    jobs = [
        (size, "poisson-ss size: the following arguments are required: --delta"),
        ({**cov, "eps": True}, "argument --eps: expected one argument"),
        ({**cov, "n": 2.0}, "argument --n: invalid int value: '2.0'"),
        ({**cov, "criterion": "abs2"}, "argument --criterion: invalid choice"),
    ]
    config = tmp_path / "jobs.jsonl"
    config.write_text("".join(json.dumps(job) + "\n" for job, _ in jobs),
                      encoding="utf-8")
    code, out, err = run(capsys, ["--config", str(config)])
    assert code == 1
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == len(jobs)
    for line, (job, reason) in zip(lines, jobs):
        assert line["code"] == 1
        assert line["error"].startswith(f"poisson-ss {job['cmd']}: ")
        assert reason in line["error"]
        assert "usage:" not in line["error"]
    assert "usage:" not in err


def test_batch_parses_every_job_with_one_parser(tmp_path, capsys, monkeypatch):
    built, build_parser = [], cli.build_parser

    def counted():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counted)
    good = {"cmd": "candidates", "criterion": "abs", "eps": 0.25, "a": 0, "b": 1, "n": 2}
    jobs = [good, {**good, "n": 2.0}, good]
    config = tmp_path / "jobs.jsonl"
    config.write_text("".join(json.dumps(job) + "\n" for job in jobs), encoding="utf-8")
    code, out, _ = run(capsys, ["--config", str(config)])
    assert code == 1
    first, rejected, third = out.splitlines()
    assert first == third
    assert json.loads(first)["count"] == 4
    assert json.loads(rejected) == {
        "error": "poisson-ss candidates: argument --n: invalid int value: '2.0'", "code": 1}
    assert len(built) == 1


@pytest.mark.parametrize("key, value, flag", [
    ("max_n", False, "--max-n"),
    ("eps", False, "--eps"),
    ("start_n", True, "--start-n"),
])
def test_batch_true_or_false_for_a_valued_flag_names_the_flag(
        tmp_path, capsys, key, value, flag):
    job = {"cmd": "size", "criterion": "abs", "eps": 0.5, "a": 0, "b": 0.5,
           "delta": 0.5, key: value}
    config = tmp_path / "jobs.jsonl"
    config.write_text(json.dumps(job) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, ["--config", str(config)])
    assert code == 1
    result = json.loads(out)
    assert result["code"] == 1
    assert f"argument {flag}:" in result["error"]


def test_batch_false_leaves_an_on_off_flag_off(tmp_path, capsys, monkeypatch):
    # a bound that cannot hold: a job with --check-bound on exits 3
    monkeypatch.setattr(cli, "cardinality_bound", lambda *args: 0.0)
    job = {"cmd": "candidates", "criterion": "abs", "eps": 0.25, "a": 0,
           "b": 1, "n": 2}
    config = tmp_path / "jobs.jsonl"
    for check_bound, want in ((False, 0), (True, 3)):
        config.write_text(json.dumps({**job, "check_bound": check_bound}) + "\n",
                          encoding="utf-8")
        code, out, _ = run(capsys, ["--config", str(config)])
        assert code == want
        assert json.loads(out)["count"] == 4


def test_command_line_usage_error_prints_usage_and_reason(capsys):
    code, out, err = run(capsys, SIZE_ARGS[:-2])
    assert code == 1
    assert out == ""
    assert err.startswith("usage: poisson-ss size ")
    assert "poisson-ss size: the following arguments are required: --delta" in err


def test_subcommand_help_prints_to_stdout_and_exits_0():
    src = pathlib.Path(poisson_ss.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "poisson_ss", "size", "--help"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: poisson-ss size ")
    assert "--delta" in proc.stdout
    assert proc.stderr == ""


def test_batch_values_are_never_read_as_flags(tmp_path, capsys):
    # "-1e-300" looks like a flag to argparse, so it must reach --a as a
    # value and fail validation, not argument parsing
    job = {"cmd": "size", "criterion": "abs", "eps": 0.5, "a": -1e-300,
           "b": 0.5, "delta": 0.5}
    config = tmp_path / "jobs.jsonl"
    config.write_text(json.dumps(job) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, ["--config", str(config)])
    assert code == 1
    result = json.loads(out)
    assert result["code"] == 1
    assert "-1e-300" in result["error"]


def test_config_and_subcommand_are_mutually_exclusive(tmp_path, capsys):
    config = tmp_path / "jobs.jsonl"
    config.write_text("", encoding="utf-8")
    code, _, err = run(capsys, ["--config", str(config)] + SIZE_ARGS)
    assert code == 1
    assert "subcommand" in err


def test_floats_are_emitted_with_full_precision(capsys):
    code, out, _ = run(capsys, [
        "coverage", "--criterion", "rel", "--eps", "0.5",
        "--a", "0.5", "--b", "3", "--n", "40", "--format", "json"])
    assert code == 0
    result = json.loads(out)
    worst = min(result["rows"], key=lambda r: r["coverage"])
    want = min_coverage(Relative(0.5), 40, ParamInterval(0.5, 3.0))
    assert worst["coverage"] == want.coverage
    assert worst["lambda"] == want.lam


class _Text(str):
    pass


class _Code(enum.IntEnum):
    ONE = 1


@pytest.mark.parametrize("value", [
    0, -7, 10**30, True, None, "plain", 'non-ascii \u00e9, "quoted"\n', _Text("sub"),
    _Code.ONE, [1, (2, "x"), []], {"k": {"inner": [None, False]}, 3: "int key", "": {}},
])
def test_json_text_without_floats_is_json_dumps(value):
    assert cli._jsonify(value) == json.dumps(value)


@pytest.mark.parametrize("value,text", [
    (0.1, "0.10000000000000001"), (np.float64(0.1), "0.10000000000000001"),
    (-0.0, "-0"), (5e-324, "4.9406564584124654e-324"), (math.inf, "null"),
    (np.float64("nan"), "null"),
])
def test_json_text_of_floats(value, text):
    assert cli._jsonify({"x": [value]}) == f'{{"x": [{text}]}}'
