"""Command-line behavior: output schemas, formats, exit codes, batch mode."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import poisson_ss
from poisson_ss import (
    Absolute,
    ParamInterval,
    Relative,
    candidate_set,
    coverage_at,
    min_coverage,
    min_sample_size,
    ConfidenceSpec,
)
from poisson_ss import cli, search
from poisson_ss.cli import main

SIZE_ARGS = ["size", "--criterion", "abs", "--eps", "0.5",
             "--a", "0", "--b", "0.5", "--delta", "0.5"]


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
    monkeypatch.setattr(search, "scan_min_coverage", evaluated)
    monkeypatch.setattr(search, "coverage_at", evaluated)
    code, out, err = run(capsys, [
        "size", "--criterion", "rel", "--eps", "0.1", "--a", "1e-300",
        "--b", "1", "--delta", "0.05"])
    assert code == 2
    assert out == ""
    assert "1000000" in err


@pytest.mark.parametrize("chernoff", ["auto", "on", "off"])
def test_size_accepts_every_chernoff_value(capsys, chernoff):
    argv = ["size", "--criterion", "rel", "--eps", "0.5", "--a", "0.2",
            "--b", "100", "--delta", "0.2", "--chernoff", chernoff]
    code, out, _ = run(capsys, argv)
    assert code == 0
    result = json.loads(out)
    assert result["n_min"] == 41
    assert (result["truncated_b"] < 100.0) == (chernoff != "off")


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
    ["size", "--criterion", "rel", "--eps", "0.2", "--a", "0.5",
     "--b", "inf", "--delta", "0.1", "--chernoff", "off"],  # unbounded scan
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
])
def test_validation_failures_exit_1(capsys, argv):
    code = main(argv)
    capsys.readouterr()
    assert code == 1


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
