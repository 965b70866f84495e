"""Workloads of the poisson-ss benchmark, their inputs and pinned answers.

Load model: a closed loop in one process.  One caller issues the next query
when the previous one returns.

* ``plan-rel`` and ``plan-abs`` call `min_sample_size` with default options
  for three queries each, on one thread.
* ``certify`` runs one ``cli.main(["--config", FILE])`` batch of five
  fixed-n jobs on the CLI's default worker pool (``os.cpu_count()``
  threads).  Nothing in it searches for n.

A pass runs every query or job of the workload once.  The seed sets the
order of the queries and jobs in each pass and the Monte Carlo ``seed`` of
each verify job.  The pinned answers do not depend on it.

The ROADMAP's ``Absolute(0.1)`` searches over [0, 2] and [0, 5] are left
out: at delta = 0.05 they take 40 s and more than 10 minutes, too long to
repeat for every run.  ``plan-abs`` exercises the same mechanism (failing n
found near b by a scan up from a) at smaller n.

Pinned values were measured with the package as it stood when this
benchmark was added.  Floats are written with 17 significant digits, so
comparing them with ``==`` checks them bit for bit.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "poisson_ss" / "__init__.py").is_file():
    raise ImportError(f"no poisson_ss sources under {SRC}")
sys.path.insert(0, str(SRC))

import poisson_ss  # noqa: E402
import poisson_ss.cli  # noqa: E402
from poisson_ss import (  # noqa: E402
    Absolute,
    ConfidenceSpec,
    ErrorCriterion,
    Mixed,
    ParamInterval,
    Relative,
    SampleSizePlan,
)


@dataclass(frozen=True)
class Query:
    """One `min_sample_size` call with default options and its answer."""

    criterion: ErrorCriterion
    interval: ParamInterval
    delta: float
    n_min: int
    worst_lambda: float
    worst_coverage: float
    evaluations: int

    @property
    def conf(self) -> ConfidenceSpec:
        return ConfidenceSpec(self.delta)

    def matches(self, plan) -> bool:
        return isinstance(plan, SampleSizePlan) and (
            plan.n_min, plan.worst_lambda, plan.worst_coverage, plan.evaluations
        ) == (self.n_min, self.worst_lambda, self.worst_coverage, self.evaluations)


PLAN_QUERIES = {
    "plan-rel": (
        Query(Relative(0.15), ParamInterval(0.5, 2.0), 0.05,
              354, 0.50847457627118653, 0.95191117822816329, 864),
        # Tail-bound truncation is active: the scan stops near rate 1.19.
        Query(Relative(0.2), ParamInterval(0.5, 50.0), 0.05,
              201, 0.50995024875621897, 0.95206052033990152, 433),
        Query(Relative(0.2), ParamInterval(0.5, 2.0), 0.1,
              141, 0.51418439716312059, 0.90043195293097145, 344),
    ),
    "plan-abs": (
        Query(Absolute(0.1), ParamInterval(0.0, 1.0), 0.1,
              276, 1.0, 0.90228412444847406, 46039),
        Query(Absolute(0.2), ParamInterval(0.0, 2.0), 0.05,
              193, 2.0, 0.95003264815776411, 44806),
        Query(Mixed(0.1, 0.2), ParamInterval(0.1, 3.0), 0.05,
              201, 0.50995024875621897, 0.95206052033990152, 9213),
    ),
}


@dataclass(frozen=True)
class Job:
    """One batch line of ``certify`` and the key fields of its result.

    ``expect`` holds what `key_fields` extracts from the result line; a job
    that ends in an error yields its ``error`` and ``code`` instead, which
    never match.
    """

    line: dict
    expect: dict


CERTIFY_JOBS = (
    Job({"cmd": "verify", "criterion": "abs", "eps": 0.1, "a": 0.0, "b": 1.0,
         "delta": 0.1, "n": 276},
        {"n": 276, "worst_lambda": 1.0,
         "worst_coverage": 0.90228412444847406, "passed": True}),
    Job({"cmd": "verify", "criterion": "rel", "eps": 0.1, "a": 0.5, "b": 2.0,
         "delta": 0.05, "n": 781},
        {"n": 781, "worst_lambda": 0.50517983936677914,
         "worst_coverage": 0.95047303203484593, "passed": True}),
    Job({"cmd": "verify", "criterion": "mixed", "eps_a": 0.1, "eps_r": 0.2,
         "a": 0.1, "b": 3.0, "delta": 0.05, "n": 201},
        {"n": 201, "worst_lambda": 0.50995024875621897,
         "worst_coverage": 0.95206052033990152, "passed": True}),
    # Writes about 1.66 MB of JSON.
    Job({"cmd": "coverage", "criterion": "abs", "eps": 0.1, "a": 0.0, "b": 5.0,
         "n": 1926, "format": "json"},
        {"rows": 19262, "min_lambda": 5.0,
         "min_coverage": 0.95019769304874260}),
    Job({"cmd": "candidates", "criterion": "rel", "eps": 0.1, "a": 0.5, "b": 2.0,
         "n": 781, "check_bound": True},
        {"count": 2228, "bound_holds": True}),
)
CERTIFY_EXIT_CODE = 0


def key_fields(result: dict) -> dict:
    """The fields of one batch result line that the pinned answers cover."""
    if "error" in result:
        return {"error": result["error"], "code": result.get("code")}
    if "checks" in result:
        return {key: result[key]
                for key in ("n", "worst_lambda", "worst_coverage", "passed")}
    if "rows" in result:
        low = min(result["rows"], key=lambda row: row["coverage"])
        return {"rows": len(result["rows"]), "min_lambda": low["lambda"],
                "min_coverage": low["coverage"]}
    return {"count": result["count"], "bound_holds": result["bound_holds"]}


def _plan(query: Query):
    """One search; a raising query is a failed operation, not a crash."""
    try:
        return poisson_ss.min_sample_size(query.criterion, query.interval, query.conf)
    except Exception as exc:
        return exc


def _batch(config: Path) -> tuple[int, str] | Exception:
    """One CLI batch: its exit code and its stdout."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = poisson_ss.cli.main(["--config", str(config)])
    except Exception as exc:  # the whole batch failed
        return exc
    return code, out.getvalue()


class PlanWorkload:
    """``plan-rel`` or ``plan-abs``: `min_sample_size` on one thread."""

    uses_cli = False

    def __init__(self, name: str, seed: int):
        self.queries = PLAN_QUERIES[name]
        self.ops_per_pass = len(self.queries)
        self._rng = random.Random(seed)

    def next_pass(self) -> tuple[Query, ...]:
        return tuple(self._rng.sample(self.queries, len(self.queries)))

    @staticmethod
    def steps(order: tuple[Query, ...]) -> list:
        """The timed calls of a pass, one per query."""
        return [functools.partial(_plan, query) for query in order]

    @staticmethod
    def failures(order: tuple[Query, ...], plans: list) -> int:
        return sum(not query.matches(plan) for query, plan in zip(order, plans))

    @staticmethod
    def evaluations(plans: list) -> int:
        return sum(p.evaluations for p in plans if isinstance(p, SampleSizePlan))

    @staticmethod
    def output_bytes(plans: list) -> int:
        return 0


class CertifyWorkload:
    """``certify``: one CLI batch of fixed-n jobs on the default pool."""

    uses_cli = True

    def __init__(self, seed: int, workdir: Path):
        self._rng = random.Random(seed)
        self.jobs = tuple(
            Job({**job.line, "seed": self._rng.randrange(1 << 31)}, job.expect)
            if job.line["cmd"] == "verify" else job
            for job in CERTIFY_JOBS
        )
        self.ops_per_pass = len(self.jobs)
        self._config = workdir / "jobs.jsonl"

    def _write(self, jobs) -> Path:
        self._config.write_text(
            "".join(json.dumps(job.line) + "\n" for job in jobs), encoding="utf-8")
        return self._config

    def next_pass(self) -> tuple[tuple[Job, ...], Path]:
        order = tuple(self._rng.sample(self.jobs, len(self.jobs)))
        return order, self._write(order)

    @staticmethod
    def steps(inputs) -> list:
        """The timed call of a pass: the whole batch."""
        return [functools.partial(_batch, inputs[1])]

    @staticmethod
    def failures(inputs, outcomes: list) -> int:
        order, outcome = inputs[0], outcomes[0]
        if isinstance(outcome, Exception):
            return len(order)
        code, text = outcome
        try:
            lines = [json.loads(line) for line in text.splitlines()]
        except json.JSONDecodeError:
            return len(order)
        if len(lines) != len(order):
            return len(order)
        wrong = sum(key_fields(line) != job.expect for job, line in zip(order, lines))
        return max(wrong, int(code != CERTIFY_EXIT_CODE))

    @staticmethod
    def evaluations(outcomes: list) -> int:
        return 0

    @staticmethod
    def output_bytes(outcomes: list) -> int:
        outcome = outcomes[0]
        return 0 if isinstance(outcome, Exception) else len(outcome[1].encode())

    def run_alone(self) -> tuple[float, int]:
        """Each job as a batch of its own: summed seconds and failures."""
        seconds, failed = 0.0, 0
        for job in self.jobs:
            config = self._write((job,))
            start = time.perf_counter()
            outcome = _batch(config)
            seconds += time.perf_counter() - start
            failed += self.failures(((job,), config), [outcome])
        return seconds, failed


def reference_seconds() -> float:
    """Seconds taken by a fixed pure-Python loop that uses nothing of poisson_ss.

    On a shared host the speed of Python code drifts: on 2 shared cores the
    same pass took 1.0 s for tens of seconds and 1.7 s for the next stretch.
    Timed next to a pass, this loop tracks that speed, and a pass time
    divided by it keeps the program's cost and drops most of the drift.
    """
    start = time.perf_counter()
    total = 0.0
    for i in range(1, 80_000):
        total += (math.floor(i * 0.37) + 1) / (i + 0.5)
    block = [((i * 7919) % 1009, i) for i in range(1000)]
    for _ in range(40):
        sorted(block)
    return time.perf_counter() - start


class PassTimer:
    """Runs, times and checks passes of one workload, and counts operations.

    The reference loop runs after every timed step of a pass (each query,
    or the whole batch), outside the timed part.  A pass's normalized time
    is the sum over its steps of the step's seconds divided by the mean of
    the reference times just before and just after it.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self._before: float | None = None

    def run(self):
        """One pass: (seconds, normalized time, outcome of each step)."""
        inputs = self.workload.next_pass()
        if self._before is None:
            self._before = reference_seconds()
        seconds = normalized = 0.0
        outcomes = []
        for step in self.workload.steps(inputs):
            start = time.perf_counter()
            outcomes.append(step())
            elapsed = time.perf_counter() - start
            after = reference_seconds()
            seconds += elapsed
            normalized += elapsed / ((self._before + after) / 2.0)
            self._before = after
        self.attempted += self.workload.ops_per_pass
        self.failed += self.workload.failures(inputs, outcomes)
        return seconds, normalized, outcomes


def make(name: str, seed: int, workdir: Path):
    if name == "certify":
        return CertifyWorkload(seed, workdir)
    return PlanWorkload(name, seed)
