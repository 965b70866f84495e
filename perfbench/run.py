"""Benchmark of poisson-ss: exact minimum sample sizes, end to end and by layer.

Run from the root of the repository:

    python3 perfbench/run.py --workload plan-rel --seed 1 --seconds 30 --trace 0

Workloads are ``plan-rel``, ``plan-abs`` and ``certify`` (see
``workloads.py``).  Every operation's answer is checked against its pinned
value.  ``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over several fresh processes of the time from process
  start until the first pass could begin (imports and inputs built);
* ``pass_norm``: median over passes of the pass time divided by the time of
  a fixed reference loop run next to it (`workloads.reference_seconds`),
  so in multiples of that loop;
* ``pass_norm_tail``: the 90th percentile of the same, interpolated.  A run
  holds 7 to 25 passes, too few for a percentile above the median with ten
  passes beyond it;
* ``peak_rss_mb``: peak resident memory of the process.

Printed with them, but not in the result line: ``pass_s`` and
``pass_s_tail``, the same two in seconds, which drift with the load on a
shared host, and ``failed_share``, failed operations over attempted ones,
which the result line carries as ``failed`` and ``attempted``.  ``--trace
1`` runs the traced run of ``layers.py`` and reports per-layer metrics.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 when every answer matched, 1 when one did not, 2 when the
package sources are missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SETUP_PROBES = 7
WORKLOADS = ("plan-rel", "plan-abs", "certify")


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between the two nearest order statistics."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _probe_setup(args) -> float:
    """Seconds from starting a fresh process until it has built its inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed: {cmd}")
    return seconds


def _end_to_end(args, timer) -> tuple[dict, dict]:
    """(gated metrics, metrics that are only printed)."""
    setup = [_probe_setup(args) for _ in range(SETUP_PROBES)]
    deadline = time.perf_counter() + args.seconds
    seconds, normalized = [], []
    while True:
        elapsed, norm, _ = timer.run()
        seconds.append(elapsed)
        normalized.append(norm)
        if time.perf_counter() >= deadline:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"# {len(seconds)} passes (s): " + " ".join(f"{s:.3f}" for s in seconds))
    gated = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_norm": (statistics.median(normalized), "ref"),
        "pass_norm_tail": (p90(normalized), "ref"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    printed = {
        "pass_s": (statistics.median(seconds), "s"),
        "pass_s_tail": (p90(seconds), "s"),
        "failed_share": (timer.failed / timer.attempted, "ratio"),
    }
    return gated, printed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # Termination still removes the work directory and waits for probes.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # The certify batch runs on the CLI's default pool.
    os.environ.pop("POISSON_SS_THREADS", None)
    try:
        import workloads
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=workloads.ROOT) as tmp:
        workload = workloads.make(args.workload, args.seed, Path(tmp))
        if args.probe:
            workload.next_pass()
            print("ready", flush=True)
            return 0
        timer = workloads.PassTimer(workload)
        if args.trace:
            import layers
            metrics, printed = layers.traced_run(timer, args.seconds), {}
        else:
            metrics, printed = _end_to_end(args, timer)

    for name, (value, unit) in {**metrics, **printed}.items():
        print(f"{name:36} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": timer.failed == 0,
        "attempted": timer.attempted,
        "failed": timer.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if timer.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
