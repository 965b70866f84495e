"""Spans around calls into poisson_ss, installed from outside the package.

`Tracer.wrap` replaces a function at the module attribute its caller looks
it up under (``poisson_ss.minimizer.candidate_set`` is the name
`scan_min_coverage` calls), so no file of the package changes.  Each call
becomes a span: its duration is added to the parent span's child time, and
its self time is the duration minus that child time.  Open spans live on a
per-thread stack, and every thread keeps its own totals, so the batch
worker pool needs no lock on the hot path.  Under the interpreter lock a
span's wall time includes the time its thread waited for the lock.
"""

from __future__ import annotations

import functools
import threading
from collections import Counter, defaultdict
from time import perf_counter


class ThreadLog:
    """Span totals of one thread.  ``stack`` holds open spans as
    ``[name, args, child_seconds]``; hooks read the caller's span there.
    ``spans`` maps a span name to ``[calls, self_seconds]``."""

    def __init__(self):
        self.stack: list[list] = []
        self.spans: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.top: list[tuple[float, float]] = []

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0))[1]


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[ThreadLog] = []
        self._patches: list[tuple[object, str, object]] = []

    def _log(self) -> ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    def wrap(self, module, attr: str, name: str, hook=None) -> bool:
        """Record calls of ``module.attr`` as spans called ``name``.

        ``hook(log, args, result, seconds)`` runs after each call that
        returns.  Returns False, and wraps nothing, when the attribute does
        not exist.
        """
        original = getattr(module, attr, None)
        if original is None:
            return False
        local, log_of, clock = self._local, self._log, perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            try:
                log = local.log
            except AttributeError:
                log = log_of()
            stack = log.stack
            span = [name, args, 0.0]
            stack.append(span)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                seconds = end - start
                stat = log.spans.get(name)
                if stat is None:
                    stat = log.spans[name] = [0, 0.0]
                stat[0] += 1
                stat[1] += seconds - span[2]
                if stack:
                    stack[-1][2] += seconds
                else:
                    log.top.append((start, end))
            if hook is not None:
                hook(log, args, result, seconds)
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, traced)
        return True

    def remove(self) -> None:
        """Put back every wrapped function, last wrapped first."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def totals(self) -> ThreadLog:
        """Every thread's totals added together; outermost spans excluded."""
        merged = ThreadLog()
        with self._lock:
            logs = list(self._logs)
        for log in logs:
            for name, (calls, self_s) in log.spans.items():
                stat = merged.spans.setdefault(name, [0, 0.0])
                stat[0] += calls
                stat[1] += self_s
            merged.counts.update(log.counts)
            for key, values in log.samples.items():
                merged.samples[key].extend(values)
        return merged

    def take_top(self) -> list[tuple[float, float]]:
        """(start, end) of the outermost spans of every thread since the
        last call, then forget them."""
        with self._lock:
            logs = list(self._logs)
        intervals = []
        for log in logs:
            intervals.extend(log.top)
            log.top.clear()
        return intervals


def covered_seconds(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total
