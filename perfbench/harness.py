"""Shared pieces of the benchmark: spans, the per-pass ledger and exact checks.

Spans are recorded by the benchmark's own code around each call it makes into
the library; nothing inside `vcsp_landscape` is instrumented.  They stay in
memory and are written out when the run ends.
"""
from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter


class CheckFailed(Exception):
    """An exact check on a library result did not hold."""


def same(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


class Tracer:
    """Spans (name, parent, start, end) and counters, both kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: dict[str, int] = defaultdict(int)
        self._open = [-1]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, self._open[-1], perf_counter(), 0.0]
        self.spans.append(rec)
        self._open.append(idx)
        try:
            yield
        finally:
            rec[3] = perf_counter()
            self._open.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, _, start, end), c in zip(self.spans, child):
            out[name] += end - start - c
        return dict(out)


class NullTracer:
    """Tracing off: spans and counters cost one method call each."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, n: int) -> None:
        pass


class Pass:
    """One pass of a workload's fixed work: its operations and their fate.

    An operation fails if it raises or fails an exact check; either way the
    pass goes on.  Operations add to `steps` and `steps_s` the steepest steps
    that feed the end-to-end `steps_per_s` and the seconds spent in those
    calls; `ops` keeps (name, seconds, steps, steps_s) per operation.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.ops: list[tuple[str, float, int, float]] = []
        self.steps = 0
        self.steps_s = 0.0
        self.wall_s = 0.0

    def op(self, name: str, fn, *args) -> None:
        self.attempted += 1
        steps, steps_s = self.steps, self.steps_s
        t0 = perf_counter()
        try:
            fn(*args)
        except Exception as exc:  # a failed operation is counted, never fatal
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
        self.ops.append((name, perf_counter() - t0, self.steps - steps, self.steps_s - steps_s))

    def timed(self, layer: str, fn, *args, **kwargs):
        """Call fn inside a span named after its layer; return (result, seconds)."""
        with self.tracer.span(layer):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            dt = perf_counter() - t0
        return out, dt

    def call(self, layer: str, fn, *args, **kwargs):
        return self.timed(layer, fn, *args, **kwargs)[0]


def run_pass(workload, tracer) -> Pass:
    p = Pass(tracer)
    t0 = perf_counter()
    with tracer.span("bench"):
        workload.run_pass(p)
    p.wall_s = perf_counter() - t0
    return p
