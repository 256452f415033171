"""One workload in one process: set up, warm up, then measure in a closed loop.

Started by run.py.  Prints `ready` on stdout when set-up is done (run.py
times set-up up to that line), then, unless --setup-only, one JSON line with
the measurements.  Load is one call at a time from this single process.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from importlib.metadata import version
from math import inf
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import vcsp_landscape  # noqa: E402

from harness import NullTracer, Tracer, run_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
IMPORT_REPS = 3
# Samples rotate over the CPUs this process may use.  On the shared host the
# benchmark was built on, each CPU was slowed by up to 1.9x, independently of
# the other, for seconds to minutes at a time; best-of-N over samples taken on
# every CPU finds an uncontended one far more often than samples on one CPU.
CPUS = sorted(os.sched_getaffinity(0))
# Subprocesses are timed without a timeout: with one, Popen.wait polls with
# sleeps of up to 50 ms, which quantizes the measured latency.  A hung child is
# still stopped, by run.py's deadline, which kills this worker's process group.


def pin(k: int) -> None:
    """Run this process (and the subprocesses it starts) on the k-th CPU, cyclically."""
    os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})


def import_ms() -> dict:
    """Interpreter start and import cost, the fastest of IMPORT_REPS fresh
    interpreters per CPU (best of N, like the end-to-end timings).  The -X importtime
    figures are inflated by the instrumentation itself, so the wall time of
    `python -c "import vcsp_landscape"` is kept as well."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    interp, startup, numpy_ms, pkg_ms = [], [], [], []
    for rep in range(IMPORT_REPS * len(CPUS)):
        pin(rep)
        for code, out in (("pass", interp), ("import vcsp_landscape", startup)):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            out.append(1000 * (perf_counter() - t0))
        r = subprocess.run([sys.executable, "-X", "importtime", "-c", "import vcsp_landscape"],
                           env=env, capture_output=True, text=True, check=True)
        cumulative = {}
        for line in r.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1000
        numpy_ms.append(cumulative.get("numpy", 0.0))  # 0 if the package stops importing it
        pkg_ms.append(cumulative["vcsp_landscape"])
    return {"import.interpreter_ms": min(interp), "import.startup_ms": min(startup),
            "import.numpy_ms": min(numpy_ms), "import.vcsp_landscape_ms": min(pkg_ms)}


def layer_values(p) -> dict:
    """Per-layer numbers of one traced pass: self time of every span name,
    the counters, and the rates derived from them."""
    st = p.tracer.self_times()
    c = p.tracer.counts
    v = {f"{name}.s": t for name, t in st.items()}
    v.update(c)
    for key, n in c.items():
        layer = key.rsplit(".", 1)[0]
        if key.endswith(".steps") and st.get(layer):
            v[f"{layer}.steps_per_s"] = n / st[layer]
    if st.get("landscape.enumerate_peaks"):
        v["landscape.enumerate_peaks.cells_per_s"] = \
            c["landscape.enumerate_peaks.cells"] / st["landscape.enumerate_peaks"]
    if c.get("landscape.ascent_graph.edges"):
        v["landscape.ascent_graph.new_node_frac"] = \
            (c["landscape.ascent_graph.nodes"] - 1) / c["landscape.ascent_graph.edges"]
    v["trace.wall_s"] = p.wall_s
    v["trace.layer_frac"] = sum(t for name, t in st.items() if name != "bench") / p.wall_s
    return v


class BestOf:
    """Folds passes into the fastest time of each operation: interference
    from other processes only ever adds time.  Keeps the minima and a compact
    copy of the samples, so memory does not grow with the number of passes."""

    def __init__(self):
        self.names: list[str] = []
        self.samples: list[array] = []  # seconds, per operation
        self.best: list[float] = []
        self.steps: list[int] = []
        self.steps_s: list[float] = []
        self.walls = array("d")
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def add(self, p) -> None:
        if not self.names:
            self.names = [name for name, _, _, _ in p.ops]
            self.samples = [array("d") for _ in p.ops]
            self.best = [inf] * len(p.ops)
            self.steps = [steps for _, _, steps, _ in p.ops]
            self.steps_s = [inf] * len(p.ops)
        for i, (_, t, _, steps_s) in enumerate(p.ops):
            self.samples[i].append(t)
            self.best[i] = min(self.best[i], t)
            self.steps_s[i] = min(self.steps_s[i], steps_s)
        self.walls.append(p.wall_s)
        self.attempted += p.attempted
        self.failed += p.failed
        self.failures += p.failures[:max(0, 20 - len(self.failures))]

    @property
    def wall_s(self) -> float:
        """The pass time with every operation at its fastest."""
        return sum(self.best)

    @property
    def steps_per_s(self) -> float:
        """Steps of the steepest calls over their fastest times."""
        seconds = sum(s for n, s in zip(self.steps, self.steps_s) if n)
        return sum(self.steps) / seconds if seconds else 0.0


def measure(wl, seconds: float, trace: bool) -> dict:
    run_pass(wl, NullTracer())  # warm-up, not counted
    plain, traced = BestOf(), BestOf()
    per_pass, spans = [], []
    end = perf_counter() + seconds
    while perf_counter() < end or len(plain.walls) < MIN_PASSES:
        pin(len(plain.walls))
        plain.add(run_pass(wl, NullTracer()))
        if trace:
            p = run_pass(wl, Tracer())
            traced.add(p)
            per_pass.append(layer_values(p))
            spans.append(p.tracer.spans)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    q = statistics.quantiles([1000 * t for t in plain.best], n=4)
    e2e = {"wall_s": plain.wall_s, "steps_per_s": plain.steps_per_s,
           "call_ms_p50": q[1], "call_ms_p75": q[2], "peak_rss_mb": peak_rss_mb}
    out = {"attempted": plain.attempted + traced.attempted,
           "failed": plain.failed + traced.failed,
           "failures": (plain.failures + traced.failures)[:20],
           "passes": len(plain.walls), "traced_passes": len(traced.walls),
           "calls": len(plain.best), "pass_wall_s": list(plain.walls), "e2e": e2e,
           "op_ms": {name: [1000 * t for t in samples]
                     for name, samples in zip(plain.names, plain.samples)}}
    if trace:
        keys = sorted(set().union(*per_pass))
        layers = {k: statistics.median(v.get(k, 0.0) for v in per_pass) for k in keys}
        layers["trace.overhead_s"] = traced.wall_s - plain.wall_s
        layers.update(import_ms())
        layers["trace.stress_frac"] = wl.stress(layers, e2e)
        out["layers"] = layers
        out["spans"] = spans  # written out by main()
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if not Path(vcsp_landscape.__file__).resolve().is_relative_to(SRC):
        print(f"vcsp_landscape imported from {vcsp_landscape.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        out = measure(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            workdir.parent.rmdir()

    # read from the installed metadata, so set-up imports only what the package does
    out["versions"] = {"python": sys.version.split()[0], "numpy": version("numpy")}
    if "spans" in out:
        path = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "parent", "start_s", "end_s"],
                                    "passes": out.pop("spans")}))
        out["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
