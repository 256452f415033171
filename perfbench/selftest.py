"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

1. Every workload passes its exact checks on the current code.
2. A deliberately wrong expected value is counted as a failed operation,
   so the correctness gate can fail.
3. Exact counts repeat: counts that do not depend on the seed agree across
   two seeds, and every count repeats for a fixed seed.
4. BENCHMARK.json names exactly the per-layer metrics the workers produce.

Exits 0 when all hold and prints the exact counts per workload.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import worker  # puts src/ on sys.path
import forms as F
from harness import Tracer, run_pass
from workloads import WORKLOADS

SEEDS = (1, 2)
# counts that depend on the seeded inputs; all others must not
SEEDED = {"search.random.steps", "search.first.steps", "oracles:search.steepest_short.steps"}

# one wrong expectation per workload: (forms attribute, wrong value)
WRONG = {
    "chain-steepest": ("small_step", lambda n, m: n + 2 - m),  # min_gain is exactly s_m
    "param-sweep": ("chain_steps", lambda m: 7 * (2 ** m - 1) + 1),
    "oracles": ("ASCENT_GRAPH_C3", (F.ASCENT_GRAPH_C3[0] + 1, F.ASCENT_GRAPH_C3[1])),
    "cli-session": ("chain_steps", lambda m: 7 * (2 ** m - 1) + 1),
}


def traced_pass(cls, seed: int, tmp: Path):
    workdir = Path(tempfile.mkdtemp(dir=tmp))
    p = run_pass(cls(seed, workdir), Tracer())
    return p, {k: v for k, v in worker.layer_values(p).items() if isinstance(v, int)}


def main() -> int:
    problems = []
    names = {"trace.overhead_s", "trace.stress_frac", *worker.import_ms()}
    tmp = worker.ROOT / ".perfbench_tmp" / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for name, cls in WORKLOADS.items():
            runs = [traced_pass(cls, s, tmp) for s in (SEEDS[0], SEEDS[0], SEEDS[1])]
            for p, _ in runs:
                names |= set(worker.layer_values(p))
                if p.failed:
                    problems.append(f"{name}: {p.failed} failed on current code: {p.failures}")
            counts = runs[0][1]
            if runs[1][1] != counts:
                problems.append(f"{name}: counts differ between two runs of seed {SEEDS[0]}")
            for k, v in counts.items():
                if k not in SEEDED and f"{name}:{k}" not in SEEDED and runs[2][1].get(k) != v:
                    problems.append(f"{name}: {k} differs between seeds {SEEDS}")
            print(f"{name}: counts {json.dumps(counts, sort_keys=True)}")

            attr, wrong = WRONG[name]
            right = getattr(F, attr)
            setattr(F, attr, wrong)
            try:
                p, _ = traced_pass(cls, SEEDS[0], tmp)
            finally:
                setattr(F, attr, right)
            print(f"{name}: wrong forms.{attr} -> failed {p.failed} of {p.attempted}, "
                  f"first: {p.failures[:1]}")
            if p.failed == 0:
                problems.append(f"{name}: a wrong forms.{attr} was not caught")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["per_layer"]}
    for missing in sorted(names - listed):
        problems.append(f"produced but not in BENCHMARK.json: {missing}")
    for extra in sorted(listed - names):
        problems.append(f"in BENCHMARK.json but never produced: {extra}")

    for msg in problems:
        print(f"PROBLEM {msg}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
