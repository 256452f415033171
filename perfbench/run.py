"""Run one workload of the vcsp-landscape benchmark and print its metrics.

    python3 perfbench/run.py --workload chain-steepest --seed 1 --seconds 25 --trace 0

Workloads and metrics are defined in BENCHMARK.json at the repository root
and explained in perfbench/README.md.  Every metric is printed by name with
its unit; the last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1).  A run record with the machine,
versions and every number is written to .perfbench_out/.

The library is imported from src/ of the checkout this file sits in; without
it the run exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 4          # set-up-only workers before and after the measuring one;
                    # setup_s is the median of all 2 * SETUPS + 1 set-ups
CPUS = sorted(os.sched_getaffinity(0))
DEADLINE_S = 170.0  # the whole run, set-ups included


class RunError(Exception):
    pass


def launch(args, deadline: float, setup_only: bool, k: int = 0):
    """Start a worker; return (seconds until it reported `ready`, its result).

    The k-th set-up-only worker runs on CPU k mod (number of CPUs), so that
    set-ups sample every CPU, each of which the shared host slows on its own.
    The measuring worker keeps every CPU; it rotates its passes over them."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    # unbuffered, so reading the `ready` line leaves the rest for communicate();
    # a session of its own, so a timeout also stops the worker's subprocesses
    cpu = {CPUS[k % len(CPUS)]} if setup_only else set(CPUS)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, bufsize=0,
                            start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, cpu))
    try:
        line = proc.stdout.readline()
        setup_s = perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RunError("worker exceeded the run deadline") from None
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RunError(f"worker failed (exit status {proc.returncode})")
    return setup_s, None if setup_only else json.loads(out.decode().splitlines()[-1])


def read_first(path: str, prefix: str = "") -> str | None:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else line.strip()
    except OSError:
        pass
    return None


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": read_first("/proc/cpuinfo", "model name"),
        "l3": read_first("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2 ** 20,
    }


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                       text=True, timeout=30)
    return r.stdout.strip() or None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "vcsp_landscape" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no vcsp_landscape sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    try:
        setups = [launch(args, deadline, True, k)[0] for k in range(SETUPS)]
        setup_s, res = launch(args, deadline, False)
        setups += [setup_s] + [launch(args, deadline, True, k)[0] for k in range(SETUPS)]
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        wanted, values = spec["per_layer"], res["layers"]
    else:
        wanted, values = spec["end_to_end"], dict(res["e2e"], setup_s=statistics.median(setups))
    # a layer a workload never calls reads 0; every end-to-end metric must exist
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0) if args.trace
                           else values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "versions": res["versions"],
        "git_commit": git_commit(), "src_lines": src_lines(),
        "setup_s_samples": setups, "failed_frac": res["failed"] / res["attempted"],
        **{k: v for k, v in res.items() if k != "versions"},
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    m = record["machine"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={res['passes']} traced_passes={res['traced_passes']} calls={res['calls']}")
    print(f"machine: nproc={m['nproc']} cpu={m['cpu_model']!r} l3={m['l3']} "
          f"ram_mb={m['ram_mb']}")
    print(f"python={res['versions']['python']} numpy={res['versions']['numpy']} "
          f"commit={record['git_commit']} src_lines={record['src_lines']}")
    print(f"attempted={res['attempted']} failed={res['failed']} "
          f"failed_frac={record['failed_frac']:.6g}")
    for f in res["failures"]:
        print(f"FAILED {f}")
    for name, mv in metrics.items():
        print(f"{name} = {mv['value']:.6g} {mv['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
