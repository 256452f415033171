"""The four benchmark workloads.

Each workload builds its inputs from the seed in `__init__` (part of set-up)
and then does a fixed amount of work per `run_pass`, one call at a time,
checking every result exactly.  Only public functions of `core`,
`generator`, `landscape`, `structure`, `search` and `cli` are called.
"""
from __future__ import annotations

import contextlib
import io
import random
from functools import partial
from pathlib import Path
from types import SimpleNamespace

from vcsp_landscape import cli, core, generator, landscape, search, structure

import forms as F
from harness import check, same


def scaled(inst: core.Instance, k: int) -> core.Instance:
    """The same instance with every weight multiplied by k."""
    return core.Instance(inst.num_vars, inst.constant * k,
                         {i: w * k for i, w in inst.unaries.items()},
                         {ij: w * k for ij, w in inst.binaries.items()}, inst.labels)


def uniform(rng: random.Random, d: int) -> tuple[int, ...]:
    return tuple(rng.getrandbits(1) for _ in range(d))


def check_chain_ascent(tr, inst, n: int, m: int, sign: str, scale: int = 1) -> None:
    """The paper's claim for one steepest ascent between the two peaks."""
    same("steps", tr.num_steps, F.chain_steps(m))
    same("end", tr.end, F.chain_peak(m, sign))
    same("tie_events", tr.tie_events, 0)
    check(tr.complete, "ascent stopped early")
    check(tr.min_gain >= F.small_step(n, m) * scale,
          f"min_gain {tr.min_gain} < s_m * {scale}")
    same("fitness_end", tr.fitness_end, F.fitness(inst, tr.end))


class Ascent:
    """One steepest ascent between the two peaks of chain(n, n, sign), run as
    calls of at most `part` steps.  Each call starts where the previous one
    stopped; steepest ascent depends only on the current assignment, so the
    calls follow the same path as one call would, and `check` applies the
    paper's claim to the whole path.  Short calls are what make best-of-N
    timing steady (see README.md)."""

    def __init__(self, inst, n: int, sign: str, part: int, scale: int = 1):
        self.inst, self.n, self.sign, self.part, self.scale = inst, n, sign, part, scale
        self.parts = -(-F.chain_steps(n) // part)  # calls if the claim holds
        self.traces: list = []

    def next_start(self) -> tuple[int, ...]:
        return self.traces[-1].end if self.traces else F.chain_peak(self.n, F.other(self.sign))

    def check(self) -> None:
        trs = self.traces
        same("calls", len(trs), self.parts)
        check(all(not tr.complete for tr in trs[:-1]), "an ascent call stopped before its limit")
        whole = SimpleNamespace(
            num_steps=sum(tr.num_steps for tr in trs), end=trs[-1].end,
            tie_events=sum(tr.tie_events for tr in trs), complete=trs[-1].complete,
            min_gain=min(tr.min_gain for tr in trs), fitness_end=trs[-1].fitness_end)
        check_chain_ascent(whole, self.inst, self.n, self.n, self.sign, self.scale)


class ChainSteepest:
    """Steepest ascent at scale: summary, past-2^64 and recorded runs."""

    name = "chain-steepest"
    PART = 2 ** 12  # steps per steepest call: 5 to 10 ms, and as much for replay and CSV

    def __init__(self, seed: int, workdir: Path):
        self.summary = [(s, generator.build_chain(16, 16, s)) for s in "+-"]
        self.big = scaled(generator.build_chain(14, 14, "+"), F.BIG)
        self.rec = generator.build_chain(12, 12, "+")
        self.csv = workdir / "trace-n12.csv"

    def run_pass(self, p) -> None:
        for sign, inst in self.summary:
            a = Ascent(inst, 16, sign, self.PART)
            for k in range(a.parts):
                p.op(f"steepest n=16 {sign} part {k}", self._summary, p, a)
            p.op(f"check n=16 {sign}", a.check)
        a = Ascent(self.big, 14, "+", self.PART, scale=F.BIG)
        for k in range(a.parts):
            p.op(f"steepest n=14 x (2^64+1) part {k}", self._bigint, p, a)
        p.op("check n=14 x (2^64+1)", a.check)
        a = Ascent(self.rec, 12, "+", self.PART)
        for k in range(a.parts):
            p.op(f"steepest n=12 recorded part {k}", self._recorded, p, a)
            p.op(f"replay n=12 part {k}", self._replay, p, a)
            p.op(f"write_trace_csv n=12 part {k}", self._write_csv, p, a)
        p.op("check n=12 recorded", a.check)

    def _summary(self, p, a: Ascent) -> None:
        tr, dt = p.timed("search.steepest", search.steepest_ascent, a.inst, a.next_start(),
                         record_steps=False, max_steps=a.part)
        p.tracer.count("search.steepest.steps", tr.num_steps)
        p.tracer.count("search.steepest.tie_events", tr.tie_events)
        p.steps += tr.num_steps
        p.steps_s += dt
        a.traces.append(tr)

    def _bigint(self, p, a: Ascent) -> None:
        tr = p.call("search.steepest_bigint", search.steepest_ascent, a.inst, a.next_start(),
                    record_steps=False, max_steps=a.part)
        p.tracer.count("search.steepest_bigint.steps", tr.num_steps)
        a.traces.append(tr)

    def _recorded(self, p, a: Ascent) -> None:
        tr = p.call("search.steepest_recorded", search.steepest_ascent, a.inst, a.next_start(),
                    max_steps=a.part)
        p.tracer.count("search.steepest_recorded.steps", tr.num_steps)
        same("recorded steps", len(tr.steps), tr.num_steps)
        a.traces.append(tr)

    def _replay(self, p, a: Ascent) -> None:
        check(bool(a.traces), "no recorded trace to replay")
        p.call("search.replay", search.replay, a.inst, a.traces[-1])
        p.tracer.count("search.replay.steps", a.traces[-1].num_steps)

    def _write_csv(self, p, a: Ascent) -> None:
        check(bool(a.traces), "no recorded trace to write")
        tr = a.traces[-1]
        self.csv.unlink(missing_ok=True)
        p.call("search.write_trace_csv", search.write_trace_csv, tr, a.inst, self.csv)
        data = self.csv.read_bytes()
        p.tracer.count("search.write_trace_csv.bytes", len(data))
        lines = data.decode().splitlines()
        same("csv lines", len(lines), tr.num_steps + 4)  # 3 comments + header
        same("csv last fitness", lines[-1].rsplit(",", 1)[1], str(tr.fitness_end))

    def stress(self, layers: dict, e2e: dict) -> float:
        engine = sum(layers.get(f"search.{k}.s", 0.0)
                     for k in ("steepest", "steepest_bigint", "steepest_recorded"))
        return engine / layers["trace.wall_s"]


class ParamSweep:
    """Every (n, m) with 1 <= m <= min(n, 6), n <= 40, both signs: 450 small
    instances, each through the whole check pipeline."""

    name = "param-sweep"
    ASCENTS = 4  # random and first-improvement ascents per instance

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.cases = []
        for n in range(1, 41):
            for m in range(1, min(n, 6) + 1):
                for sign in "+-":
                    rand = [(uniform(rng, 6 * m), rng.getrandbits(32))
                            for _ in range(self.ASCENTS)]
                    first = [uniform(rng, 6 * m) for _ in range(self.ASCENTS)]
                    self.cases.append((n, m, sign, rand, first))
        self.arcs = {m: generator.expected_arcs(m) for m in range(1, 7)}
        self.bags = {m: generator.canonical_decomposition(m).bags for m in range(1, 7)}

    def run_pass(self, p) -> None:
        for case in self.cases:
            p.op("n={} m={} {}".format(*case[:3]), self._instance, p, *case)

    def _instance(self, p, n, m, sign, rand, first) -> None:
        peak = F.chain_peak(m, sign)
        inst = p.call("generator.build_chain", generator.build_chain, n, m, sign,
                      validate=False)
        p.call("generator.validate_chain", generator.validate_chain, inst, n, m, sign)
        o = p.call("landscape.orient", landscape.orient, inst)
        check(o.oriented, "instance is not oriented")
        same("arcs", set(o.arcs), self.arcs[m])
        same("peak_of_oriented",
             p.call("landscape.peak_of_oriented", landscape.peak_of_oriented, inst, o), peak)

        g = p.call("structure.constraint_graph", structure.constraint_graph, inst)
        same("max_degree", p.call("structure.max_degree", structure.max_degree, g),
             F.max_degree(m))
        same("has_cycle", p.call("structure.has_cycle", structure.has_cycle, g), True)
        dc = p.call("structure.validate_path_decomposition",
                    structure.validate_path_decomposition, g, self.bags[m])
        check(dc.valid and dc.width == 2, f"decomposition check {dc}")

        tr, dt = p.timed("search.steepest_short", search.steepest_ascent, inst,
                         F.chain_peak(m, F.other(sign)), record_steps=False)
        p.tracer.count("search.steepest_short.steps", tr.num_steps)
        p.steps += tr.num_steps
        p.steps_s += dt
        check_chain_ascent(tr, inst, n, m, sign)

        for start, seed in rand:
            tr = p.call("search.random", search.random_ascent, inst, start, seed=seed,
                        record_steps=False)
            p.tracer.count("search.random.steps", tr.num_steps)
            same("random ascent end", tr.end, peak)
        for start in first:
            tr = p.call("search.first", search.first_improvement_ascent, inst, start,
                        record_steps=False)
            p.tracer.count("search.first.steps", tr.num_steps)
            same("first-improvement end", tr.end, peak)

    def stress(self, layers: dict, e2e: dict) -> float:
        return layers.get("search.steepest_short.s", 0.0) / layers["trace.wall_s"]


class Oracles:
    """Brute-force certification: numpy hypercube kernels and the ascent-graph
    BFS, cross-checked against steepest ascents from seeded starts.  The
    instances are the largest for which each oracle call stays short (at most
    about 15 ms), so that best-of-N timing is steady."""

    name = "oracles"
    PROBES = 50  # steepest ascents from seeded starts on chain(4, 4, '+')
    PEAKS_N = (3, 4)  # enumerate_peaks on chain(n, 3, +/-), d = 18
    SEMISMOOTH_N = range(1, 7)  # check_semismooth on chain(n, 1, +/-), d = 6

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.c4 = generator.build_chain(4, 4, "+")
        self.c3 = {s: generator.build_chain(3, 3, s) for s in "+-"}
        self.peaks = [(n, s, generator.build_chain(n, 3, s)) for n in self.PEAKS_N for s in "+-"]
        self.big2 = {s: scaled(generator.build_chain(2, 2, s), F.BIG) for s in "+-"}
        self.semi = [(n, s, generator.build_chain(n, 1, s))
                     for n in self.SEMISMOOTH_N for s in "+-"]
        self.starts = [uniform(rng, 24) for _ in range(self.PROBES)]
        self._graph = {}

    def run_pass(self, p) -> None:
        self._graph = {}
        oracles = [
            *((f"enumerate_peaks chain({n},3,{s})", partial(self._peaks, sign=s, inst=inst))
              for n, s, inst in self.peaks),
            *((f"enumerate_peaks chain(2,2,{s}) x (2^64+1)", partial(self._peaks_object, sign=s))
              for s in "+-"),
            *((f"check_semismooth chain({n},1,{s})", partial(self._semismooth, inst=inst))
              for n, s, inst in self.semi),
            *((f"ascent_graph chain(3,3,{s})", partial(self._ascent_graph, sign=s)) for s in "+-"),
            *((f"shortest_ascent_length chain(3,3,{s})", partial(self._shortest, sign=s))
              for s in "+-"),
        ]
        for name, fn in oracles:
            p.op(name, fn, p)
        # one operation for all probes, so that its time hardly depends on the seed
        p.op(f"{self.PROBES} steepest probes", self._probes, p)

    def _peaks(self, p, sign, inst) -> None:
        d = inst.num_vars
        peaks = p.call("landscape.enumerate_peaks", landscape.enumerate_peaks, inst)
        same("peaks", peaks, [F.chain_peak(3, sign)])
        p.tracer.count("landscape.enumerate_peaks.cells", 2 ** d)
        # bytes the int64 kernel writes, from array sizes: cube fill, one
        # masked add per unary (half the cube) and binary (a quarter), and
        # one bool compare plus one bool AND per axis
        per_cell = 8 + 4 * len(inst.unaries) + 2 * len(inst.binaries) + 2 * d
        p.tracer.count("landscape.enumerate_peaks.bytes_computed", per_cell * 2 ** d)

    def _peaks_object(self, p, sign) -> None:
        peaks = p.call("landscape.enumerate_peaks_object", landscape.enumerate_peaks,
                       self.big2[sign])
        same("peaks", peaks, [F.chain_peak(2, sign)])

    def _semismooth(self, p, inst) -> None:
        r = p.call("landscape.check_semismooth", landscape.check_semismooth, inst)
        check(r.semismooth, f"not semismooth: {r.violation}")
        p.tracer.count("landscape.check_semismooth.faces", F.semismooth_faces(inst.num_vars))

    def _ascent_graph(self, p, sign) -> None:
        start, peak = F.chain_peak(3, F.other(sign)), F.chain_peak(3, sign)
        g = p.call("landscape.ascent_graph", landscape.ascent_graph, self.c3[sign], start)
        p.tracer.count("landscape.ascent_graph.nodes", len(g.nodes))
        p.tracer.count("landscape.ascent_graph.edges", len(g.edges))
        same("nodes, edges", (len(g.nodes), len(g.edges)), F.ASCENT_GRAPH_C3)
        same("sinks", g.sinks, (peak,))
        self._graph[sign] = g

    def _shortest(self, p, sign) -> None:
        check(sign in self._graph, "no ascent graph")
        start, peak = F.chain_peak(3, F.other(sign)), F.chain_peak(3, sign)
        d = p.call("landscape.shortest_ascent_length", landscape.shortest_ascent_length,
                   self._graph[sign], peak)
        same("shortest ascent", d, sum(a != b for a, b in zip(start, peak)))  # Hamming distance

    def _probes(self, p) -> None:
        for start in self.starts:
            tr, dt = p.timed("search.steepest_short", search.steepest_ascent, self.c4, start,
                             record_steps=False)
            p.tracer.count("search.steepest_short.steps", tr.num_steps)
            p.steps += tr.num_steps
            p.steps_s += dt
            same("steepest end", tr.end, F.chain_peak(4, "+"))

    def stress(self, layers: dict, e2e: dict) -> float:
        oracle = sum(v for k, v in layers.items()
                     if k.startswith("landscape.") and k.endswith(".s"))
        return oracle / layers["trace.wall_s"]


class CliSession:
    """A fixed script of `vcsp` commands, run in-process through `cli.main`
    with stdout captured, outputs and files compared exactly.  Interpreter
    start and imports, which a shell user pays on every call, are measured by
    `setup_s` and the `import.*` layer metrics: whole subprocesses (about
    250 ms each) could not be timed steadily on a shared host."""

    name = "cli-session"
    N = 8  # the session instance is chain(8, 8, '+'): every command takes under 10 ms
    TRIALS = 50  # random ascents in `ascend --trials`, the longest command

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        n = self.N
        f = {k: str(workdir / k) for k in
             ("inst.txt", "bags.txt", "c2.txt", "graph.dot", "trace.csv", "expected.csv",
              "copy.txt")}
        self.files = f

        inst = generator.build_chain(n, n, "+")
        self.inst, self.inst_text = inst, core.to_text(inst)
        c2 = generator.build_chain(2, 2, "+")
        zeros, peak = F.chain_peak(n, "-"), F.chain_peak(n, "+")
        assign = uniform(rng, 6 * n)
        trial_start, trial_seed = uniform(rng, 6 * n), rng.getrandbits(32)

        rec = search.steepest_ascent(inst, zeros)
        search.write_trace_csv(rec, inst, f["expected.csv"])
        with open(f["expected.csv"]) as fh:
            csv_text = fh.read()
        stats = search.run_trials(inst, trial_start, method="random", trials=self.TRIALS,
                                  seed=trial_seed)
        g2 = landscape.ascent_graph(c2, (0,) * 12)
        p2 = F.chain_peak(2, "+")

        # (name, argv, expected stdout, {file: expected text})
        self.script = [
            ("gen", ["gen", "--n", str(n), "--sign", "+", "--out", f["inst.txt"],
                     "--decomposition", f["bags.txt"]],
             f"vars={6 * n} unaries={6 * n} binaries={7 * n - 1}\n",
             {f["inst.txt"]: core.to_text(inst),
              f["bags.txt"]: structure.decomposition_to_text(
                  generator.canonical_decomposition(n))}),
            ("gen", ["gen", "--n", "2", "--sign", "+", "--out", f["c2.txt"]],
             "vars=12 unaries=12 binaries=13\n", {f["c2.txt"]: core.to_text(c2)}),
            ("structure", ["structure", "--instance", f["inst.txt"], "--decomposition",
                           f["bags.txt"], "--dot", f["graph.dot"]],
             f"vertices={6 * n} edges={7 * n - 1} degree=3 cycle=true width=2 valid=true\n",
             {f["graph.dot"]: structure.export_dot(inst, landscape.orient(inst))}),
            ("eval", ["eval", "--instance", f["inst.txt"], "--assign", F.bits(assign)],
             f"fitness={F.fitness(inst, assign)}\n", {}),
            ("ascend", ["ascend", "--instance", f["inst.txt"], "--start", F.bits(zeros),
                        "--trace", f["trace.csv"]],
             f"steps={F.chain_steps(n)} final_fitness={F.fitness(inst, peak)} "
             f"peak={F.bits(peak)} ties=0\n",
             {f["trace.csv"]: csv_text}),
            ("ascend_trials", ["ascend", "--instance", f["inst.txt"], "--start",
                               F.bits(trial_start), "--method", "random",
                               "--trials", str(self.TRIALS), "--seed", str(trial_seed)],
             f"trials={self.TRIALS} method=random mean={stats.mean} min={stats.min} "
             f"max={stats.max}\n", {}),
            ("verify", ["verify", "--n", str(n)], _capture(["verify", "--n", str(n)])[1], {}),
            ("oracle", ["oracle", "--instance", f["c2.txt"], "--peaks"],
             f"peaks=1\npeak {F.bits(p2)} {F.fitness(c2, p2)}\n", {}),
            ("oracle", ["oracle", "--instance", f["c2.txt"], "--ascent-graph", "0" * 12],
             f"nodes={len(g2.nodes)} edges={len(g2.edges)} sinks=1\n"
             f"sink {F.bits(p2)} {F.fitness(c2, p2)}\n", {}),
        ]

    def run_pass(self, p) -> None:
        for i, (name, argv, out, files) in enumerate(self.script):
            p.op(f"vcsp {name} #{i}", self._call, p, name, argv, out, files)
        p.op("read_instance", self._read, p)
        p.op("write_instance", self._write, p)

    def _call(self, p, name, argv, want_out, want_files) -> None:
        for path in want_files:
            Path(path).unlink(missing_ok=True)
        (_, out), dt = p.timed(f"cli.{name}", _capture, argv)
        same("stdout", out, want_out)
        for path, text in want_files.items():
            with open(path) as fh:
                same(f"contents of {Path(path).name}", fh.read(), text)
        if name == "verify":
            lines = out.splitlines()
            same("verify overall", lines[-1], "overall=pass")
            steps = F.chain_steps(self.N)
            for sign in "+-":
                check(f"check=ascent[{sign}]-steps expected={steps} observed={steps} "
                      f"pass=true" in lines, f"verify ascent[{sign}] step line")
        if name == "ascend":  # the steepest ascent; the trials are "ascend_trials"
            p.steps += F.chain_steps(self.N)
            p.steps_s += dt

    def _read(self, p) -> None:
        inst = p.call("core.read_instance", core.read_instance, self.files["inst.txt"])
        same("read instance", core.to_text(inst), self.inst_text)

    def _write(self, p) -> None:
        path = self.files["copy.txt"]
        Path(path).unlink(missing_ok=True)
        p.call("core.write_instance", core.write_instance, self.inst, path)
        with open(path) as fh:
            same("written instance", fh.read(), self.inst_text)

    def stress(self, layers: dict, e2e: dict) -> float:
        """Share of a shell user's median call that is interpreter start and
        imports: startup / (startup + median in-process call)."""
        return layers["import.startup_ms"] / (layers["import.startup_ms"] + e2e["call_ms_p50"])


def _capture(argv) -> tuple[int, str]:
    """Run cli.main(argv) in-process; return (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    same(f"exit code of {argv[0]}", rc, 0)
    return rc, buf.getvalue()


WORKLOADS = {w.name: w for w in (ChainSteepest, ParamSweep, Oracles, CliSession)}
