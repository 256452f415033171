"""Command-line interface: `vcsp gen`, `eval`, `ascend`, `verify`, `oracle`, `structure`.

Machine-readable results go to stdout, diagnostics to stderr; the exit status
is 0 exactly when the requested command succeeded and every requested check
passed.  Identical invocations produce byte-identical stdout.  A command builds
only its own parser (see `COMMANDS`); `-h`, no arguments, an unknown command or
an option before the command build the parsers of all six.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import core, generator, landscape, search, structure
from .errors import TooLargeError, VcspError

# steepest-ascent steps `vcsp verify` may walk: 2 * 7*(2^m - 1) stays within
# 2^32 for m <= 28 (about 80 s at 48M steps/s); a larger m fails at once
VERIFY_STEP_CAP = 2 ** 32


def _write_files(outputs: list[tuple[str, str]]) -> None:
    """Writes each (path, text) pair, opening every path before writing any,
    so that a path that cannot be opened fails the command with nothing
    written.  The files opened before it are then closed, and removed where
    this call created them; one that existed is left empty, as opening it
    truncated it.  Each path is opened once: opening them all to append
    first, which truncates nothing, cost `vcsp gen` 0.1 to 0.3 ms more on
    ext4."""
    files = []
    try:
        for path, _ in outputs:
            files.append((path, os.path.lexists(path), open(path, "w")))
    except OSError:
        for path, existed, fh in files:
            fh.close()
            if not existed:
                os.unlink(path)
        raise
    for (_, _, fh), (_, text) in zip(files, outputs):
        with fh:
            fh.write(text)


def cmd_gen(args) -> int:
    m = args.n if args.m is None else args.m
    inst = generator.build_chain(args.n, m, args.sign)
    outputs = [(args.out, core.to_text(inst))]
    if args.decomposition is not None:
        pd = generator.canonical_decomposition(m)
        outputs.append((args.decomposition, structure.decomposition_to_text(pd)))
    _write_files(outputs)
    print(f"vars={inst.num_vars} unaries={len(inst.unaries)} binaries={len(inst.binaries)}")
    return 0


def cmd_eval(args) -> int:
    inst = core.read_instance(args.instance)
    x = core.parse_assignment(inst, args.assign, raw=args.raw_order)
    print(f"fitness={inst.fitness(x)}")
    return 0


def cmd_ascend(args) -> int:
    inst = core.read_instance(args.instance)
    x = core.parse_assignment(inst, args.start, raw=args.raw_order)
    policy = "error" if args.tie == "error" else "lowest-index"
    extra = {"tie_policy": policy} if args.method == "steepest" else {}
    if args.trials is not None:
        stats = search.run_trials(inst, x, method=args.method, trials=args.trials,
                                  seed=args.seed, max_steps=args.max_steps, **extra)
        print(f"trials={stats.trials} method={stats.method} mean={stats.mean} "
              f"min={stats.min} max={stats.max}")
        return 0
    record = args.trace is not None
    if args.method == "random":
        extra = {"seed": args.seed}
    engine = {"steepest": search.steepest_ascent, "random": search.random_ascent,
              "first": search.first_improvement_ascent}[args.method]
    tr = engine(inst, x, record_steps=record, max_steps=args.max_steps, **extra)
    if record:
        search.write_trace_csv(tr, inst, args.trace)
    end = core.format_assignment(inst, tr.end, raw=args.raw_order)
    where, partial = ("peak", "") if tr.complete else ("end", " partial=true")
    print(f"steps={tr.num_steps} final_fitness={tr.fitness_end} {where}={end} "
          f"ties={tr.tie_events}{partial}")
    return 0


def cmd_verify(args) -> int:
    n, m = args.n, args.n if args.m is None else args.m
    if m >= 1 and (steps := 2 * generator.predicted_ascent_length(m)) > VERIFY_STEP_CAP:
        raise TooLargeError(f"m={m} needs {steps} steepest-ascent steps, over the cap of "
                            f"{VERIFY_STEP_CAP}")
    rows = []  # (check, expected, observed, passed), printed in this order

    def same(name, expected, observed):
        rows.append((name, expected, observed, expected == observed))

    chains = {sign: generator.build_chain(n, m, sign) for sign in "+-"}
    peaks = {sign: generator.expected_peak(n, m, sign) for sign in "+-"}
    minus = chains["-"]
    length = generator.predicted_ascent_length(m)
    s_m = n + 1 - m

    g = structure.constraint_graph(minus)
    same("max-degree", 2 if m == 1 else 3, structure.max_degree(g))
    same("constraints", f"{6*m}u+{7*m-1}b", f"{len(minus.unaries)}u+{len(minus.binaries)}b")
    check = structure.validate_path_decomposition(g, generator.canonical_decomposition(m).bags)
    same("decomposition-width", "valid:2",
         f"valid:{check.width}" if check.valid else f"invalid:{check.violation.kind}")
    same("cycle", "true", "true" if structure.has_cycle(g) else "false")

    want_arcs = generator.expected_arcs(m)
    for sign, inst in chains.items():
        o = landscape.orient(inst)
        got = "not-oriented" if not o.oriented else \
            ("expected-arcs" if set(o.arcs) == want_arcs else "unexpected-arcs")
        same(f"orientation[{sign}]", "expected-arcs", got)
        peak = landscape.peak_of_oriented(inst, o) if o.oriented else None
        same(f"peak[{sign}]", core.format_assignment(inst, peaks[sign]),
             core.format_assignment(inst, peak) if peak is not None else "none")

    for (sign, inst), other in zip(chains.items(), "-+"):  # from the other sign's peak
        tr = search.steepest_ascent(inst, peaks[other], record_steps=False)
        same(f"ascent[{sign}]-steps", length, tr.num_steps)
        same(f"ascent[{sign}]-end", core.format_assignment(inst, peaks[sign]),
             core.format_assignment(inst, tr.end))
        same(f"ascent[{sign}]-ties", 0, tr.tie_events)
        ok = tr.min_gain is not None and tr.min_gain >= s_m
        rows.append((f"ascent[{sign}]-min-gain", f">={s_m}",
                     f">={s_m}" if ok else tr.min_gain, ok))

    print(f"n={n} m={m}")
    for name, expected, observed, ok in rows:
        print(f"check={name} expected={expected} observed={observed} "
              f"pass={'true' if ok else 'false'}")
    overall = all(row[3] for row in rows)
    print(f"overall={'pass' if overall else 'fail'}")
    return 0 if overall else 1


def cmd_oracle(args) -> int:
    inst = core.read_instance(args.instance)
    raw = args.raw_order
    caps = {} if args.cap is None else {"cap": args.cap}  # else each oracle's default
    if args.peaks:
        peaks = landscape.enumerate_peaks(inst, **caps)
        print(f"peaks={len(peaks)}")
        for p in peaks:
            print(f"peak {core.format_assignment(inst, p, raw)} {inst.fitness(p)}")
        return 0
    if args.semismooth:
        result = landscape.check_semismooth(inst, **caps)
        if result.semismooth:
            print("semismooth=true")
            return 0
        v = result.violation
        print("semismooth=false")
        pattern = ["*" if i in v.free_vars else str(v.fixed[i]) for i in range(inst.num_vars)]
        order = range(inst.num_vars) if raw else inst.display_order()
        print(f"face {''.join(pattern[i] for i in order)} peaks={len(v.peaks)}")
        for p in v.peaks:
            print(f"face-peak {core.format_assignment(inst, p, raw)} {inst.fitness(p)}")
        return 1
    # --ascent-graph START
    start = core.parse_assignment(inst, args.ascent_graph, raw)
    graph = landscape.ascent_graph(inst, start, **caps)
    print(f"nodes={len(graph.nodes)} edges={len(graph.edges)} sinks={len(graph.sinks)}")
    for s in graph.sinks:
        print(f"sink {core.format_assignment(inst, s, raw)} {inst.fitness(s)}")
    return 0


def cmd_structure(args) -> int:
    inst = core.read_instance(args.instance)
    g = structure.constraint_graph(inst)
    parts = [f"vertices={g.num_vars}", f"edges={len(g.edges)}",
             f"degree={structure.max_degree(g)}",
             f"cycle={'true' if structure.has_cycle(g) else 'false'}"]
    status = 0
    if args.decomposition is not None:
        pd = structure.read_decomposition(args.decomposition)
        check = structure.validate_path_decomposition(g, pd.bags)
        if check.valid:
            parts.append(f"width={check.width} valid=true")
        else:
            parts.append("valid=false")
            print(f"decomposition invalid: {check.violation.detail}", file=sys.stderr)
            status = 1
    print(" ".join(parts))
    if args.dot is not None:
        orientation = landscape.orient(inst)
        with open(args.dot, "w") as fh:
            fh.write(structure.export_dot(inst, orientation if orientation.oriented else None))
    return status


def _gen_args(p):
    p.add_argument("--n", type=int, required=True, help="difficulty parameter (n >= m)")
    p.add_argument("--m", type=int, default=None, help="number of gadgets (default: n)")
    p.add_argument("--sign", choices=["+", "-"], required=True)
    p.add_argument("--out", required=True, help="output instance path")
    p.add_argument("--decomposition", help="also write the canonical width-2 bags here")


def _eval_args(p):
    p.add_argument("--instance", required=True)
    p.add_argument("--assign", required=True, help="assignment bit string")
    p.add_argument("--raw-order", action="store_true",
                   help="read/write assignment strings in dense index order")


def _ascend_args(p):
    p.add_argument("--instance", required=True)
    p.add_argument("--start", required=True, help="starting assignment bit string")
    p.add_argument("--method", choices=list(search.METHODS), default="steepest")
    p.add_argument("--seed", type=int, default=0, help="seed for --method random")
    p.add_argument("--tie", choices=["lowest", "error"], default="lowest",
                   help="steepest-ascent tie policy")
    runs = p.add_mutually_exclusive_group()
    runs.add_argument("--trace", help="write the step-by-step trace CSV here")
    runs.add_argument("--trials", type=int, default=None,
                      help="instead of one run, aggregate step counts over this many trials")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--raw-order", action="store_true")


def _verify_args(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None, help="default: n")


def _oracle_args(p):
    p.add_argument("--instance", required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--peaks", action="store_true", help="enumerate all local peaks")
    mode.add_argument("--semismooth", action="store_true",
                      help="check that every hypercube face is single peaked")
    mode.add_argument("--ascent-graph", metavar="START",
                      help="explore all ascents from START")
    p.add_argument("--cap", type=int, default=None, help="override the size cap")
    p.add_argument("--raw-order", action="store_true")


def _structure_args(p):
    p.add_argument("--instance", required=True)
    p.add_argument("--dot", help="write a DOT rendering here")
    p.add_argument("--decomposition", help="validate this bag file against the graph")


# command -> (help, function adding its arguments, run function), in help order
COMMANDS = {
    "gen": ("generate a chained-gadget instance", _gen_args, cmd_gen),
    "eval": ("evaluate the fitness of an assignment", _eval_args, cmd_eval),
    "ascend": ("run one local-search ascent", _ascend_args, cmd_ascend),
    "verify": ("check the generated family's guarantees", _verify_args, cmd_verify),
    "oracle": ("brute-force landscape oracles (size capped)", _oracle_args, cmd_oracle),
    "structure": ("constraint-graph statistics and exports", _structure_args, cmd_structure),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    # a usage error after the command prints the top-level usage: a metavar
    # keeps every choice in it; the full parser's default keeps "required: command"
    parser = argparse.ArgumentParser(prog="vcsp", description="Generate, search, and analyze "
                                     "fitness landscapes of binary Boolean VCSP instances.")
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else [command]:
        help_, add_args, _ = COMMANDS[name]
        add_args(sub.add_parser(name, help=help_))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        return COMMANDS[args.command][2](args)
    except (VcspError, OSError) as e:
        kind = f"{type(e).__name__}: " if isinstance(e, VcspError) else ""
        print(f"error: {kind}{e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
