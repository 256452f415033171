"""Acceptance suite: one test per headline guarantee, each printing a
PASS/FAIL line (run with -s or -rA to see them).

Every expected value below is exact; there are no tolerances anywhere.  The
full sweep in criterion 1 covers all 420 parameter pairs up to n = 20 and
walks about 59 million steepest-ascent steps.
"""
import itertools
import random

import pytest

from vcsp_landscape import (
    Instance,
    ascent_graph,
    build_chain,
    build_gadget,
    check_semismooth,
    constraint_graph,
    canonical_decomposition,
    derived_params,
    enumerate_peaks,
    expected_arcs,
    expected_peak,
    first_improvement_ascent,
    from_constraint_tables,
    has_cycle,
    max_degree,
    orient,
    peak_of_oriented,
    predicted_ascent_length,
    random_ascent,
    replay,
    search,
    shortest_ascent_length,
    sign_depends,
    steepest_ascent,
    validate_path_decomposition,
)

from conftest import brute_fitness, random_bits, random_instance


def _conclude(num: int | str, name: str, failures: list) -> None:
    print(f"ACCEPTANCE {num} ({name}): {'FAIL' if failures else 'PASS'}")
    assert not failures, f"{len(failures)} failure(s), first: {failures[0]}"


def test_acceptance_1_exponential_steepest_ascents():
    failures = []
    for n in range(1, 21):
        for m in range(1, n + 1):
            length = predicted_ascent_length(m)
            s_m = n + 1 - m
            for sign in ("+", "-"):
                inst = build_chain(n, m, sign)
                start = expected_peak(n, m, "-" if sign == "+" else "+")
                goal = expected_peak(n, m, sign)
                tr = steepest_ascent(inst, start, record_steps=False)
                if tr.num_steps != length:
                    failures.append(f"(n={n},m={m},{sign}): {tr.num_steps} steps != {length}")
                elif tr.end != goal:
                    failures.append(f"(n={n},m={m},{sign}): wrong endpoint")
                elif tr.tie_events != 0:
                    failures.append(f"(n={n},m={m},{sign}): {tr.tie_events} ties")
                elif tr.min_gain < s_m:
                    failures.append(f"(n={n},m={m},{sign}): gain {tr.min_gain} < {s_m}")
    assert predicted_ascent_length(1) == 7
    assert predicted_ascent_length(2) == 21
    assert predicted_ascent_length(3) == 49
    assert predicted_ascent_length(20) == 7340025
    _conclude(1, "steepest ascents take exactly 7(2^m-1) steps up to n=20", failures)


def test_acceptance_2_gadget_ascent_anatomy():
    failures = []
    for n in (1, 2, 5):
        S, s1 = 2 * n + 1, n
        inst = build_gadget(n, 1, "+")
        tr = steepest_ascent(inst, (0,) * 6)
        labels = [inst.label_of(v) for v, _, _ in tr.steps]
        gains = [g for _, g, _ in tr.steps]
        if labels != [(1, 1), (1, 2), (1, 3), (1, 6), (1, 4), (1, 5), (1, 6)]:
            failures.append(f"n={n}: flip order {labels}")
        want = [S, S - s1, S, None, s1, S, None]  # None marks the >= S steps
        for t, (g, w) in enumerate(zip(gains, want), start=1):
            if (w is None and g < S) or (w is not None and g != w):
                failures.append(f"n={n}: step {t} gain {g}")
        if n == 1 and gains != [3, 2, 3, 3, 1, 3, 3]:
            failures.append(f"n=1: gains {gains}")
    _conclude(2, "seven-step gadget anatomy with the designed gains", failures)


def test_acceptance_3_brute_force_oracles():
    failures = []
    for m in (1, 2):
        for n in range(m, 5):
            for sign in ("+", "-"):
                inst = build_chain(n, m, sign)
                peaks = enumerate_peaks(inst)
                if peaks != [expected_peak(n, m, sign)]:
                    failures.append(f"peaks(n={n},m={m},{sign}): {len(peaks)} found")
                if not check_semismooth(inst).semismooth:
                    failures.append(f"semismooth(n={n},m={m},{sign}) failed")
    for n in range(1, 5):
        plus = build_gadget(n, 1, "+")
        minus = build_gadget(n, 1, "-")
        top, bottom = (1, 1, 1, 1, 1, 0), (0,) * 6
        for inst, start, goal in ((plus, bottom, top), (minus, top, bottom)):
            g = ascent_graph(inst, start)
            if len(g.nodes) != 13 or g.sinks != (goal,):
                failures.append(f"graph(n={n}): {len(g.nodes)} nodes, sinks {g.sinks}")
            elif shortest_ascent_length(g, goal) != 5:
                failures.append(f"graph(n={n}): shortest != 5")
    _conclude(3, "exhaustive peaks, semismoothness, and 13-node ascent graphs", failures)


def test_acceptance_3b_exhaustive_peaks_up_to_the_cap():
    # every chain with at most 24 variables has exactly its designed peak, by
    # exhaustive search at the default cap; and chain(200, 200, +), with 1,200
    # variables, has exactly the peak that orientation predicts
    failures = []
    for m in range(1, 5):
        for n in range(m, 21):
            for sign in ("+", "-"):
                peaks = enumerate_peaks(build_chain(n, m, sign))
                if peaks != [expected_peak(n, m, sign)]:
                    failures.append(f"peaks(n={n},m={m},{sign}): {len(peaks)} found")
    inst = build_chain(200, 200, "+")
    peaks = enumerate_peaks(inst, cap=1200)
    if peaks != [peak_of_oriented(inst)]:
        failures.append(f"peaks(n=200,m=200,+): {len(peaks)} found")
    _conclude("3b", "exhaustive peaks of every chain up to 24 variables, and at 1,200", failures)


def test_acceptance_3c_semismooth_up_to_the_cap():
    # every chain with m <= 2 and n <= 20, both signs, has exactly one peak on
    # every face of its hypercube; m = 2 gives 12 variables, the default cap
    failures = []
    for m in (1, 2):
        for n in range(m, 21):
            for sign in ("+", "-"):
                r = check_semismooth(build_chain(n, m, sign))
                if not r.semismooth:
                    failures.append(f"semismooth(n={n},m={m},{sign}): {r.violation}")
    _conclude("3c", "every face single peaked on every chain up to 12 variables", failures)


def test_acceptance_3d_semismooth_at_18_variables(kernel_calls):
    # every chain with m = 3 and 3 <= n <= 20, both signs, has exactly one
    # peak on every face of its hypercube of 18 variables, each decided on
    # the kernel's count
    if not search._native_kernel():
        pytest.skip("no native kernel can be built here, and the reference takes "
                    "about 1 s a chain at 18 variables (36 chains)")
    failures = []
    for n in range(3, 21):
        for sign in ("+", "-"):
            r = check_semismooth(build_chain(n, 3, sign), cap=18)
            if not r.semismooth:
                failures.append(f"semismooth(n={n},m=3,{sign}): {r.violation}")
    assert kernel_calls["semismooth"] == 36
    _conclude("3d", "every face single peaked on every chain of 18 variables", failures)


def test_acceptance_4_structural_claims():
    failures = []
    for n in range(1, 11):
        for m in range(1, n + 1):
            for sign in ("+", "-"):
                inst = build_chain(n, m, sign)
                g = constraint_graph(inst)
                if max_degree(g) != (2 if m == 1 else 3):
                    failures.append(f"(n={n},m={m},{sign}): degree {max_degree(g)}")
                if len(inst.unaries) != 6 * m or len(inst.binaries) != 7 * m - 1:
                    failures.append(f"(n={n},m={m},{sign}): constraint counts")
                if not has_cycle(g):
                    failures.append(f"(n={n},m={m},{sign}): no cycle")
                check = validate_path_decomposition(g, canonical_decomposition(m).bags)
                if not (check.valid and check.width == 2):
                    failures.append(f"(n={n},m={m},{sign}): decomposition {check}")
    _conclude(4, "degree 3, width-2 decomposition, cycle, constraint counts", failures)


def test_acceptance_5_orientedness():
    failures = []
    for n in range(1, 9):
        for m in range(1, n + 1):
            want = expected_arcs(m)
            for sign in ("+", "-"):
                o = orient(build_chain(n, m, sign))
                if not o.oriented:
                    failures.append(f"(n={n},m={m},{sign}): not oriented")
                elif set(o.arcs) != want:
                    failures.append(f"(n={n},m={m},{sign}): arc mismatch")
    pair = Instance(2, 0, [(0, 1), (1, 1)], [(0, 1, -3)])
    o = orient(pair)
    if o.oriented or o.conflict != (0, 1):
        failures.append(f"counterexample: {o}")
    else:
        for dep in o.conflict_witnesses:
            x = [dep.witness.get(v, 0) for v in range(2)]
            g_at = pair.gradient(dep.target, x)
            x[dep.source] ^= 1
            g_flip = pair.gradient(dep.target, x)
            sign = lambda v: (v > 0) - (v < 0)
            if (sign(g_at), sign(g_flip)) != (dep.sign_at, dep.sign_flipped) \
                    or dep.sign_at == dep.sign_flipped:
                failures.append(f"invalid witness {dep}")
    _conclude(5, "orientation arcs match the design; counterexample detected", failures)


def test_acceptance_5b_oriented_in_index_order():
    # every chain with m <= n <= 20, and chain(200, 200): oriented, with the
    # designed arcs, and index order is the topological order orient gives
    failures = []
    params = [(n, m) for n in range(1, 21) for m in range(1, n + 1)] + [(200, 200)]
    for n, m in params:
        want = expected_arcs(m)
        for sign in ("+", "-"):
            o = orient(build_chain(n, m, sign))
            if not o.oriented:
                failures.append(f"(n={n},m={m},{sign}): not oriented")
            elif set(o.arcs) != want:
                failures.append(f"(n={n},m={m},{sign}): arc mismatch")
            elif o.topo_order != tuple(range(6 * m)):
                failures.append(f"(n={n},m={m},{sign}): topological order is not index order")
    _conclude("5b", "every chain up to n = 20, and at 1,200 variables, oriented in index order",
              failures)


def test_acceptance_6_random_ascent_bound():
    failures = []
    for n in (2, 3, 4, 6):
        inst = build_chain(n, n, "-")
        start = expected_peak(n, n, "+")
        goal = (0,) * (6 * n)
        bound = 32 * n * n - 18 * n
        counts = []
        for t in range(500):
            tr = random_ascent(inst, start, seed=7_000_000 * n + t, record_steps=False)
            counts.append(tr.num_steps)
            if tr.end != goal:
                failures.append(f"n={n} trial {t}: ended off-peak")
                break
        mean = sum(counts) / len(counts)
        if mean > bound:
            failures.append(f"n={n}: mean {mean:.1f} > {bound}")
    _conclude(6, "random-ascent mean step counts under 32n^2-18n", failures)


# gradient of position h given its two in-gadget neighbors (i, j): closed
# forms per neighbor assignment; rows 1 and 6 list only the corner cells, the
# two middle cells there are exercised by the sign checks instead of value
# assertions
ROW_NEIGHBORS = {1: (4, 2), 2: (1, 3), 3: (2, 6), 4: (1, 5), 5: (4, 6), 6: (3, 5)}


def _expected_cells(h, sign, M, S, s):
    if h == 1:
        if sign == "+":
            return {(0, 0): S, (1, 1): (2 * M + 11) * S + s}
        return {(0, 0): -(2 * M + 11) * S, (1, 1): -S + s}
    if h == 2:
        return {(0, 0): -(M + 4) * S - s, (0, 1): -s,
                (1, 0): S - s, (1, 1): (M + 5) * S - s}
    if h == 3:
        return {(0, 0): -(M + 3) * S, (0, 1): -S, (1, 0): S, (1, 1): (M + 3) * S}
    if h == 4:
        return {(0, 0): -(M + 5) * S, (0, 1): -S, (1, 0): s, (1, 1): (M + 4) * S + s}
    if h == 5:
        return {(0, 0): -S, (0, 1): -(M + 3) * S, (1, 0): (M + 3) * S, (1, 1): S}
    return {(0, 0): -(M + 1) * S, (1, 1): -(M + 1) * S}


def test_acceptance_7_gradient_table():
    failures = []
    for n in range(1, 9):
        for k in range(1, n + 1):
            M, S, s = derived_params(n, k)
            for sign in ("+", "-"):
                inst = build_gadget(n, k, sign)
                for h, (i, j) in ROW_NEIGHBORS.items():
                    cells = {}
                    for xi, xj in itertools.product((0, 1), repeat=2):
                        x = [0] * 6
                        x[i - 1], x[j - 1] = xi, xj
                        cells[(xi, xj)] = inst.gradient(h - 1, x)
                    for key, want in _expected_cells(h, sign, M, S, s).items():
                        if cells[key] != want:
                            failures.append(
                                f"(n={n},k={k},{sign}) h={h} cell {key}: "
                                f"{cells[key]} != {want}")
                    signs = {key: (v > 0) - (v < 0) for key, v in cells.items()}
                    if h == 1:
                        uniform = 1 if sign == "+" else -1
                        if set(signs.values()) != {uniform}:
                            failures.append(f"(n={n},k={k},{sign}) h=1 not uniform")
                    elif h in (2, 3, 4, 5):
                        # the in-neighbor's bit alone decides the sign
                        if any(signs[(xi, xj)] != (1 if xi else -1)
                               for xi, xj in signs):
                            failures.append(f"(n={n},k={k},{sign}) h={h} sign pattern")
                    else:
                        for src in (i, j):
                            if sign_depends(inst, h - 1, src - 1) is None:
                                failures.append(
                                    f"(n={n},k={k},{sign}) h=6 independent of {src}")
    _conclude(7, "per-variable gradient cells and sign patterns", failures)


def test_acceptance_8_property_suites():
    failures = []
    rng = random.Random(20250808)

    # finite-difference identity on 10^4 random triples
    for _ in range(10_000):
        inst = random_instance(rng)
        x = random_bits(rng, inst.num_vars)
        i = rng.randrange(inst.num_vars)
        hi = list(x)
        hi[i] = 1
        lo = list(x)
        lo[i] = 0
        if inst.gradient(i, x) != brute_fitness(inst, hi) - brute_fitness(inst, lo):
            failures.append(f"finite difference at {inst!r}, var {i}")
            break

    # replay integrity on every trace produced here
    traces = []
    for n, m, sign in [(1, 1, "+"), (2, 2, "-"), (3, 2, "+"), (4, 4, "-")]:
        inst = build_chain(n, m, sign)
        start = expected_peak(n, m, "-" if sign == "+" else "+")
        traces.append((inst, steepest_ascent(inst, start)))
        for seed in range(5):
            traces.append((inst, random_ascent(inst, start, seed=seed)))
        traces.append((inst, first_improvement_ascent(inst, start)))
    for _ in range(30):
        inst = random_instance(rng, max_vars=9)
        start = random_bits(rng, inst.num_vars)
        traces.append((inst, steepest_ascent(inst, start)))
        traces.append((inst, random_ascent(inst, start, seed=rng.randrange(10 ** 6))))
    for inst, tr in traces:
        try:
            replay(inst, tr)
        except ValueError as e:
            failures.append(f"replay: {e}")
            break

    # table-conversion round trip, exhaustive over every assignment
    for _ in range(200):
        d = rng.randint(1, 4)
        tables = []
        for _ in range(rng.randint(1, 6)):
            if d >= 2 and rng.random() < 0.6:
                i, j = rng.sample(range(d), 2)
                tables.append(((i, j), {bits: rng.randint(-9, 9)
                                        for bits in itertools.product((0, 1), repeat=2)}))
            else:
                i = rng.randrange(d)
                tables.append(((i,), {(0,): rng.randint(-9, 9), (1,): rng.randint(-9, 9)}))
        inst = from_constraint_tables(d, tables)
        for bits in itertools.product((0, 1), repeat=d):
            want = sum(tab[tuple(bits[v] for v in scope)] for scope, tab in tables)
            if inst.fitness(bits) != want:
                failures.append(f"table round trip at {bits}")
                break
    _conclude(8, "finite differences, trace replay, table round trips", failures)
