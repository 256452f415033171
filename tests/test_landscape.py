import hashlib
import itertools
import random
from pathlib import Path

import pytest

from vcsp_landscape import (
    FaceViolation,
    Instance,
    Orientation,
    SemismoothResult,
    ascent_graph,
    build_chain,
    build_gadget,
    check_semismooth,
    core,
    enumerate_peaks,
    expected_arcs,
    expected_peak,
    is_local_peak,
    landscape,
    orient,
    peak_of_oriented,
    search,
    shortest_ascent_length,
    sign_depends,
    steepest_ascent,
)
from vcsp_landscape.errors import (
    CyclicOrientationError,
    TooLargeError,
    UnreachableError,
    ZeroGradientError,
)

from conftest import (
    ascent_graph_cases,
    brute_fitness,
    brute_improving,
    brute_peaks,
    check_semismooths,
    dense_instance,
    planted_pair,
    random_bits,
    random_instance,
    relabel,
    semismooth_cases,
    star,
    weighted_instance,
    weighted_star,
)

DATA = Path(__file__).with_name("data")


def orient_paths(monkeypatch):
    """Yields twice, so that a loop over it runs its body twice: with orient
    (or any other kernel path) as dispatched, and then with the native
    kernel switched off, so that it runs its Python loop, the reference."""
    yield "dispatched"
    with monkeypatch.context() as mp:
        mp.setattr(search, "_native_kernel", lambda: None)
        yield "reference"


def test_sign_depends_inside_gadget(gadget_minus):
    # (k,2) follows (k,1); (k,1) follows nothing
    inst = gadget_minus
    assert sign_depends(inst, inst.index_of((1, 2)), inst.index_of((1, 1))) is not None
    assert sign_depends(inst, inst.index_of((1, 1)), inst.index_of((1, 2))) is None
    plus = build_gadget(2, 1, "+")
    assert sign_depends(plus, plus.index_of((1, 1)), plus.index_of((1, 2))) is None
    assert sign_depends(plus, plus.index_of((1, 1)), plus.index_of((1, 4))) is None


def test_sign_depends_witness_values(two_peak_pair):
    dep = sign_depends(two_peak_pair, 0, 1)
    assert dep is not None
    assert dep.witness == {1: 0}
    assert (dep.sign_at, dep.sign_flipped) == (1, -1)  # +1 at x1=0, -2 at x1=1
    # witness checks out against the gradient itself
    g0 = two_peak_pair.gradient(0, (0, 0))
    g1 = two_peak_pair.gradient(0, (0, 1))
    assert g0 == 1 and g1 == -2


def test_sign_depends_requires_shared_constraint():
    inst = Instance(3, 0, [(0, 1), (2, -1)], [(0, 1, 2)])
    assert sign_depends(inst, 0, 2) is None
    with pytest.raises(ValueError):
        sign_depends(inst, 1, 1)


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (3, 3), (4, 5)])
def test_orient_generated_chain(sign, m, n, monkeypatch):
    for _ in orient_paths(monkeypatch):
        inst = build_chain(n, m, sign)
        o = orient(inst)
        assert o.oriented
        assert set(o.arcs) == expected_arcs(m)
        pos = {v: r for r, v in enumerate(o.topo_order)}
        assert all(pos[a] < pos[b] for a, b in o.arcs)


def test_orient_standalone_gadget(monkeypatch):
    for _ in orient_paths(monkeypatch):
        inst = build_gadget(4, 3, "-")
        o = orient(inst)
        assert o.oriented
        assert set(o.arcs) == expected_arcs(1)


def test_orient_conflict(two_peak_pair, monkeypatch):
    for _ in orient_paths(monkeypatch):
        o = orient(two_peak_pair)
        assert not o.oriented
        assert o.conflict == (0, 1)
        w1, w2 = o.conflict_witnesses
        assert {w1.target, w2.target} == {0, 1}


def lowest_ready_order(d, arcs):
    """The order of range(d) that places, each round, the lowest variable
    whose every predecessor under arcs is placed, and stops, short of d,
    where none is left: the oracle of landscape._topo_order."""
    before = [{a for a, b in arcs if b == v} for v in range(d)]
    order, placed = [], set()
    while ready := [v for v in range(d) if v not in placed and before[v] <= placed]:
        order.append(ready[0])
        placed.add(ready[0])
    return tuple(order)


def test_topo_order_is_the_lowest_ready_first_order():
    # seeded arc lists on at most 10 variables: DAGs, whose order is the
    # oracle's; lists with a directed cycle, whose order stops short; and
    # lists whose every arc goes up in index, whose order is index order
    rng = random.Random(30)
    seen = {"dag": 0, "cycle": 0, "up": 0}
    for t in range(900):
        d = rng.randint(1, 10)
        pairs = [p for p in itertools.permutations(range(d), 2) if rng.random() < 0.3]
        kind = ("dag", "cycle", "up")[t % 3]
        if kind == "dag":
            rank = rng.sample(range(d), d)
            arcs = [(a, b) for a, b in pairs if rank[a] < rank[b]]
        elif kind == "up":
            arcs = [(a, b) for a, b in pairs if a < b]
        else:
            if d < 2:
                continue
            ring = rng.sample(range(d), rng.randint(2, d))
            arcs = pairs + [(a, b) for a, b in zip(ring, ring[1:] + ring[:1])
                            if (a, b) not in pairs]
        rng.shuffle(arcs)
        got = landscape._topo_order(d, arcs)
        assert got == lowest_ready_order(d, arcs), (d, arcs)
        assert (len(got) < d) == (kind == "cycle")
        if kind == "up":
            assert got == tuple(range(d))
        seen[kind] += kind != "dag" or got != tuple(range(d))
    assert min(seen.values()) >= 150, seen


def test_orient_raises_on_cyclic_arcs(monkeypatch):
    # no instance is known whose one-way arcs form a cycle, so the loop's
    # answer is replaced: orient checks the order after either path
    monkeypatch.setattr(search, "_native_kernel", lambda: None)
    monkeypatch.setattr(landscape, "_orient_loop",
                        lambda inst: (((0, 1), (2, 0), (1, 2)), None))
    with pytest.raises(CyclicOrientationError, match="form a directed cycle"):
        orient(Instance(4))


def moved(x, perm):
    """The assignment x with the bit of variable v moved to perm[v]."""
    y = [0] * len(x)
    for v, b in enumerate(x):
        y[perm[v]] = b
    return tuple(y)


def test_orient_renumbered_chains(monkeypatch):
    # every chain with m <= n <= 8, both signs, its variables renumbered by
    # two seeded permutations: the arcs and the peak move with the variables,
    # the order is the lowest-ready-first one, and steepest ascent from the
    # other peak keeps its length, zero ties, least gain and end fitness.
    # Arcs that go down in index send orient through Kahn's heap
    rng = random.Random(16)
    cases = []
    for n in range(1, 9):
        for m in range(1, n + 1):
            for sign in "+-":
                inst = build_chain(n, m, sign)
                start = expected_peak(n, m, "-" if sign == "+" else "+")
                tr = steepest_ascent(inst, start)
                for _ in range(2):
                    perm = rng.sample(range(6 * m), 6 * m)
                    cases.append((relabel(inst, perm), m, perm, moved(start, perm),
                                  moved(expected_peak(n, m, sign), perm), tr))
    for _ in orient_paths(monkeypatch):
        down = 0
        for inst, m, perm, start, peak, tr in cases:
            o = orient(inst)
            assert o.oriented
            assert set(o.arcs) == {(perm[a], perm[b]) for a, b in expected_arcs(m)}
            assert o.topo_order == lowest_ready_order(inst.num_vars, o.arcs)
            assert peak_of_oriented(inst, o) == peak
            got = steepest_ascent(inst, start)
            assert (got.num_steps, got.tie_events, got.min_gain, got.fitness_end, got.end) == (
                7 * (2 ** m - 1), 0, tr.min_gain, tr.fitness_end, peak)
            down += any(a > b for a, b in o.arcs)
        assert down == len(cases) == 144


def test_relabelled_chain_file_regenerates():
    # tests/data/chain-6-6-plus-relabelled.vcsp is chain(6, 6, '+') renumbered
    # by the permutation of seed 6, byte for byte; some of its arcs go down
    inst = relabel(build_chain(6, 6, "+"), random.Random(6).sample(range(36), 36))
    assert core.to_text(inst).encode() == (DATA / "chain-6-6-plus-relabelled.vcsp").read_bytes()
    assert any(a > b for a, b in orient(inst).arcs)


def test_is_local_peak(gadget_plus):
    assert is_local_peak(build_chain(2, 2, "-"), (0,) * 12)
    assert is_local_peak(gadget_plus, (1, 1, 1, 1, 1, 0))
    assert not is_local_peak(gadget_plus, (0,) * 6)


@pytest.mark.parametrize("sign,n,m", [("+", 2, 2), ("+", 3, 2), ("-", 2, 2), ("-", 4, 3)])
def test_peak_of_oriented_chain(sign, n, m):
    inst = build_chain(n, m, sign)
    assert peak_of_oriented(inst) == expected_peak(n, m, sign)


def test_peak_of_oriented_single_variable():
    inst = Instance(1, 0, [(0, -5)], [])
    assert peak_of_oriented(inst) == (0,)


def test_peak_of_oriented_zero_gradient():
    with pytest.raises(ZeroGradientError):
        peak_of_oriented(Instance(1, 3, [], []))
    # oriented (var 1 never changes sign), but the gradient of var 0 cancels
    # exactly once var 1 is fixed to its preferred value 1
    inst = Instance(2, 0, [(0, 2), (1, 5)], [(0, 1, -2)])
    assert orient(inst).oriented
    with pytest.raises(ZeroGradientError):
        peak_of_oriented(inst)


def test_peak_of_oriented_rejects_unoriented(two_peak_pair):
    with pytest.raises(ValueError):
        peak_of_oriented(two_peak_pair)


def test_enumerate_peaks(gadget_plus):
    assert enumerate_peaks(gadget_plus) == [(1, 1, 1, 1, 1, 0)]
    assert enumerate_peaks(build_chain(2, 2, "-")) == [(0,) * 12]
    constant = Instance(2, 5, [], [])
    assert len(enumerate_peaks(constant)) == 4
    with pytest.raises(TooLargeError):
        enumerate_peaks(build_chain(5, 5, "-"))  # 30 vars over the default cap


def _peaks_in_order(inst):
    # every assignment's fitness once, then the peaks sorted by fitness
    # descending, ties by assignment
    fit = {bits: brute_fitness(inst, bits)
           for bits in itertools.product((0, 1), repeat=inst.num_vars)}
    peaks = [x for x, f in fit.items()
             if all(fit[x[:v] + (1 - x[v],) + x[v + 1:]] <= f for v in range(inst.num_vars))]
    return sorted(peaks, key=lambda x: (-fit[x], x))


def test_enumerate_peaks_matches_pure_python_oracle():
    # the exact list, order and ties included
    rng = random.Random(31)
    big = 3 * 2 ** 70
    cases = [Instance(0), Instance(10)]
    cases += [random_instance(rng, max_vars=12) for _ in range(40)]
    cases += [random_instance(rng, max_vars=10, max_weight=3) for _ in range(40)]
    cases += [dense_instance(rng, rng.randint(2, 11), (-1, 1)) for _ in range(20)]
    cases += [dense_instance(rng, rng.randint(2, 12), (-4, -2, -1, 1, 3), (-5, -1, 2, 6))
              for _ in range(10)]
    for _ in range(20):
        d = rng.randint(1, 9)
        cases.append(Instance(d, big, [(v, rng.choice((-big, big, 7))) for v in range(d)],
                              [(i, j, rng.choice((-big, big, -1, 2)))
                               for i, j in itertools.combinations(range(d), 2)
                               if rng.random() < 0.5]))
    for inst in cases:
        assert enumerate_peaks(inst) == _peaks_in_order(inst), core.to_text(inst)


def test_oracles_stay_exact_beyond_int64():
    big = 2 ** 80
    inst = Instance(3, 0, [(0, big), (1, -big), (2, 3)], [(0, 1, big // 2), (1, 2, -7)])
    peaks = enumerate_peaks(inst)
    assert sorted(peaks) == sorted(brute_peaks(inst))
    assert inst.fitness(peaks[0]) == big + 3
    assert check_semismooth(inst).semismooth


def test_enumerate_peaks_sorted_by_fitness():
    rng = random.Random(8)
    from conftest import random_instance
    for _ in range(10):
        inst = random_instance(rng, max_vars=7)
        peaks = enumerate_peaks(inst)
        fits = [inst.fitness(p) for p in peaks]
        assert fits == sorted(fits, reverse=True)


def test_check_semismooth(gadget_minus, chain22_plus, two_peak_pair):
    assert check_semismooth(gadget_minus).semismooth
    assert check_semismooth(chain22_plus).semismooth
    r = check_semismooth(two_peak_pair)
    assert not r.semismooth
    v = r.violation
    assert v.free_vars == (0, 1)
    assert sorted(v.peaks) == [(0, 1), (1, 0)]
    assert [two_peak_pair.fitness(p) for p in sorted(v.peaks)] == [1, 1]
    with pytest.raises(TooLargeError):
        check_semismooth(build_chain(3, 3, "-"))  # 18 vars over the default cap


def _semismooth_by_faces(inst):
    # every face and every peak on it, listed explicitly: free sets in
    # ascending mask order, then backgrounds and then peaks in lexicographic
    # order of their bits; the first face without exactly one peak is the
    # witness
    d = inst.num_vars
    fit = [brute_fitness(inst, _bits(x, d)) for x in range(1 << d)]
    for mask in range(1, 1 << d):
        free = [v for v in range(d) if mask >> v & 1]
        fixed_vars = [v for v in range(d) if not mask >> v & 1]
        face = [sum(b << v for v, b in zip(free, values))
                for values in itertools.product((0, 1), repeat=len(free))]
        for background in itertools.product((0, 1), repeat=len(fixed_vars)):
            base = sum(b << v for v, b in zip(fixed_vars, background))
            peaks = [_bits(base + y, d) for y in face
                     if all(fit[base + y] >= fit[base + y ^ 1 << v] for v in free)]
            if len(peaks) != 1:
                return SemismoothResult(False, FaceViolation(
                    tuple(free), dict(zip(fixed_vars, background)), tuple(peaks)))
    return SemismoothResult(True)


def test_check_semismooth_matches_every_face():
    # the whole SemismoothResult: the first bad free set, its background and
    # the order of its peaks
    semismooth = edges = off_first_pair = 0
    for inst in semismooth_cases():
        r = check_semismooth(inst)
        assert r == _semismooth_by_faces(inst), core.to_text(inst)
        if r.semismooth:
            semismooth += 1
        else:
            edges += len(r.violation.free_vars) == 1
            off_first_pair += r.violation.free_vars != (0, 1)
    assert semismooth >= 50 and edges >= 20 and off_first_pair >= 20


def test_check_semismooth_paths_agree(monkeypatch, kernel_calls):
    # the kernel path, as dispatched, against the superset sum alone, forced
    # by taking the kernel away.  The corpus has Instance(0), weights of
    # 3 * 2^70, which only the reference takes, and odd and even d
    cases = semismooth_cases()
    assert {inst.num_vars % 2 for inst in cases} == {0, 1}
    dispatched = [check_semismooth(inst) for inst in cases]
    assert (kernel_calls["semismooth"] > 0) is bool(search._native_kernel())
    monkeypatch.setattr(search, "_native_kernel", lambda: None)
    assert [check_semismooth(inst) for inst in cases] == dispatched


def test_check_semismooth_above_the_bitset_bound(monkeypatch):
    # 13 variables, one past the default cap: as dispatched and on the
    # superset sum alone, one semismooth and one planted two-peak instance
    rng = random.Random(13)
    smooth = weighted_instance(rng, 13, 0.3, (-9, 9), (-1, 1))  # no gradient changes sign
    for inst, expected in ((smooth, True), (planted_pair(rng, 13), False)):
        with pytest.raises(TooLargeError):
            check_semismooth(inst)
        with monkeypatch.context() as mp:
            mp.setattr(search, "_native_kernel", lambda: None)
            reference = check_semismooth(inst, cap=13)
        assert check_semismooth(inst, cap=13) == reference
        assert reference.semismooth is expected


def test_check_semismooth_kernel_matches_the_reference(monkeypatch, kernel_calls):
    # the kernel's count against the superset sum, on check_semismooths'
    # corpus: every case on the int64 width, of at most 16 variables, is
    # decided on the kernel, with the reference's verdict
    on_kernel = check_semismooths(monkeypatch, kernel_calls)
    assert on_kernel == (232 if search._native_kernel() else 0)


def test_check_semismooth_refuses_more_than_24_variables(monkeypatch):
    # at any cap, before a table is built or the kernel is called
    monkeypatch.setattr(landscape, "_superset_sum", lambda inst: pytest.fail("table built"))
    monkeypatch.setattr(landscape, "_semismooth64", lambda inst: pytest.fail("kernel called"))
    for cap in (25, 10 ** 6):
        with pytest.raises(TooLargeError, match="^25 variables exceeds 24, the most that "):
            check_semismooth(Instance(25), cap=cap)
    with pytest.raises(TooLargeError, match="^25 variables exceeds the semismoothness cap 24$"):
        check_semismooth(Instance(25), cap=24)


def test_oriented_without_zero_gradients_is_semismooth():
    # an oriented instance whose gradients are never 0 has one peak on every
    # face; unoriented and zero-gradient instances are skipped
    rng = random.Random(11)
    tested = with_arcs = 0
    for _ in range(1500):
        d = rng.randint(1, 9)
        scale, density = rng.choice((3, 10, 30)), rng.choice((0.2, 0.4, 0.7))
        inst = weighted_instance(rng, d, density, [w for w in range(-scale, scale + 1) if w],
                         [w for w in range(-10, 11) if w])
        o = orient(inst)
        if o.oriented and all(0 not in core._gradient_table(inst, v) for v in range(d)):
            assert check_semismooth(inst).semismooth, core.to_text(inst)
            tested += 1
            with_arcs += bool(o.arcs)
    assert tested >= 500 and with_arcs >= 100


def test_semismooth_violation_on_a_proper_face():
    # the two-peak pair plus a third variable that is fixed at 0 on the first
    # bad face: the witness carries that background in fixed and in its peaks
    inst = Instance(3, 0, [(0, 1), (1, 1), (2, 1)], [(0, 1, -3)])
    r = check_semismooth(inst)
    assert not r.semismooth
    assert r.violation == FaceViolation(free_vars=(0, 1), fixed={2: 0},
                                        peaks=((0, 1, 0), (1, 0, 0)))


def test_ascent_graph_gadget(gadget_plus, gadget_minus):
    g = ascent_graph(gadget_plus, (0,) * 6)
    assert len(g.nodes) == 13
    assert g.sinks == ((1, 1, 1, 1, 1, 0),)
    g2 = ascent_graph(gadget_minus, (1, 1, 1, 1, 1, 0))
    assert len(g2.nodes) == 13
    assert g2.sinks == ((0,) * 6,)


def test_ascent_graph_from_peak(gadget_plus):
    g = ascent_graph(gadget_plus, (1, 1, 1, 1, 1, 0))
    assert len(g.nodes) == 1 and len(g.edges) == 0
    assert g.sinks == ((1, 1, 1, 1, 1, 0),)


def test_ascent_graph_cap(gadget_plus):
    with pytest.raises(TooLargeError):
        ascent_graph(gadget_plus, (0,) * 6, cap=5)


def test_ascent_graph_cap_boundary(chain22_plus):
    start = (0,) * 12
    n = len(ascent_graph(chain22_plus, start).nodes)
    assert n > 1
    assert len(ascent_graph(chain22_plus, start, cap=n).nodes) == n
    with pytest.raises(TooLargeError, match=f"exceeds the node cap {n - 1}$"):
        ascent_graph(chain22_plus, start, cap=n - 1)


def _brute_ascent_graph(inst, start):
    # breadth-first over brute_improving: the start, the (node, fitness) pairs
    # in discovery order, each node's (from, to, variable, gain) edges in turn
    # in ascending variable order, and the sorted sinks
    fitness = {start: brute_fitness(inst, start)}
    edges = []
    sinks = []
    queue = [start]
    for x in queue:  # the list grows as the search appends to it
        moves = brute_improving(inst, x)
        if not moves:
            sinks.append(x)
        for v, gain in moves:
            y = x[:v] + (1 - x[v],) + x[v + 1:]
            edges.append((x, y, v, gain))
            if y not in fitness:
                fitness[y] = brute_fitness(inst, y)
                queue.append(y)
    return start, list(fitness.items()), edges, tuple(sorted(sinks))


def _bits(mask, d):
    return tuple(mask >> i & 1 for i in range(d))


def _graph_lists(g):
    # the adapter from an AscentGraph to _brute_ascent_graph's layout
    bits = [_bits(x, len(g.start)) for x in g.nodes]
    edges = [(bits[a], bits[b], (g.nodes[a] ^ g.nodes[b]).bit_length() - 1,
              g.fitness[b] - g.fitness[a])
             for a in range(len(g.nodes)) for b in g.edges[g.offsets[a]:g.offsets[a + 1]]]
    return g.start, list(zip(bits, g.fitness)), edges, g.sinks


def test_ascent_graph_matches_a_brute_force_bfs():
    # nodes, fitness, edges (variable and gain) and sinks, in order
    cases = ascent_graph_cases()
    zero_gains = peak_starts = 0
    for inst, start in cases:
        want = _brute_ascent_graph(inst, start)
        assert _graph_lists(ascent_graph(inst, start)) == want, core.to_text(inst)
        zero_gains += any(brute_fitness(inst, x[:v] + (1 - x[v],) + x[v + 1:]) == f
                          for x, f in want[1] for v in range(inst.num_vars))
        peak_starts += len(want[1]) == 1
    # the inputs reach nodes where a flip leaves the fitness unchanged (not an
    # improving move) and starts with no improving move at all
    assert zero_gains >= 20 and peak_starts >= 20


@pytest.mark.parametrize("n,start,size", [
    (1, "+", (13, 18)), (2, "+", (88, 201)), (3, "+", (1087, 4041)), (4, "+", (23349, 130355)),
    (1, "ones", (20, 36)), (2, "ones", (408, 1402)), (3, "ones", (12616, 69354)),
])
def test_ascent_graph_sizes_on_the_minus_chains(n, start, size):
    # every ascent on chain(n, n, '-') from the '+' peak and from all ones:
    # (nodes, edges), and the one sink is the '-' peak
    start = expected_peak(n, n, "+") if start == "+" else (1,) * (6 * n)
    g = ascent_graph(build_chain(n, n, "-"), start)
    assert (len(g.nodes), len(g.edges)) == size
    assert g.sinks == (expected_peak(n, n, "-"),)


def test_ascent_graph_of_chain_4_4_plus_is_pinned(monkeypatch):
    # every field of the 23,349-node graph from all zeros, as the sha256 of
    # their repr (a PackedInts reads as the tuple of its items), on both paths
    inst = build_chain(4, 4, "+")
    for path in orient_paths(monkeypatch):
        g = ascent_graph(inst, (0,) * 24)
        text = repr((g.nodes, g.fitness, g.offsets, g.edges, g.sinks))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "8223fcade2e231f438e1e538c989182d80be3a98aa14907639968d8caa5a2f4b", path


def test_ascent_graph_edges_strictly_increase(gadget_plus):
    g = ascent_graph(gadget_plus, (0,) * 6)
    assert g.offsets[0] == 0 and g.offsets[-1] == len(g.edges) == 18
    for a in range(len(g.nodes)):
        for b in g.edges[g.offsets[a]:g.offsets[a + 1]]:
            assert g.fitness[b] - g.fitness[a] > 0
            assert g.fitness[b] == gadget_plus.fitness(_bits(g.nodes[b], 6))
            assert sum(x != y for x, y in zip(_bits(g.nodes[a], 6), _bits(g.nodes[b], 6))) == 1


@pytest.mark.parametrize("n", [1, 3])
def test_maximal_path_lengths(n):
    # the edge set of the gadget's ascent graph does not depend on n: every
    # maximal ascent from all-zeros is a direct one (5 steps) or the steepest
    # one with its double flip of the linking variable (7 steps)
    g = ascent_graph(build_gadget(n, 1, "+"), (0,) * 6)
    lengths = set()

    def walk(a, depth):
        nxt = g.edges[g.offsets[a]:g.offsets[a + 1]]
        if not nxt:
            lengths.add(depth)
            return
        for b in nxt:
            walk(b, depth + 1)

    walk(0, 0)
    assert lengths == {5, 7}


def test_shortest_ascent_length(gadget_plus, gadget_minus):
    g = ascent_graph(gadget_plus, (0,) * 6)
    assert shortest_ascent_length(g, (1, 1, 1, 1, 1, 0)) == 5
    assert shortest_ascent_length(g, (0,) * 6) == 0
    g2 = ascent_graph(gadget_minus, (1, 1, 1, 1, 1, 0))
    assert shortest_ascent_length(g2, (0,) * 6) == 5
    with pytest.raises(UnreachableError):
        shortest_ascent_length(g, (0, 1, 0, 0, 0, 0))  # downhill of the start
    for target in ((1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 0, 0), (1, 1, 1, 1, 1, 2)):
        with pytest.raises(UnreachableError, match="^target is not reachable from the start$"):
            shortest_ascent_length(g, target)


def test_shortest_ascent_equals_hamming_distance(chain22_plus):
    # single-peaked landscapes always admit a direct ascent to the peak
    inst = chain22_plus
    peak = expected_peak(2, 2, "+")
    rng = random.Random(17)
    starts = {tuple(rng.randint(0, 1) for _ in range(12)) for _ in range(30)}
    starts.add((0,) * 12)
    starts.add(peak)
    for start in starts:
        g = ascent_graph(inst, start)
        dist = sum(a != b for a, b in zip(start, peak))
        assert shortest_ascent_length(g, peak) == dist


def test_shortest_ascent_length_matches_a_bfs_on_random_instances():
    # on random instances a target can need more improving steps than its
    # Hamming distance from the start; the lengths agree with a BFS over the
    # brute-force improving moves, and every node of the graph is reached
    rng = random.Random(611)
    longer = 0
    for _ in range(150):
        inst = random_instance(rng, max_vars=9)
        start = random_bits(rng, inst.num_vars)
        dist = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for v, _ in brute_improving(inst, x):
                    y = x[:v] + (1 - x[v],) + x[v + 1:]
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        g = ascent_graph(inst, start)
        assert {_bits(x, inst.num_vars) for x in g.nodes} == set(dist)
        assert len(g.nodes) == len(dist)
        for target, want in dist.items():
            assert shortest_ascent_length(g, target) == want
            longer += want > sum(a != b for a, b in zip(start, target))
    assert longer >= 20


def test_oriented_small_instances_have_unique_peak():
    for n, m, sign in [(1, 1, "+"), (2, 1, "-"), (2, 2, "+"), (2, 2, "-")]:
        inst = build_chain(n, m, sign)
        peaks = enumerate_peaks(inst)
        assert peaks == [peak_of_oriented(inst)]
        assert check_semismooth(inst).semismooth


def reference_orient(inst):
    """orient rebuilt edge by edge from sign_depends, with a plain
    lowest-index-first topological order."""
    arcs = []
    for i, j in sorted(inst.binaries):
        j_on_i, i_on_j = sign_depends(inst, j, i), sign_depends(inst, i, j)
        if j_on_i and i_on_j:
            return Orientation(False, conflict=(i, j), conflict_witnesses=(i_on_j, j_on_i))
        if j_on_i:
            arcs.append((i, j))
        elif i_on_j:
            arcs.append((j, i))
    preds = [{a for a, b in arcs if b == v} for v in range(inst.num_vars)]
    topo, placed = [], set()
    while len(topo) < inst.num_vars:
        v = min(v for v in range(inst.num_vars) if v not in placed and preds[v] <= placed)
        topo.append(v)
        placed.add(v)
    return Orientation(True, tuple(arcs), tuple(topo))


def test_orient_matches_reference_on_generated_instances(monkeypatch):
    for _ in orient_paths(monkeypatch):
        for n in range(1, 41):
            for sign in "+-":
                for m in range(1, min(n, 6) + 1):
                    inst = build_chain(n, m, sign)
                    assert orient(inst) == reference_orient(inst), (n, m, sign)
                for k in range(1, n + 1):
                    inst = build_gadget(n, k, sign)
                    assert orient(inst) == reference_orient(inst), (n, k, sign)


def test_orient_matches_reference_on_random_instances(monkeypatch):
    # small weights give zero gradients, ties and two-way dependence; the
    # witnesses of a conflict are compared too
    for _ in orient_paths(monkeypatch):
        rng = random.Random(4)
        kinds = {True: 0, False: 0}
        for t in range(2400):
            inst = random_instance(rng, max_vars=9, max_weight=(3, 20)[t % 2])
            o = orient(inst)
            assert o == reference_orient(inst), t
            kinds[o.oriented] += 1
        assert min(kinds.values()) >= 300, kinds


def test_chain_pipeline_is_pinned(monkeypatch):
    # the text, orientation and polynomial peak of every chain with
    # m <= n <= 20 and every standalone gadget with k <= n <= 20, both signs,
    # with orient as dispatched and on its Python loop
    for _ in orient_paths(monkeypatch):
        h = hashlib.sha256()
        for n in range(1, 21):
            for sign in "+-":
                insts = [build_chain(n, m, sign) for m in range(1, n + 1)]
                insts += [build_gadget(n, k, sign) for k in range(1, n + 1)]
                for inst in insts:
                    o = orient(inst)
                    h.update(f"{core.to_text(inst)}{o!r}\n{peak_of_oriented(inst, o)}\n".encode())
        assert h.hexdigest() == "e4dcd16605a176ffb9bff5e9cda9093d3fc8d7d674ed15e2408e3db9a62fa768"


def test_orient_matches_reference_on_stars(monkeypatch):
    # centres of degree up to 12, with gradient tables of up to 4,096 entries:
    # neighbours at bits 8 to 11 that are sign sources and ones that are not,
    # centres with a zero gradient, and conflicts
    for _ in orient_paths(monkeypatch):
        rng = random.Random(12)
        seen = {"source": 0, "not": 0, "zero": 0, "conflict": 0}
        for d in range(1, 13):
            for _ in range(8):
                inst = weighted_star(rng, d)
                o = orient(inst)
                assert o == reference_orient(inst), core.to_text(inst)
                if not o.oriented:
                    seen["conflict"] += 1
                    continue
                table = [inst.unaries[0]]
                for _, w in inst.neighbors[0]:
                    table += [g + w for g in table]
                seen["zero"] += 0 in table
                for j in range(9, d + 1):
                    seen["source" if (j, 0) in o.arcs else "not"] += 1
        assert min(seen.values()) >= 10, seen


def test_orient_caps_the_neighborhood(monkeypatch):
    # a variable with 21 neighbors would need a 2^21-entry gradient table;
    # the cap is read at call time.  Degrees are checked in index order
    # before any edge: in two_centres, centre 5 (leaves 7..11) and centre 6
    # (leaves 0..4) are both above a cap of 4, and the first edge, (0, 6),
    # is on centre 6, but the error names centre 5
    two_centres = Instance(12, 0, [(5, 1), (6, 1)],
                           [(5, j, 1) for j in range(7, 12)] + [(j, 6, 1) for j in range(5)])
    for _ in orient_paths(monkeypatch):
        with pytest.raises(TooLargeError, match="variable 0 has 21 neighbors"):
            orient(star(21))
        with monkeypatch.context() as mp:
            mp.setattr(core, "TABLE_DEGREE_CAP", 4)
            with pytest.raises(TooLargeError, match="variable 0 has 5 neighbors"):
                orient(star(5))
            with pytest.raises(TooLargeError, match="^variable 5 has 5 neighbors"):
                orient(two_centres)
            o = orient(star(4))
            assert o == reference_orient(star(4))
            assert o.arcs == ((0, 1), (0, 2), (0, 3), (0, 4))


def test_sign_depends_caps_the_neighborhood(monkeypatch):
    # the 2^21 assignments of the centre's neighborhood are not enumerated
    # (variable 0 never changes sign, so without the cap this returns None)
    with pytest.raises(TooLargeError, match="variable 0 has 21 neighbors"):
        sign_depends(star(21), 0, 1)
    assert sign_depends(star(21), 1, 0) is not None  # a leaf has one neighbor
    monkeypatch.setattr(core, "TABLE_DEGREE_CAP", 4)
    with pytest.raises(TooLargeError):
        sign_depends(star(5), 0, 1)
    assert sign_depends(star(4), 0, 1) is None


def test_peak_of_oriented_on_random_instances():
    # for every oriented instance on 2 to 5 variables, the polynomial peak is
    # the only local peak, or some gradient is 0 and no peak is defined
    rng = random.Random(5)
    seen = {"peak": 0, "zero": 0, "not-oriented": 0}
    for t in range(3000):
        inst = random_instance(rng, max_vars=5, max_weight=(2, 4, 20)[t % 3])
        if inst.num_vars < 2:
            continue
        o = orient(inst)
        if not o.oriented:
            seen["not-oriented"] += 1
            continue
        try:
            peak = peak_of_oriented(inst, o)
        except ZeroGradientError:
            seen["zero"] += 1
            assert any(inst.gradient(v, x) == 0 for v in range(inst.num_vars)
                       for x in itertools.product((0, 1), repeat=inst.num_vars)), t
            continue
        seen["peak"] += 1
        assert enumerate_peaks(inst) == [peak], t
    assert min(seen.values()) >= 200, seen
