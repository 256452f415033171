import random

import pytest

from vcsp_landscape import (
    ConstraintGraph,
    DecompositionCheck,
    Instance,
    PathDecomposition,
    build_chain,
    build_gadget,
    canonical_decomposition,
    constraint_graph,
    export_dot,
    has_cycle,
    max_degree,
    orient,
    read_decomposition,
    validate_path_decomposition,
    write_decomposition,
)
from vcsp_landscape.errors import ParseError
from vcsp_landscape.structure import (
    DecompositionViolation,
    decomposition_from_text,
    decomposition_to_text,
)


def test_gadget_graph_is_a_six_cycle(gadget_minus):
    g = constraint_graph(gadget_minus)
    assert g.num_vars == 6
    assert len(g.edges) == 6
    assert max_degree(g) == 2
    assert has_cycle(g)


@pytest.mark.parametrize("n,m", [(2, 2), (4, 3), (6, 6)])
def test_chain_graph_counts(n, m):
    g = constraint_graph(build_chain(n, m, "-"))
    assert g.num_vars == 6 * m
    assert len(g.edges) == 7 * m - 1
    assert max_degree(g) == 3
    assert has_cycle(g)


def test_edgeless_graph():
    g = constraint_graph(Instance(3, 0, [(0, 1)], []))
    assert len(g.edges) == 0
    assert max_degree(g) == 0
    assert not has_cycle(g)
    assert max_degree(constraint_graph(Instance(0))) == 0


def test_tree_has_no_cycle():
    inst = Instance(4, 0, [], [(0, 1, 1), (1, 2, 1), (1, 3, 1)])
    assert not has_cycle(constraint_graph(inst))


def test_single_bag_decomposition_is_valid():
    g = constraint_graph(build_gadget(1, 1, "-"))
    check = validate_path_decomposition(g, [set(range(6))])
    assert check.valid and check.width == 5


def test_uncovered_vertex_violation():
    g = constraint_graph(Instance(3, 0, [], [(0, 1, 1)]))
    check = validate_path_decomposition(g, [{0, 1}])
    assert not check.valid
    assert check.violation.kind == "uncovered-vertex"
    assert check.violation.witness == (2,)


def test_uncovered_edge_violation():
    g = constraint_graph(Instance(3, 0, [], [(0, 1, 1), (1, 2, 1)]))
    check = validate_path_decomposition(g, [{0, 1}, {2}])
    assert not check.valid
    assert check.violation.kind == "uncovered-edge"
    assert check.violation.witness == (1, 2)


def test_broken_interval_violation():
    g = constraint_graph(Instance(3, 0, [], [(0, 1, 1), (1, 2, 1)]))
    check = validate_path_decomposition(g, [{0, 1}, {2, 1}, {0}])
    assert not check.valid
    assert check.violation.kind == "broken-interval"
    v, lo, gap, hi = check.violation.witness
    assert v == 0 and (lo, gap, hi) == (0, 1, 2)


def test_unknown_vertex_violation():
    g = constraint_graph(Instance(2, 0, [], [(0, 1, 1)]))
    check = validate_path_decomposition(g, [{0, 1, 9}])
    assert not check.valid
    assert check.violation.kind == "unknown-vertex"


def test_empty_bag_list_rejected():
    g = constraint_graph(Instance(2, 0, [], [(0, 1, 1)]))
    with pytest.raises(ValueError):
        validate_path_decomposition(g, [])


def brute_check(g, bags):
    """The path-decomposition definition, checked property by property with
    a scan of every bag: unknown vertices, covered vertices, covered edges,
    contiguous runs, in that order."""
    bag_sets = [frozenset(b) for b in bags]

    def fail(kind, detail, witness):
        return DecompositionCheck(False, None, DecompositionViolation(kind, detail, witness))

    for r, bag in enumerate(bag_sets):
        for v in sorted(bag):
            if not (0 <= v < g.num_vars):
                return fail("unknown-vertex", f"bag {r} contains unknown vertex {v}", (r, v))
    for v in range(g.num_vars):
        if not any(v in bag for bag in bag_sets):
            return fail("uncovered-vertex", f"vertex {v} is in no bag", (v,))
    for i, j in g.edges:
        if not any(i in bag and j in bag for bag in bag_sets):
            return fail("uncovered-edge", f"edge {{{i},{j}}} has no common bag", (i, j))
    for v in range(g.num_vars):
        positions = [r for r, bag in enumerate(bag_sets) if v in bag]
        lo, hi = positions[0], positions[-1]
        for gap in range(lo, hi + 1):
            if v not in bag_sets[gap]:
                return fail("broken-interval",
                            f"vertex {v} is in bags {lo} and {hi} but not bag {gap}",
                            (v, lo, gap, hi))
    return DecompositionCheck(True, max(len(b) for b in bag_sets) - 1, None)


def random_decomposition(rng):
    """A random graph with a valid path decomposition: each vertex gets an
    interval of bags, and edges join only vertices whose intervals meet."""
    n, nbags = rng.randint(1, 12), rng.randint(1, 10)
    spans = []
    for _ in range(n):
        lo = rng.randrange(nbags)
        spans.append((lo, rng.randint(lo, min(nbags - 1, lo + rng.randint(0, 3)))))
    bags = [{v for v, (lo, hi) in enumerate(spans) if lo <= r <= hi} for r in range(nbags)]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if max(spans[i][0], spans[j][0]) <= min(spans[i][1], spans[j][1])
             and rng.random() < 0.5]
    return n, edges, bags, spans


def corrupt(rng, n, edges, bags, spans, kind):
    """The same graph and bags with one violation of the given kind put in
    (others may follow from it: dropping a vertex also uncovers its edges)."""
    bags = [set(b) for b in bags]
    if kind == "unknown-vertex":
        rng.choice(bags).update(rng.sample([-3, -1, n, n + 2, n + 7], rng.randint(1, 2)))
    elif kind == "uncovered-vertex":
        v = rng.randrange(n)
        for b in bags:
            b.discard(v)
    elif kind == "uncovered-edge":
        apart = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if max(spans[i][0], spans[j][0]) > min(spans[i][1], spans[j][1])]
        if apart:
            edges = sorted(set(edges) | {rng.choice(apart)})
    else:
        long = [v for v, (lo, hi) in enumerate(spans) if hi - lo >= 2]
        if long:
            v = rng.choice(long)
            lo, hi = spans[v]
            for r in rng.sample(range(lo + 1, hi), rng.randint(1, hi - lo - 1)):
                bags[r].discard(v)
    return edges, bags


def test_validate_path_decomposition_matches_the_definition():
    rng = random.Random(6)
    kinds = {None: 0, "unknown-vertex": 0, "uncovered-vertex": 0, "uncovered-edge": 0,
             "broken-interval": 0}
    for t in range(3000):
        n, edges, bags, spans = random_decomposition(rng)
        todo = rng.sample(list(kinds)[1:], rng.choice((0, 1, 1, 1, 2)))
        for kind in todo:
            edges, bags = corrupt(rng, n, edges, bags, spans, kind)
        g = ConstraintGraph(n, tuple(edges))
        want = brute_check(g, bags)
        assert validate_path_decomposition(g, bags) == want, t
        kinds[want.violation.kind if want.violation else None] += 1
    assert min(kinds.values()) >= 100, kinds


def test_validate_path_decomposition_at_scale():
    # the canonical decomposition of a 1000-gadget chain: 6,000 vertices and
    # 4,999 bags, checked in one pass over the bags
    m = 1000
    g = constraint_graph(build_chain(m, m, "-", validate=False))
    bags = canonical_decomposition(m).bags
    assert validate_path_decomposition(g, bags) == DecompositionCheck(True, 2, None)
    broken = list(bags)
    broken[2501] = broken[2501] - {3003}  # (500,4) stays in bags 2500 and 2502
    assert validate_path_decomposition(g, broken).violation == DecompositionViolation(
        "broken-interval", "vertex 3003 is in bags 2500 and 2502 but not bag 2501",
        (3003, 2500, 2501, 2502))


def test_decomposition_text_round_trip(tmp_path):
    pd = canonical_decomposition(2)
    text = decomposition_to_text(pd)
    assert decomposition_from_text(text) == pd
    path = tmp_path / "bags.txt"
    write_decomposition(pd, path)
    assert read_decomposition(path) == pd


def test_decomposition_text_comments_and_errors():
    pd = decomposition_from_text("# header\n0 1 2\n\n2 3  # tail\n")
    assert pd.bags == (frozenset({0, 1, 2}), frozenset({2, 3}))
    with pytest.raises(ParseError):
        decomposition_from_text("0 x 2\n")
    with pytest.raises(ParseError):
        decomposition_from_text("# only comments\n")


def test_path_decomposition_width():
    assert PathDecomposition((frozenset({0}), frozenset({0, 1, 2}))).width == 2


def test_export_dot_undirected(gadget_minus):
    dot = export_dot(gadget_minus)
    assert dot.startswith("graph constraint_graph {")
    assert '0 [label="(1,1)"];' in dot
    assert '0 -- 1 [label="15"];' in dot
    assert dot.rstrip().endswith("}")


def test_export_dot_oriented(gadget_minus):
    o = orient(gadget_minus)
    dot = export_dot(gadget_minus, o)
    assert dot.startswith("digraph constraint_graph {")
    # arcs follow the designed orientation: out of (1,1), into (1,6)
    assert "0 -> 1" in dot and "0 -> 3" in dot
    assert "2 -> 5" in dot and "4 -> 5" in dot
    assert "5 -> 2" not in dot
    assert "dir=none" not in dot  # every gadget edge is oriented


def test_export_dot_reversed_arc_and_undirected_edge():
    # oriented with the one arc 1 -> 0, against index order; edge {1, 2}
    # depends in neither direction, so it is drawn without an arrow
    inst = Instance(3, 0, [(0, -1), (1, 5), (2, 10)], [(0, 1, 2), (1, 2, 1)])
    o = orient(inst)
    assert o.oriented and o.arcs == ((1, 0),)
    assert export_dot(inst, o) == (
        "digraph constraint_graph {\n"
        '  0 [label="0"];\n'
        '  1 [label="1"];\n'
        '  2 [label="2"];\n'
        '  1 -> 0 [label="2"];\n'
        '  1 -> 2 [label="1", dir=none];\n'
        "}\n")


def test_export_dot_unlabeled_and_empty():
    inst = Instance(2, 0, [], [(0, 1, 4)])
    dot = export_dot(inst)
    assert '0 [label="0"];' in dot and '1 [label="1"];' in dot
    empty = export_dot(Instance(0))
    assert empty == "graph constraint_graph {\n}\n"
