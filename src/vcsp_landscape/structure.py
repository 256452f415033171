"""Constraint-graph structure: degrees, cycles, path decompositions, DOT export.

The constraint graph of an instance has the variables as vertices and the
scopes of the binary constraints as edges.  Pathwidth itself is not computed
(it is hard in general); instead this module validates width witnesses: a
path decomposition certifies an upper bound, and any cycle certifies a lower
bound of 2.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Instance, _ints, _lines
from .errors import InvalidArgumentError, ParseError


@dataclass(frozen=True)
class ConstraintGraph:
    num_vars: int
    edges: tuple[tuple[int, int], ...]  # sorted pairs, no duplicates


def constraint_graph(inst: Instance) -> ConstraintGraph:
    return ConstraintGraph(inst.num_vars, tuple(sorted(inst.binaries)))


def max_degree(g: ConstraintGraph) -> int:
    deg = [0] * g.num_vars
    for i, j in g.edges:
        deg[i] += 1
        deg[j] += 1
    return max(deg, default=0)


def has_cycle(g: ConstraintGraph) -> bool:
    """True iff the graph contains a cycle (union-find over edges)."""
    parent = list(range(g.num_vars))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in g.edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            return True
        parent[ri] = rj
    return False


@dataclass(frozen=True)
class PathDecomposition:
    """An ordered sequence of vertex bags."""
    bags: tuple[frozenset[int], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


@dataclass(frozen=True)
class DecompositionViolation:
    kind: str       # "unknown-vertex" | "uncovered-vertex" | "uncovered-edge" | "broken-interval"
    detail: str
    witness: tuple


@dataclass(frozen=True)
class DecompositionCheck:
    valid: bool
    width: int | None
    violation: DecompositionViolation | None


def validate_path_decomposition(
    g: ConstraintGraph, bags: Sequence[Iterable[int]]
) -> DecompositionCheck:
    """Check the three path-decomposition properties against g.

    Returns the width when every vertex is covered, every edge has a bag
    containing both endpoints, and each vertex's bags form a contiguous run.
    Otherwise returns the first violated property with a concrete witness.
    Violations are reported as values, never raised.

    One pass over the bags lists each vertex's bag positions; an edge is
    covered unless the sets of its endpoints' positions are disjoint.
    """
    if not bags:
        raise InvalidArgumentError("bags must be nonempty")
    bag_sets = [frozenset(b) for b in bags]

    def fail(kind, detail, witness):
        return DecompositionCheck(False, None, DecompositionViolation(kind, detail, witness))

    n = g.num_vars
    positions: list[list[int]] = [[] for _ in range(n)]
    for r, bag in enumerate(bag_sets):
        for v in bag:
            if not (0 <= v < n):
                bad = min(u for u in bag if not (0 <= u < n))
                return fail("unknown-vertex", f"bag {r} contains unknown vertex {bad}", (r, bad))
            positions[v].append(r)

    for v in range(n):
        if not positions[v]:
            return fail("uncovered-vertex", f"vertex {v} is in no bag", (v,))

    sets = [set(pos) for pos in positions]
    for i, j in g.edges:
        if sets[i].isdisjoint(sets[j]):
            return fail("uncovered-edge", f"edge {{{i},{j}}} has no common bag", (i, j))

    for v in range(n):
        pos = positions[v]
        lo, hi = pos[0], pos[-1]
        if hi - lo + 1 != len(pos):
            gap = next(lo + k for k, r in enumerate(pos) if r != lo + k)
            return fail("broken-interval",
                        f"vertex {v} is in bags {lo} and {hi} but not bag {gap}",
                        (v, lo, gap, hi))

    width = max(len(b) for b in bag_sets) - 1
    return DecompositionCheck(True, width, None)


# --- bag file format: one bag per line, space-separated indices, '#' comments

def decomposition_to_text(pd: PathDecomposition) -> str:
    return "\n".join(" ".join(str(v) for v in sorted(bag)) for bag in pd.bags) + "\n"


def decomposition_from_text(text: str) -> PathDecomposition:
    bags = []
    for lineno, line in _lines(text):
        try:
            bags.append(frozenset(_ints(line.split())))
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer vertex in {line!r}") from None
    if not bags:
        raise ParseError("no bags found")
    return PathDecomposition(tuple(bags))


def write_decomposition(pd: PathDecomposition, path) -> None:
    with open(path, "w") as fh:
        fh.write(decomposition_to_text(pd))


def read_decomposition(path) -> PathDecomposition:
    with open(path) as fh:
        return decomposition_from_text(fh.read())


def export_dot(inst: Instance, orientation=None) -> str:
    """DOT text for the constraint graph.

    Vertices are labeled "(k,i)" when the instance is labeled, and edge labels
    carry the binary weights.  With an oriented Orientation, edges are drawn
    as arcs in their sign-dependence direction (edges with no dependence in
    either direction stay undirected).
    """
    directed = orientation is not None and orientation.oriented
    arcs = set(orientation.arcs) if directed else set()
    lines = ["digraph constraint_graph {" if directed else "graph constraint_graph {"]
    for v in range(inst.num_vars):
        lab = inst.labels.get(v)
        name = f"({lab[0]},{lab[1]})" if lab else str(v)
        lines.append(f'  {v} [label="{name}"];')
    connector = "->" if directed else "--"
    for (i, j) in sorted(inst.binaries):
        w = inst.binaries[(i, j)]
        if not directed:
            lines.append(f'  {i} {connector} {j} [label="{w}"];')
        elif (i, j) in arcs:
            lines.append(f'  {i} -> {j} [label="{w}"];')
        elif (j, i) in arcs:
            lines.append(f'  {j} -> {i} [label="{w}"];')
        else:
            lines.append(f'  {i} -> {j} [label="{w}", dir=none];')
    lines.append("}")
    return "\n".join(lines) + "\n"
