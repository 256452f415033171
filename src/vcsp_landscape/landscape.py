"""Landscape analysis: sign dependence, orientation, peaks, and brute force.

Sign comparisons are three-valued: 0 is its own sign, distinct from + and -.
A gradient that hits 0 therefore differs in sign from both a positive and a
negative one.  Generated instances never produce a 0 gradient (their
self-validation asserts it), but arbitrary instances may.

The brute-force oracles (peak enumeration, semismoothness, ascent graphs) are
exponential by nature and guarded by size caps; they exist to certify the
polynomial-time paths on small instances.  The ascent-graph search,
orient's sign-dependence analysis and the semismoothness count also run on
the native kernel, where the instance's weights fit its int64 width (see
ascent_graph, orient and check_semismooth); the first call on an instance
then builds its kernel arrays.
"""
from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, islice, product
from operator import eq, itemgetter
from typing import Sequence

from .core import Bits, Instance, _neighborhood
from .search import _ascent_graph64, _orient64, _semismooth64
from .errors import (
    CyclicOrientationError,
    InvalidArgumentError,
    NotOrientedError,
    TooLargeError,
    UnreachableError,
    ZeroGradientError,
)

PEAKS_CAP = 24
SEMISMOOTH_CAP = 12
# check_semismooth refuses more variables than this at any cap: its tables
# hold 2^d entries (about 200 MB on the kernel at 24, and many times that in
# Python), and the kernel counts them in uint32
_SEMISMOOTH_VARS = 24
ASCENT_GRAPH_CAP = 1 << 18


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _bits(x: int, d: int) -> Bits:
    return tuple(x >> v & 1 for v in range(d))


@dataclass(frozen=True)
class SignDependence:
    """Witness that flipping `source` can change the gradient sign of `target`.

    The witness maps every neighbor of target (source included) to a bit;
    sign_at is the gradient sign there and sign_flipped the sign after
    flipping source.
    """
    target: int
    source: int
    witness: dict[int, int]
    sign_at: int
    sign_flipped: int


def sign_depends(inst: Instance, i: int, j: int) -> SignDependence | None:
    """First witness (in neighborhood enumeration order) that i sign-depends
    on j, or None if no background assignment produces one.

    Only assignments to i's neighborhood are enumerated (at most 2^deg(i),
    never the full hypercube); the gradient of i depends on nothing else.
    Raises TooLargeError when i has more than core.TABLE_DEGREE_CAP neighbors.
    """
    if i == j:
        raise InvalidArgumentError("sign dependence needs two distinct variables")
    inst._check_index(i)
    inst._check_index(j)
    weights = dict(_neighborhood(inst, i))
    w = weights.get(j)
    if w is None:
        return None
    for bits in product((0, 1), repeat=len(weights)):
        witness = dict(zip(weights, bits))
        g = inst._gradient(i, witness)
        sa, sf = _sign(g), _sign(g - w if witness[j] else g + w)  # sf: j flipped
        if sa != sf:
            return SignDependence(i, j, witness, sa, sf)
    return None


@dataclass(frozen=True)
class Orientation:
    """Result of sign-dependence analysis over all constraint-graph edges.

    When oriented, arcs holds one directed edge (i, j) for every edge where j
    sign-depends on i (edges with no dependence either way carry no arc) and
    topo_order is a topological order of all variables consistent with the
    arcs, ties broken by index.  When not oriented, conflict names an edge
    whose endpoints sign-depend on each other, with both witnesses.
    """
    oriented: bool
    arcs: tuple[tuple[int, int], ...] = ()
    topo_order: tuple[int, ...] = ()
    conflict: tuple[int, int] | None = None
    conflict_witnesses: tuple[SignDependence, SignDependence] | None = None


def orient(inst: Instance) -> Orientation:
    """Sign-dependence analysis of every edge, in sorted edge order, then
    the arcs' topological order.

    The kernel builds each variable's 2^degree gradient table once, in
    O(sum of degree * 2^degree); the loop asks sign_depends both ways on
    each edge.  sign_depends gives the witnesses of the first two-way edge.
    Raises TooLargeError where a variable has more than
    core.TABLE_DEGREE_CAP neighbors (read at call time).

    _orient_loop is the reference.  Where the instance is on the native
    kernel's int64 width and no degree is above that cap, the same analysis
    runs in C (search._orient64) and gives the same arcs and conflict.  The
    loop runs for weights at or past 2^62, above the cap (where it raises)
    and where there is no kernel.  On int64 weights, the first call builds
    the kernel if it is not built yet, and the instance's kernel arrays
    (Instance._native), as the first ascent does.  Either way, _topo_order
    orders the arcs.
    """
    native = _orient64(inst)
    arcs, conflict = native if native else _orient_loop(inst)
    if conflict:
        i, j = conflict
        return Orientation(False, conflict=conflict,
                           conflict_witnesses=(sign_depends(inst, i, j),
                                               sign_depends(inst, j, i)))
    topo = _topo_order(inst.num_vars, arcs)
    if len(topo) != inst.num_vars:
        # one-directional sign dependence cannot produce a directed cycle
        raise CyclicOrientationError("sign-dependence arcs form a directed cycle")
    return Orientation(True, arcs, topo)


def _orient_loop(inst: Instance) -> tuple[tuple[tuple[int, int], ...],
                                          tuple[int, int] | None]:
    """orient's sign-dependence analysis in Python: (arcs, conflict), as
    search._orient64 returns it.  Each edge asks sign_depends both ways,
    after every degree is checked against the cap in index order.
    """
    for v in range(inst.num_vars):
        _neighborhood(inst, v)  # raises above the cap
    arcs: list[tuple[int, int]] = []
    for (i, j) in sorted(inst.binaries):
        j_on_i = sign_depends(inst, j, i) is not None
        i_on_j = sign_depends(inst, i, j) is not None
        if j_on_i and i_on_j:
            return (), (i, j)
        if j_on_i:
            arcs.append((i, j))
        elif i_on_j:
            arcs.append((j, i))
    return tuple(arcs), None


def _topo_order(d: int, arcs: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """Kahn's topological order of the variables range(d) under arcs, the
    lowest ready index first; shorter than d exactly where the arcs form a
    cycle.  Where every arc goes up in index, as on every generated chain,
    that order is index order, with no heap."""
    if all(a < b for a, b in arcs):
        return tuple(range(d))
    out: list[list[int]] = [[] for _ in range(d)]
    indeg = [0] * d
    for a, b in arcs:
        out[a].append(b)
        indeg[b] += 1
    ready = [v for v in range(d) if indeg[v] == 0]
    heapq.heapify(ready)
    topo: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        topo.append(v)
        for u in out[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                heapq.heappush(ready, u)
    return tuple(topo)


def is_local_peak(inst: Instance, x: Sequence[int]) -> bool:
    return not inst.improving_moves(x)


def peak_of_oriented(inst: Instance, orientation: Orientation | None = None) -> Bits:
    """The unique peak of an oriented instance, in polynomial time.

    Walks the topological order fixing each variable to its preferred value;
    by orientation, that preference cannot depend on the variables not yet
    fixed.  Raises ZeroGradientError if a gradient is 0 at fixing time, since
    no preferred value is defined then.
    """
    if orientation is None:
        orientation = orient(inst)
    if not orientation.oriented:
        raise NotOrientedError("instance is not oriented")
    x = [0] * inst.num_vars
    for v in orientation.topo_order:
        g = inst._gradient(v, x)
        if g == 0:
            raise ZeroGradientError(f"variable {v} has gradient 0 at fixing time")
        x[v] = 1 if g > 0 else 0
    return tuple(x)


def enumerate_peaks(inst: Instance, cap: int = PEAKS_CAP) -> list[Bits]:
    """All local peaks, sorted by fitness descending (ties by assignment).
    Requires num_vars <= cap.

    An exact depth-first search assigns the variables in index order, 0
    before 1, so its leaves come in assignment order.  Each variable keeps the
    range [lo, hi] its gradient can still reach: its unary plus the weights of
    the neighbors assigned 1, plus the negative (for lo) or positive (for hi)
    weights of the neighbors not yet assigned.  Assigning a neighbor only
    narrows the range.  A peak needs g >= 0 where x_v = 1 and g <= 0 where
    x_v = 0, so a branch is cut as soon as an assigned variable's range rules
    that out; at a leaf every range is one value, so the leaves are exactly
    the local peaks.  The loop is iterative and keeps O(num_vars) state
    besides the peaks found.

    The search also carries the fitness of the assigned variables: x_v = 1
    adds v's unary plus its weights to the earlier neighbors assigned 1, which
    is lo[v] less its negative weights to the later neighbors.
    """
    d = inst.num_vars
    if d > cap:
        raise TooLargeError(f"{d} variables exceeds the enumeration cap {cap}")
    pos = [[(j, w) for j, w in nbrs if w > 0] for nbrs in inst.neighbors]
    neg = [[(j, -w) for j, w in nbrs if w < 0] for nbrs in inst.neighbors]
    earlier = [[j for j, _ in nbrs if j < v] for v, nbrs in enumerate(inst.neighbors)]
    lo = [inst.unaries.get(v, 0) - sum(a for _, a in neg[v]) for v in range(d)]
    hi = [inst.unaries.get(v, 0) + sum(a for _, a in pos[v]) for v in range(d)]
    later_neg = [sum(a for j, a in neg[v] if j > v) for v in range(d)]
    x = [0] * d
    f = inst.constant
    found: list[tuple[int, Bits]] = []
    # v is the variable to assign and b the value to try next.  b = 2 means
    # no value is left at v: both were tried, or the assignment just made to
    # v - 1 already rules out a peak.  Then the search backs up.
    v, b = 0, 0
    while True:
        if v < d and b < 2:
            if hi[v] >= 0 if b else lo[v] <= 0:
                x[v] = b
                if b:
                    f += lo[v] + later_neg[v]
                # x_v = b settles its weight in each neighbor's range
                for j, a in pos[v] if b else neg[v]:
                    lo[j] += a
                for j, a in neg[v] if b else pos[v]:
                    hi[j] -= a
                b = 0
                for j in earlier[v]:
                    if hi[j] < 0 if x[j] else lo[j] > 0:
                        b = 2
                        break
                v += 1
            else:
                b += 1
            continue
        if b == 0:  # v == d, reached with every check passed
            found.append((f, tuple(x)))
        v -= 1
        if v < 0:
            break
        b = x[v]
        if b:
            f -= lo[v] + later_neg[v]
        for j, a in pos[v] if b else neg[v]:
            lo[j] -= a
        for j, a in neg[v] if b else pos[v]:
            hi[j] += a
        b += 1
    # stable, so ties keep the leaves' assignment order
    found.sort(key=itemgetter(0), reverse=True)
    return [p for _, p in found]


@dataclass(frozen=True)
class FaceViolation:
    """A hypercube face (free variables + fixed background) with != 1 peak."""
    free_vars: tuple[int, ...]
    fixed: dict[int, int]
    peaks: tuple[Bits, ...]  # full assignments, face-local peaks


@dataclass(frozen=True)
class SemismoothResult:
    semismooth: bool
    violation: FaceViolation | None = None


def check_semismooth(inst: Instance, cap: int = SEMISMOOTH_CAP) -> SemismoothResult:
    """Check that every face of the hypercube has exactly one face-local peak.

    Assignments are int masks, bit v = x_v.  A face is a set F of free
    variables with the others fixed to a background.  up[x] is the set of
    variables v with f(x) >= f(x ^ 1<<v).  Three facts make the check:
    x is a peak of the face with free set F and background x & ~F exactly
    when F is a subset of up[x]; every face has at least one peak, its
    maximum; so each of the 2^(d - |F|) faces with free set F has exactly
    one peak exactly when cnt[F], the number of x with F a subset of up[x],
    is 2^(d - |F|).  The violation reported is on the first failing F in
    ascending mask order, at the background whose fixed bits, in variable
    order, come first among those with two or more peaks; its peaks are
    sorted.

    Raises TooLargeError above cap variables, and above 24 at any cap,
    before any table of 2^d entries is built.

    _superset_sum, the reference, counts cnt for every F at once, in d
    passes over 2^d entries, and finds the violation.  Where the instance
    is on the native kernel's int64 width, the same count runs in C first
    (search._semismooth64) and only decides: when every F passes, the
    result is SemismoothResult(True) with no table in Python.  The
    reference runs after a fail, for weights at or past 2^62 and where
    there is no kernel, so every violation comes from it.  On an instance
    of int64 weights, the first call builds the kernel if it is not built
    yet, and the instance's kernel arrays (Instance._native), as the first
    ascent does.
    """
    d = inst.num_vars
    if d > cap:
        raise TooLargeError(f"{d} variables exceeds the semismoothness cap {cap}")
    if d > _SEMISMOOTH_VARS:
        raise TooLargeError(f"{d} variables exceeds {_SEMISMOOTH_VARS}, the most that "
                            "check_semismooth takes at any cap")
    if _semismooth64(inst):
        return SemismoothResult(True)
    bad = _superset_sum(inst)
    if bad is None:
        return SemismoothResult(True)
    free, peaks = bad
    faces: dict[int, list[int]] = {}
    for x in peaks:
        faces.setdefault(x & ~free, []).append(x)
    background = min((b for b, xs in faces.items() if len(xs) > 1),
                     key=lambda b: _bits(b, d))
    fixed = {v: background >> v & 1 for v in range(d) if not free >> v & 1}
    peaks = tuple(sorted(_bits(x, d) for x in faces[background]))
    return SemismoothResult(False, FaceViolation(
        tuple(v for v in range(d) if free >> v & 1), fixed, peaks))


def _superset_sum(inst: Instance) -> tuple[int, list[int]] | None:
    """check_semismooth's count by a superset sum: the first failing free
    set F and, in ascending order, every x with F a subset of up[x] (the
    peaks of F's faces); None where no F fails."""
    d = inst.num_vars
    n = 1 << d
    fit = [inst.constant]  # fit[x], doubled one variable at a time
    for v in range(d):
        base = inst.unaries.get(v, 0)
        earlier = [(1 << j, w) for j, w in inst.neighbors[v] if j < v]
        fit += [fx + base + sum(w for bit, w in earlier if x & bit)
                for x, fx in enumerate(fit)]
    up = [0] * n
    for v in range(d):
        bit = 1 << v
        up = [u | bit if fx >= fit[x ^ bit] else u
              for x, (u, fx) in enumerate(zip(up, fit))]
    cnt = [0] * n
    for u in up:
        cnt[u] += 1
    for v in range(d):
        bit = 1 << v
        for s in range(n):
            if not s & bit:
                cnt[s] += cnt[s | bit]
    free = next((s for s in range(1, n) if cnt[s] != 1 << (d - s.bit_count())), None)
    if free is None:
        return None
    return free, [x for x, u in enumerate(up) if u & free == free]


@dataclass(frozen=True)
class AscentGraph:
    """All assignments reachable from start by improving flips.

    Every edge strictly increases fitness, so the graph is acyclic; sinks are
    the reachable local peaks.  Nodes are int masks (bit i is x_i) in
    breadth-first discovery order, node 0 the start, with their fitness
    alongside.  The edges are stored as compressed rows: node k's out-edges
    are the target node indices edges[offsets[k]:offsets[k + 1]], in
    ascending flipped variable.  An edge a -> b flips variable
    (nodes[a] ^ nodes[b]).bit_length() - 1 and gains fitness[b] - fitness[a].

    The reference loop gives nodes, fitness, offsets and edges as tuples,
    the kernel as search.PackedInts that read as those tuples (see there),
    so a graph from either path equals and hashes as the other.
    """
    start: Bits
    nodes: Sequence[int]
    fitness: Sequence[int]
    offsets: Sequence[int]
    edges: Sequence[int]
    sinks: tuple[Bits, ...]


def ascent_graph(inst: Instance, start: Sequence[int], cap: int = ASCENT_GRAPH_CAP) -> AscentGraph:
    """Breadth-first search over every improving flip from start.

    A node's out-edges are inst.improving_moves at it, in ascending
    variable order.  Raises TooLargeError once more than cap nodes are
    reached.

    That loop is the reference.  Where the instance is on the native
    kernel's int64 width, has at most 64 variables and cap is an int, the
    same search runs in C over uint64 masks (search._ascent_graph64) and
    gives the same graph, or the same error.  The loop runs for more than
    64 variables, for weights at or past 2^62 and where there is no kernel.
    On an instance of at most 64 variables and int64 weights, the first
    call builds the kernel if it is not built yet, and the instance's
    kernel arrays (Instance._native), as the first ascent does.
    """
    start = tuple(inst.check_assignment(start))
    f0 = inst.fitness(start)
    d = inst.num_vars
    mask = sum(1 << v for v in range(d) if start[v])
    native = _ascent_graph64(inst, mask, f0, cap)
    if native:
        nodes, fitness, offsets, edges, peaks = native
    else:
        index = {mask: 0}
        nodes, fitness, offsets, edges = list(index), [f0], [0], []
        for x, fx in zip(nodes, fitness):  # both lists grow as nodes are found
            for v, gain in inst.improving_moves(_bits(x, d)):
                y = x ^ 1 << v
                b = index.get(y)
                if b is None:
                    b = len(nodes)
                    if b >= cap:
                        raise TooLargeError(f"ascent graph exceeds the node cap {cap}")
                    index[y] = b
                    nodes.append(y)
                    fitness.append(fx + gain)
                edges.append(b)
            offsets.append(len(edges))
        nodes, fitness, offsets, edges = map(tuple, (nodes, fitness, offsets, edges))
        peaks = compress(nodes, map(eq, offsets, islice(offsets, 1, None)))
    sinks = sorted(_bits(x, d) for x in peaks)
    return AscentGraph(start, nodes, fitness, offsets, edges, tuple(sinks))


def shortest_ascent_length(graph: AscentGraph, target: Sequence[int]) -> int:
    """Length of the shortest improving path from the graph's start to target.

    The edges come in breadth-first order of their sources, so the first edge
    into a node comes from the node that found it, one level nearer the start
    and of a smaller index; following first in-edges back to node 0 counts
    the levels.
    """
    target = tuple(target)
    if len(target) != len(graph.start) or any(b not in (0, 1) for b in target):
        raise UnreachableError("target is not reachable from the start")
    mask = sum(1 << v for v, b in enumerate(target) if b)
    nodes, offsets, edges = graph.nodes, graph.offsets, graph.edges
    try:
        k = nodes.index(mask)
    except ValueError:
        raise UnreachableError("target is not reachable from the start") from None
    length = 0
    while k:
        k = bisect_right(offsets, edges.index(k), 0, k) - 1
        length += 1
    return length
