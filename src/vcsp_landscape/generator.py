"""Generator for the chained-gadget family that defeats greedy local search.

The family is parameterized by 1 <= m <= n and a sign.  An instance is a path
of m six-variable cycle gadgets, labeled (k, i) for gadget k in 1..m and
position i in 1..6, with consecutive gadgets joined by one binary constraint
on {(k,6), (k-1,1)}.  Weights follow a doubling schedule

    M_k = 6*(2^k - 2),   S = 2n + 1,   s_k = n + 1 - k,

arranged so that the instance is oriented, has a single fitness peak, and the
steepest ascent between the all-zeros assignment and the '+' peak takes
exactly 7*(2^m - 1) steps, every one of them gaining at least s_m.  The '+'
and '-' variants differ only in the unary weight on the top variable (m, 1).

The resulting constraint graph has 6m vertices, 7m - 1 edges, maximum degree
3 (2 when m = 1), and admits a width-2 path decomposition.

Variable (k, i) gets dense index 6*(m - k) + (i - 1), so assignment strings
(top gadget leftmost) coincide with dense index order.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .core import Bits, Instance, _gradient_table
from .errors import RangeError, SelfValidationError
from .structure import PathDecomposition

Scope = tuple  # ((k,i),) for unaries, ((k,i),(k,j)) for binaries
SIGNS = ("+", "-")

# scopes of the six in-gadget binaries, by position pairs
GADGET_EDGES = ((1, 2), (2, 3), (3, 6), (1, 4), (4, 5), (5, 6))


def _check_sign(sign: str) -> None:
    if sign not in SIGNS:
        raise RangeError(f"sign must be '+' or '-', got {sign!r}")


def derived_params(n: int, k: int) -> tuple[int, int, int]:
    """The weight-schedule parameters (M_k, S, s_k) for gadget k of n."""
    if not (1 <= k <= n):
        raise RangeError(f"need 1 <= k <= n, got k={k}, n={n}")
    return 6 * (2 ** k - 2), 2 * n + 1, n + 1 - k


def gadget_constraints(n: int, k: int, sign: str, is_top: bool) -> list[tuple[Scope, int]]:
    """All constraints owned by gadget k: six unaries, six in-gadget binaries,
    and (for k >= 2) the link binary down to gadget k-1.

    The '+' variant is only defined for the top gadget; it replaces the unary
    on (k, 1) with +S, which equals the '-' weight plus the weight of the
    (absent) upward link binary.
    """
    _check_sign(sign)
    if sign == "+" and not is_top:
        raise RangeError("sign '+' applies only to the top gadget")
    M, S, s = derived_params(n, k)
    unary = {
        1: S if sign == "+" else -(2 * (M + 5) + 1) * S,
        2: -(M + 4) * S - s,
        3: -(M + 3) * S,
        4: -(M + 5) * S,
        5: -S,
        6: -(M + 1) * S,
    }
    binary = {
        (1, 2): (M + 5) * S,
        (2, 3): (M + 4) * S,
        (3, 6): (M + 2) * S,
        (1, 4): (M + 5) * S + s,
        (4, 5): (M + 4) * S,
        (5, 6): -(M + 2) * S,
    }
    out: list[tuple[Scope, int]] = []
    for i in range(1, 7):
        out.append((((k, i),), unary[i]))
    for i, j in GADGET_EDGES:
        out.append((((k, i), (k, j)), binary[(i, j)]))
    if k >= 2:
        out.append((((k, 6), (k - 1, 1)), M * S))
    return out


def chain_labels(m: int) -> dict[int, tuple[int, int]]:
    """Dense index -> (k, i) label map for an m-gadget chain."""
    return {6 * (m - k) + (i - 1): (k, i) for k in range(1, m + 1) for i in range(1, 7)}


def _dense(m: int, k: int, i: int) -> int:
    return 6 * (m - k) + (i - 1)


def build_chain(n: int, m: int, sign: str, validate: bool = True) -> Instance:
    """The m-gadget chain instance on 6m variables.

    The top gadget (k = m) carries the sign; all others use the '-' weights.
    With validate (the default) the generated weights are re-checked against
    the schedule's structural guarantees, which protects every downstream
    experiment from a silently corrupted weight.
    """
    _check_sign(sign)
    if not (1 <= m <= n):
        raise RangeError(f"need 1 <= m <= n, got m={m}, n={n}")
    unaries: list[tuple[int, int]] = []
    binaries: list[tuple[int, int, int]] = []
    for k in range(m, 0, -1):
        for scope, w in gadget_constraints(n, k, sign if k == m else "-", k == m):
            # dense indices, as _dense computes them
            if len(scope) == 1:
                (kk, ii), = scope
                unaries.append((6 * (m - kk) + ii - 1, w))
            else:
                (ka, ia), (kb, ib) = scope
                binaries.append((6 * (m - ka) + ia - 1, 6 * (m - kb) + ib - 1, w))
    inst = Instance(6 * m, 0, unaries, binaries, chain_labels(m))
    if validate:
        validate_chain(inst, n, m, sign)
    return inst


def build_gadget(n: int, k: int, sign: str) -> Instance:
    """A standalone six-variable gadget, without either link binary, its
    weights checked as build_chain's are.

    Variables are labeled (k, 1)..(k, 6) at dense indices 0..5.
    """
    _check_sign(sign)
    M, S, s = derived_params(n, k)
    unaries = []
    binaries = []
    for scope, w in gadget_constraints(n, k, sign, True):
        if len(scope) == 1:
            unaries.append((scope[0][1] - 1, w))
        elif scope[0][0] == k and scope[1][0] == k:
            binaries.append((scope[0][1] - 1, scope[1][1] - 1, w))
        # the downward link (k >= 2) is dropped: a lone gadget has no neighbor
    inst = Instance(6, 0, unaries, binaries, {i - 1: (k, i) for i in range(1, 7)})
    _validate_weights(inst, n, sign, top_label=(k, 1), gadget_of=lambda v: k)
    return inst


def expected_peak(n: int, m: int, sign: str) -> Bits:
    """The unique fitness peak: all zeros for '-', the top gadget at 111110
    (with everything below zero) for '+'."""
    _check_sign(sign)
    if not (1 <= m <= n):
        raise RangeError(f"need 1 <= m <= n, got m={m}, n={n}")
    if sign == "-":
        return (0,) * (6 * m)
    return (1, 1, 1, 1, 1, 0) + (0,) * (6 * (m - 1))


def predicted_ascent_length(m: int) -> int:
    """Steepest-ascent step count between the two peaks: 7*(2^m - 1).

    This is the closed form of the recurrence T_1 = 7, T_m = 7 + 2*T_{m-1}
    driven by the double flip of each gadget's linking variable (k, 6).
    """
    if m < 1:
        raise RangeError(f"need m >= 1, got m={m}")
    return 7 * (2 ** m - 1)


def expected_arcs(m: int) -> set[tuple[int, int]]:
    """The sign-dependence arcs (as dense index pairs) that the weight
    schedule is designed to induce; used by self-tests and `vcsp verify`."""
    if m < 1:
        raise RangeError(f"need m >= 1, got m={m}")
    arcs = set()
    for k in range(1, m + 1):
        for i, j in GADGET_EDGES:
            arcs.add((_dense(m, k, i), _dense(m, k, j)))
        if k >= 2:
            arcs.add((_dense(m, k, 6), _dense(m, k - 1, 1)))
    return arcs


def canonical_decomposition(m: int) -> PathDecomposition:
    """A width-2 path decomposition of the m-gadget chain.

    Per gadget (top first): {(k,1),(k,2),(k,4)}, {(k,2),(k,3),(k,4)},
    {(k,3),(k,4),(k,5)}, {(k,3),(k,5),(k,6)}, then the connector bag
    {(k,6),(k-1,1)} for every non-bottom gadget.
    """
    if m < 1:
        raise RangeError(f"need m >= 1, got m={m}")
    bags = []
    for k in range(m, 0, -1):
        for group in ((1, 2, 4), (2, 3, 4), (3, 4, 5), (3, 5, 6)):
            bags.append(frozenset(_dense(m, k, i) for i in group))
        if k >= 2:
            bags.append(frozenset({_dense(m, k, 6), _dense(m, k - 1, 1)}))
    return PathDecomposition(tuple(bags))


# ---------------------------------------------------------------------------
# Self-validation of generated weights.
# ---------------------------------------------------------------------------

def validate_chain(inst: Instance, n: int, m: int, sign: str) -> None:
    """Re-check a generated chain against the weight schedule's guarantees.

    Raises SelfValidationError if any check fails.  Checks, per variable:

      * every unary is negative (except the top (m,1) under '+', which must
        equal S exactly);
      * the unary's magnitude exceeds the summed weight of the variable's
        outgoing binaries (those toward larger dense index), so no variable
        wants to be 1 for its downstream alone;
      * every nonempty subset of incoming binary weights sums to <= 0 or to
        more than the unary magnitude plus any negative outgoing weight, so
        upstream pressure, when positive, always wins;
      * over every assignment to a variable's neighborhood the gradient is
        nonzero and its magnitude is either exactly s_k or at least S - s_k
        (the small-step / large-step dichotomy for the variable's gadget k).
    """
    _check_sign(sign)
    if len(inst.unaries) != 6 * m or len(inst.binaries) != 7 * m - 1:
        raise SelfValidationError(
            f"expected {6*m} unaries and {7*m-1} binaries, "
            f"got {len(inst.unaries)} and {len(inst.binaries)}")
    _validate_weights(inst, n, sign, top_label=(m, 1),
                      gadget_of=lambda v: inst.labels[v][0])


def _validate_weights(inst: Instance, n: int, sign: str, top_label, gadget_of) -> None:
    S = 2 * n + 1
    top = inst.index_of(top_label)
    unaries = inst.unaries
    for v, nbrs in enumerate(inst.neighbors):
        u = unaries.get(v, 0)
        is_plus_top = sign == "+" and v == top
        if is_plus_top:
            if u != S:
                raise SelfValidationError(f"unary on {inst.labels[v]} must be {S}, got {u}")
        elif u >= 0:
            raise SelfValidationError(f"unary on {inst.labels[v]} must be negative, got {u}")

        # one pass over the neighbours: binaries toward larger dense index are
        # outgoing, the others incoming
        outgoing = negative_outgoing = 0
        incoming = []
        for j, w in nbrs:
            if j > v:
                outgoing += w
                if w < 0:
                    negative_outgoing -= w
            else:
                incoming.append(w)
        if not is_plus_top and abs(u) <= outgoing:
            raise SelfValidationError(
                f"unary magnitude on {inst.labels[v]} does not dominate its outgoing binaries")
        slack = abs(u) + negative_outgoing
        for r in range(1, len(incoming) + 1):
            for sub in combinations(incoming, r):
                t = sum(sub)
                if t > 0 and t <= slack:
                    raise SelfValidationError(
                        f"incoming binaries {sub} on {inst.labels[v]} fall in the "
                        f"dominance gap (0, {slack}]")

        k = gadget_of(v)
        s_k = n + 1 - k
        for g in _gradient_table(inst, v):
            if g == 0:
                raise SelfValidationError(
                    f"zero gradient on {inst.labels[v]} for some neighborhood assignment")
            if abs(g) != s_k and abs(g) < S - s_k:
                raise SelfValidationError(
                    f"gradient magnitude {abs(g)} on {inst.labels[v]} is neither the "
                    f"small step {s_k} nor >= the large-step floor {S - s_k}")
