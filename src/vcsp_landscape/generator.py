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
(top gadget leftmost) coincide with dense index order.  Every weight is
written in _gadget_weights, and every instance is built by _build.
"""
from __future__ import annotations

import operator
from itertools import combinations

from . import search
from .core import Bits, Instance, _gradient_table
from .errors import IndexOutOfRangeError, InvalidArgumentError, RangeError, SelfValidationError
from .structure import PathDecomposition

Scope = tuple  # ((k,i),) for unaries, ((k,i),(k,j)) for binaries
SIGNS = ("+", "-")

# scopes of the six in-gadget binaries, by position pairs
GADGET_EDGES = ((1, 2), (2, 3), (3, 6), (1, 4), (4, 5), (5, 6))


def _check_sign(sign: str) -> None:
    if sign not in SIGNS:
        raise RangeError(f"sign must be '+' or '-', got {sign!r}")


def _integer(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}") from None


def _params(n, m, name: str = "m") -> tuple[int | None, int]:
    """The one check of the generator's parameters: n and m (called name in
    errors) as ints with 1 <= m <= n, or only m >= 1 where n is None.  Bools
    and numpy integers are ints; anything else raises InvalidArgumentError."""
    n = None if n is None else _integer("n", n)
    m = _integer(name, m)
    if n is None and m < 1:
        raise RangeError(f"need {name} >= 1, got {name}={m}")
    if n is not None and not 1 <= m <= n:
        raise RangeError(f"need 1 <= {name} <= n, got {name}={m}, n={n}")
    return n, m


def derived_params(n: int, k: int) -> tuple[int, int, int]:
    """The weight-schedule parameters (M_k, S, s_k) for gadget k of n."""
    n, k = _params(n, k, "k")
    return 6 * (2 ** k - 2), 2 * n + 1, n + 1 - k


def _gadget_weights(n: int, k: int, sign: str) -> tuple[list[int], list[int], int]:
    """Gadget k's six unaries by position, six binaries in GADGET_EDGES order
    and link weight M_k*S down to gadget k-1.  '+' (sign checked by the
    caller) makes the unary on (k, 1) +S: the '-' weight plus the weight of
    the (absent) upward link binary."""
    M, S, s = derived_params(n, k)
    # unaries on (k, 1)..(k, 6); binaries on (1,2) (2,3) (3,6), (1,4) (4,5) (5,6)
    unaries = [S if sign == "+" else -(2 * (M + 5) + 1) * S, -(M + 4) * S - s,
               -(M + 3) * S, -(M + 5) * S, -S, -(M + 1) * S]
    binaries = [(M + 5) * S, (M + 4) * S, (M + 2) * S,
                (M + 5) * S + s, (M + 4) * S, -(M + 2) * S]
    return unaries, binaries, M * S


def gadget_constraints(n: int, k: int, sign: str, is_top: bool) -> list[tuple[Scope, int]]:
    """All constraints owned by gadget k, with labelled scopes: six unaries,
    six in-gadget binaries, and (for k >= 2) the link binary down to gadget
    k-1.  The '+' variant is only defined for the top gadget."""
    _check_sign(sign)
    if sign == "+" and not is_top:
        raise RangeError("sign '+' applies only to the top gadget")
    n, k = _params(n, k, "k")
    unaries, binaries, link = _gadget_weights(n, k, sign)
    return ([(((k, i),), w) for i, w in enumerate(unaries, 1)]
            + [(((k, i), (k, j)), w) for (i, j), w in zip(GADGET_EDGES, binaries)]
            + ([(((k, 6), (k - 1, 1)), link)] if k >= 2 else []))


def _dense(m: int, k: int, i: int) -> int:
    return 6 * (m - k) + (i - 1)


def _build(n: int, top: int, bottom: int, sign: str) -> Instance:
    """Gadgets top down to bottom, (k, i) at _dense(top, k, i), each linked
    to the one below it; the top one carries sign, the others '-'."""
    unaries, binaries, labels = [], [], []
    for k in range(top, bottom - 1, -1):
        u, b, link = _gadget_weights(n, k, sign if k == top else "-")
        base = _dense(top, k, 1)  # (k, i) is at base + i - 1, (k - 1, 1) at base + 6
        unaries += zip(range(base, base + 6), u)
        binaries += [(base + i - 1, base + j - 1, w) for (i, j), w in zip(GADGET_EDGES, b)]
        if k > bottom:
            binaries.append((base + 5, base + 6, link))
        labels += [(base + i - 1, k, i) for i in range(1, 7)]
    return Instance(len(unaries), 0, unaries, binaries, labels)


def build_chain(n: int, m: int, sign: str, validate: bool = True) -> Instance:
    """The m-gadget chain instance on 6m variables, gadgets m..1.

    The top gadget (k = m) carries the sign; all others use the '-' weights.
    With validate (the default) the generated weights are re-checked against
    the schedule's structural guarantees, which protects every downstream
    experiment from a silently corrupted weight.
    """
    _check_sign(sign)
    n, m = _params(n, m)
    inst = _build(n, m, 1, sign)
    if validate:
        validate_chain(inst, n, m, sign)
    return inst


def build_gadget(n: int, k: int, sign: str) -> Instance:
    """A standalone six-variable gadget, labeled (k, 1)..(k, 6) at dense
    indices 0..5, without either link binary; its weights are checked as
    build_chain's are."""
    _check_sign(sign)
    n, k = _params(n, k, "k")
    inst = _build(n, k, k, sign)
    _validate_weights(inst, n, sign, k)
    return inst


def expected_peak(n: int, m: int, sign: str) -> Bits:
    """The unique fitness peak: all zeros for '-', the top gadget at 111110
    (with everything below zero) for '+'."""
    _check_sign(sign)
    n, m = _params(n, m)
    if sign == "-":
        return (0,) * (6 * m)
    return (1, 1, 1, 1, 1, 0) + (0,) * (6 * (m - 1))


def predicted_ascent_length(m: int) -> int:
    """Steepest-ascent step count between the two peaks: 7*(2^m - 1).

    This is the closed form of the recurrence T_1 = 7, T_m = 7 + 2*T_{m-1}
    driven by the double flip of each gadget's linking variable (k, 6).
    """
    _, m = _params(None, m)
    return 7 * (2 ** m - 1)


def expected_arcs(m: int) -> set[tuple[int, int]]:
    """The sign-dependence arcs (as dense index pairs) that the weight
    schedule is designed to induce; used by self-tests and `vcsp verify`."""
    _, m = _params(None, m)
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
    _, m = _params(None, m)
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

    Raises SelfValidationError if any check fails.  The chain's shape comes
    first: 6m unaries and 7m - 1 binaries, a variable labeled (m, 1) and a
    label on every variable.  Then, per variable:

      * every unary is negative (except the top (m,1) under '+', which must
        equal S exactly);
      * the unary's magnitude exceeds the summed weight of the variable's
        outgoing binaries (those toward larger dense index), so no variable
        wants to be 1 for its downstream alone;
      * it has at most 3 neighbours, so a hub is refused before any subset
        of its weights is summed;
      * every nonempty subset of incoming binary weights sums to <= 0 or to
        more than the unary magnitude plus any negative outgoing weight, so
        upstream pressure, when positive, always wins;
      * over every assignment to a variable's neighborhood the gradient is
        nonzero and its magnitude is either exactly s_k or at least S - s_k
        (the small-step / large-step dichotomy for the variable's gadget k).

    The per-variable checks run in one native call (search._validate64),
    which builds the kernel arrays that orient and the ascents reuse, where
    the weights are on its int64 width.  Where it fails or cannot run, the
    Python loop here checks them, so every message comes from that loop.
    """
    _check_sign(sign)
    n, m = _params(n, m)
    if len(inst.unaries) != 6 * m or len(inst.binaries) != 7 * m - 1:
        raise SelfValidationError(
            f"expected {6*m} unaries and {7*m-1} binaries, "
            f"got {len(inst.unaries)} and {len(inst.binaries)}")
    _validate_weights(inst, n, sign, m)


def _validate_weights(inst: Instance, n: int, sign: str, top_k: int) -> None:
    """validate_chain's checks but the counts; a variable's gadget is its label's k."""
    S = 2 * n + 1
    try:
        top = inst.index_of((top_k, 1))
    except IndexOutOfRangeError:
        raise SelfValidationError(f"no variable labeled {(top_k, 1)}") from None
    unaries, labels = inst.unaries, inst.labels
    if not inst.fully_labeled:
        v = min(set(range(inst.num_vars)).difference(labels))
        raise SelfValidationError(f"variable {v} has no label")
    if search._validate64(inst, n, sign, top):
        return
    for v, nbrs in enumerate(inst.neighbors):
        label = labels[v]
        u = unaries.get(v, 0)
        is_plus_top = sign == "+" and v == top
        if is_plus_top:
            if u != S:
                raise SelfValidationError(f"unary on {label} must be {S}, got {u}")
        elif u >= 0:
            raise SelfValidationError(f"unary on {label} must be negative, got {u}")

        # the sorted neighbours put the c incoming ones (smaller dense index)
        # first, so table[1:2^c] is u plus every nonempty incoming subset sum
        outgoing = negative_outgoing = c = 0
        for j, w in nbrs:
            if j > v:
                outgoing += w
                if w < 0:
                    negative_outgoing -= w
            else:
                c += 1
        if not is_plus_top and abs(u) <= outgoing:
            raise SelfValidationError(
                f"unary magnitude on {label} does not dominate its outgoing binaries")
        if len(nbrs) > 3:
            raise SelfValidationError(
                f"variable {label} has {len(nbrs)} neighbors; chain variables have at most 3")
        slack = abs(u) + negative_outgoing
        table = _gradient_table(inst, v)
        for t in table[1:1 << c]:
            if 0 < t - u <= slack:  # named by the first subset in combinations order
                incoming = [w for _, w in nbrs[:c]]
                sub = next(sub for r in range(1, c + 1) for sub in combinations(incoming, r)
                           if 0 < sum(sub) <= slack)
                raise SelfValidationError(
                    f"incoming binaries {sub} on {label} fall in the dominance gap (0, {slack}]")

        s_k = n + 1 - label[0]
        for g in table:
            if g == 0:
                raise SelfValidationError(
                    f"zero gradient on {label} for some neighborhood assignment")
            if abs(g) < S - s_k and abs(g) != s_k:
                raise SelfValidationError(
                    f"gradient magnitude {abs(g)} on {label} is neither the "
                    f"small step {s_k} nor >= the large-step floor {S - s_k}")
