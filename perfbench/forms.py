"""Expected values that the benchmark checks library results against.

The closed forms follow the paper's weight schedule and are computed here, not
by the library, so a wrong library answer cannot agree with itself.  The
ascent-graph size has no closed form; it is a pinned value that the
brute-force oracle gave on the chain(3, 3, +/-) instances.

The self-test replaces entries of this module to show that a wrong
expectation is counted as a failed operation.
"""
from __future__ import annotations

BIG = 2 ** 64 + 1  # scale factor that pushes chain weights past 2^64

# ascent_graph(build_chain(3, 3, sign), the other sign's peak): nodes, edges;
# the same for both signs
ASCENT_GRAPH_C3 = (1_087, 4_041)


def chain_steps(m: int) -> int:
    """Steepest-ascent steps between the two peaks of an m-gadget chain."""
    return 7 * (2 ** m - 1)


def small_step(n: int, m: int) -> int:
    """s_m = n + 1 - m, the smallest gain any steepest step may have."""
    return n + 1 - m


def chain_peak(m: int, sign: str) -> tuple[int, ...]:
    """The unique peak in dense index order (top gadget first): the top gadget
    at 111110 for '+', all zeros for '-'."""
    top = (1, 1, 1, 1, 1, 0) if sign == "+" else (0,) * 6
    return top + (0,) * (6 * (m - 1))


def other(sign: str) -> str:
    return "-" if sign == "+" else "+"


def max_degree(m: int) -> int:
    return 2 if m == 1 else 3


def semismooth_faces(d: int) -> int:
    """Faces of the d-cube with at least one free variable: 3^d - 2^d."""
    return 3 ** d - 2 ** d


def fitness(inst, x) -> int:
    """Fitness summed straight from the weight dicts, without library code."""
    f = inst.constant
    for i, w in inst.unaries.items():
        f += w * x[i]
    for (i, j), w in inst.binaries.items():
        f += w * x[i] * x[j]
    return f


def bits(x) -> str:
    """Assignment string of a chain; display order equals dense index order."""
    return "".join(map(str, x))
