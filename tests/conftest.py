"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately re-derive everything from the raw weight dicts
(or from fitness differences) so the library's own gradient / move / peak
code is never on both sides of an assertion.
"""
from __future__ import annotations

import itertools
import random
import sys

import pytest

from vcsp_landscape import (
    Instance,
    build_chain,
    build_gadget,
    check_semismooth,
    core,
    generator,
    landscape,
    search,
)
from vcsp_landscape.core import _gradient_table
from vcsp_landscape.errors import SelfValidationError


def brute_fitness(inst: Instance, x) -> int:
    f = inst.constant
    for i, w in inst.unaries.items():
        f += w * x[i]
    for (i, j), w in inst.binaries.items():
        f += w * x[i] * x[j]
    return f


def brute_improving(inst: Instance, x) -> list[tuple[int, int]]:
    out = []
    fx = brute_fitness(inst, x)
    for i in range(inst.num_vars):
        y = list(x)
        y[i] ^= 1
        gain = brute_fitness(inst, y) - fx
        if gain > 0:
            out.append((i, gain))
    return out


def brute_peaks(inst: Instance) -> list[tuple[int, ...]]:
    assert inst.num_vars <= 14, "pure-python oracle is for small instances"
    peaks = []
    for bits in itertools.product((0, 1), repeat=inst.num_vars):
        if not brute_improving(inst, bits):
            peaks.append(bits)
    return peaks


def random_instance(rng: random.Random, max_vars: int = 10, max_weight: int = 20) -> Instance:
    d = rng.randint(1, max_vars)
    unaries = []
    for i in range(d):
        if rng.random() < 0.7:
            w = rng.randint(-max_weight, max_weight)
            if w:
                unaries.append((i, w))
    binaries = []
    for i, j in itertools.combinations(range(d), 2):
        if rng.random() < min(1.0, 4.0 / d):
            w = rng.randint(-max_weight, max_weight)
            if w:
                binaries.append((i, j, w))
    return Instance(d, rng.randint(-5, 5), unaries, binaries)


def random_bits(rng: random.Random, d: int) -> tuple[int, ...]:
    return tuple(rng.randint(0, 1) for _ in range(d))


def dense_instance(rng: random.Random, d: int, weights, unaries=()) -> Instance:
    """80% of all pairs coupled; each variable gets a unary drawn from unaries."""
    pairs = itertools.combinations(range(d), 2)
    return Instance(d, 0, [(v, rng.choice(unaries)) for v in range(d) if unaries],
                    [(i, j, rng.choice(weights)) for i, j in pairs if rng.random() < 0.8])


def ascent_graph_cases() -> list[tuple[Instance, tuple[int, ...]]]:
    """Seeded (instance, start) pairs for the ascent-graph oracles: no
    variables, random sparse instances, dense couplings with and without
    unaries (many zero gains), weights past 2^64, starts that are already
    peaks, and weight totals of 2^62 - 1, the largest on the kernel's int64
    width, from starts mostly at 1 (zero gains among them)."""
    rng = random.Random(907)
    big = 3 * 2 ** 70
    cases = [(Instance(0), ())]
    for _ in range(60):
        inst = random_instance(rng, max_vars=10)
        cases.append((inst, random_bits(rng, inst.num_vars)))
    for _ in range(30):  # dense ±1 couplings without unaries: many zero gradients
        inst = dense_instance(rng, rng.randint(2, 10), (-1, 1))
        cases.append((inst, random_bits(rng, inst.num_vars)))
    for _ in range(20):
        inst = dense_instance(rng, rng.randint(2, 10), (-4, -2, -1, 1, 3), (-5, -1, 2, 6))
        cases.append((inst, random_bits(rng, inst.num_vars)))
    for _ in range(20):
        d = rng.randint(1, 10)
        inst = Instance(d, big, [(v, rng.choice((-big, big, 7))) for v in range(d)],
                        [(i, j, rng.choice((-big, big, -1, 2)))
                         for i, j in itertools.combinations(range(d), 2)
                         if rng.random() < 0.5])
        cases.append((inst, random_bits(rng, inst.num_vars)))
    for inst, _ in cases[1:21]:  # starts that are already peaks
        cases.append((inst, brute_peaks(inst)[0]))
    top = 2 ** 62 - 1  # the largest weight total on the kernel's int64 width
    for _ in range(20):  # weights of ±1 or ±2 times one scale; the constant makes up top
        d = rng.randint(2, 10)
        unaries = [(v, rng.choice((-2, -1, 1, 2))) for v in range(d)]
        binaries = [(i, j, rng.choice((-2, -1, 1, 2)))
                    for i, j in itertools.combinations(range(d), 2) if rng.random() < 0.6]
        units = sum(abs(w) for *_, w in unaries + binaries)
        scale = top // units
        inst = Instance(d, rng.choice((-1, 1)) * (top - scale * units),
                        [(v, scale * w) for v, w in unaries],
                        [(i, j, scale * w) for i, j, w in binaries])
        cases.append((inst, tuple(int(rng.random() < 0.8) for _ in range(d))))
    return cases


def star(d):
    """Variable 0 joined to each of d leaves."""
    return Instance(d + 1, 0, [(0, 1)], [(0, j, 1) for j in range(1, d + 1)])


def weighted_star(rng, d):
    """Variable 0 joined to each of d leaves by mixed weights.  Most leaves
    carry a unary that outweighs their binary, so they do not sign-depend on
    the centre and an arc j -> 0 shows that the centre depends on leaf j."""
    big, small = rng.choice(((1, 1), (3, 3), (16, 1), (64, 3)))
    weights = [rng.choice((-1, 1)) * rng.randint(1, rng.choice((big, small))) for _ in range(d)]
    total = sum(map(abs, weights))
    unaries = [(0, rng.randint(-total, total) or 1)]
    for j, w in enumerate(weights, start=1):
        kind = rng.random()
        if kind < 0.9:
            unaries.append((j, rng.choice((-1, 1)) * (abs(w) + rng.randint(1, 3))))
        elif kind < 0.95:
            unaries.append((j, -w))
    return Instance(d + 1, 0, unaries, [(0, j, w) for j, w in enumerate(weights, start=1)])


def relabel(inst: Instance, perm) -> Instance:
    """inst with variable v renumbered perm[v]: its unary, its binaries and
    its label move with it, so the display order, and every assignment
    string, stays the same."""
    return Instance(inst.num_vars, inst.constant,
                    {perm[v]: w for v, w in inst.unaries.items()},
                    {tuple(sorted((perm[i], perm[j]))): w
                     for (i, j), w in inst.binaries.items()},
                    {perm[v]: label for v, label in inst.labels.items()})


KERNEL_FUNCTIONS = ("replay", "csv_rows", "ascent_graph", "orient", "validate", "semismooth")


def count_calls(monkeypatch, width):
    """Counts the calls of the int64 width's replay, CSV, ascent-graph,
    orientation, chain-validation and semismoothness functions."""
    calls = dict.fromkeys(KERNEL_FUNCTIONS, 0)
    for name in calls:
        def counted(*args, fn=getattr(width, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(width, name, counted)
    return calls


@pytest.fixture
def kernel_calls(monkeypatch):
    """count_calls on the kernel built here; no calls where there is none."""
    widths = search._native_kernel()
    return (count_calls(monkeypatch, widths[0]) if widths
            else dict.fromkeys(KERNEL_FUNCTIONS, 0))


def reference_validate_weights(inst, n, sign, top_k):
    """generator._validate_weights as first written, every incoming subset
    summed by itertools.combinations: the oracle of check_validations."""
    S = 2 * n + 1
    top = inst.index_of((top_k, 1))
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
            for sub in itertools.combinations(incoming, r):
                t = sum(sub)
                if t > 0 and t <= slack:
                    raise SelfValidationError(
                        f"incoming binaries {sub} on {inst.labels[v]} fall in the "
                        f"dominance gap (0, {slack}]")

        s_k = n + 1 - inst.labels[v][0]
        for g in _gradient_table(inst, v):
            if g == 0:
                raise SelfValidationError(
                    f"zero gradient on {inst.labels[v]} for some neighborhood assignment")
            if abs(g) != s_k and abs(g) < S - s_k:
                raise SelfValidationError(
                    f"gradient magnitude {abs(g)} on {inst.labels[v]} is neither the "
                    f"small step {s_k} nor >= the large-step floor {S - s_k}")


def validation_outcome(func, *args):
    """("pass", "") when func(*args) returns, else the class and message it
    raised."""
    try:
        func(*args)
    except Exception as e:  # any exception: its type and message are compared
        return type(e).__name__, str(e)
    return "pass", ""


def check_validations(monkeypatch, calls, count):
    """generator._validate_weights as dispatched and with the kernel
    switched off, both against reference_validate_weights, on count seeded
    weight mutants of chains and gadgets with n <= 8: one to three weights
    shifted by 1 to 3, negated, halved, replaced by a small random weight or
    deleted, checked with the sign they were built with (now and then the
    other one) and with their n or a smaller one, so that labels exceed n
    and s_k <= 0.  Then three hand-made instances at the edges of the
    gradient check, and inputs at the kernel's limits: the first 20 mutants
    scaled by 2^62, past the int64 width; a chain at n = 2^40 - 1 and at
    2^40; labels k whose n + 1 - k is -2^63 and one less, which does not
    pack as an int64.  Where the kernel's validator runs (calls counts it,
    from count_calls), its own verdict must be the reference's too.
    Returns the outcomes seen, as (kind, the message's first two words,
    whether the n checked is below the top's k), and the number of inputs
    checked on the kernel."""
    rng = random.Random(20261020)
    cases = []
    for _ in range(count):
        n = rng.randint(1, 8)
        sign = rng.choice("+-")
        gadget = rng.random() < 0.2
        top = rng.randint(1, n)
        good = (build_gadget if gadget else build_chain)(n, top, sign)
        u, b = dict(good.unaries), dict(good.binaries)
        for _ in range(rng.randint(0, 3)):
            table = rng.choice((u, b))
            key = rng.choice(sorted(table))
            w, kind = table[key], rng.randrange(5)
            w = (w + rng.choice((-3, -2, -1, 1, 2, 3)) if kind == 0 else -w if kind == 1
                 else w // 2 if kind == 2 else rng.randint(-6, 6) if kind == 3 else 0)
            if w:
                table[key] = w
            elif len(table) > 1:
                del table[key]
        inst = Instance(good.num_vars, 0, u, b, good.labels)
        check_n = n if rng.random() < 0.7 else rng.randint(1, top)
        check_sign = sign if rng.random() < 0.9 else "-+"[sign == "-"]
        cases.append((inst, check_n, check_sign, top))
    for inst, n, sign, top in cases[:20]:
        cases.append((Instance(inst.num_vars, 0,
                               {v: w << 62 for v, w in inst.unaries.items()},
                               {e: w << 62 for e, w in inst.binaries.items()}, inst.labels),
                       n, sign, top))
    # a zero gradient on (2, 1) where s_k = n + 1 - k = 0; a lone variable
    # whose gradient is exactly S - s_k = 2; and one whose gradient 3 * 2^60
    # is above S - s_k = 2^61 + 4
    cases.append((Instance(3, 0, [(0, -10), (1, -5), (2, -5)], [(0, 1, 10), (0, 2, -3)],
                           [(0, 2, 1), (1, 2, 2), (2, 2, 3)]), 1, "-", 2))
    cases.append((Instance(1, 0, [(0, -2)], [], [(0, 1, 1)]), 1, "-", 1))
    cases.append((Instance(1, 0, [(0, -3 << 60)], [], [(0, 2 ** 61 + 3, 1)]),
                  1, "-", 2 ** 61 + 3))
    for n in (2 ** 40 - 1, 2 ** 40):
        cases.append((build_chain(n, 2, "-", validate=False), n, "-", 2))
    chain = build_chain(5, 2, "+")
    for k in (6 + 2 ** 63, 7 + 2 ** 63):  # n + 1 - k at n = 5: -2^63 and one less
        labels = dict(chain.labels)
        labels[7] = (k, 2)
        cases.append((Instance(12, 0, chain.unaries, chain.binaries, labels), 5, "+", 2))
    seen = set()
    on_kernel = 0
    for case, args in enumerate(cases):
        want = validation_outcome(reference_validate_weights, *args)
        with monkeypatch.context() as off:
            off.setattr(search, "_native_kernel", lambda: None)
            assert validation_outcome(generator._validate_weights, *args) == want, case
        before = calls["validate"]
        assert validation_outcome(generator._validate_weights, *args) == want, case
        if calls["validate"] > before:
            on_kernel += 1
            # the kernel's own verdict, which a fallback to the loop would hide
            inst, n, sign, top_k = args
            assert search._validate64(inst, n, sign, inst.index_of((top_k, 1))) == (
                want[0] == "pass"), case
        seen.add((want[0], " ".join(want[1].split()[:2]), args[1] < args[3]))
    return seen, on_kernel


def weighted_instance(rng: random.Random, d: int, density: float, unaries, weights) -> Instance:
    """A unary on every variable; each pair coupled with probability density."""
    return Instance(d, 0, [(v, rng.choice(unaries)) for v in range(d)],
                    [(i, j, rng.choice(weights)) for i, j in itertools.combinations(range(d), 2)
                     if rng.random() < density])


def planted_pair(rng: random.Random, d: int) -> Instance:
    """The two-peak pair on variables i < j, (i, j) != (0, 1), inside an
    instance whose other variables have strong unaries and weak couplings."""
    i, j = sorted(rng.sample(range(d), 2))
    while (i, j) == (0, 1):
        i, j = sorted(rng.sample(range(d), 2))
    unaries = [(v, 1 if v in (i, j) else rng.choice((-9, 9))) for v in range(d)]
    binaries = [(a, b, rng.choice((-1, 1))) for a, b in itertools.combinations(range(d), 2)
                if {a, b}.isdisjoint((i, j)) and rng.random() < 0.5]
    return Instance(d, 0, unaries, binaries + [(i, j, -3)])


def semismooth_cases() -> list[Instance]:
    """Seeded instances of at most 8 variables for check_semismooth: zero
    gradients make the ties, planted_pair two peaks on an edge, and weights
    of 3 * 2^70 are past every kernel width."""
    rng = random.Random(47)
    big = 3 * 2 ** 70
    densities = (0.1, 0.3, 0.6, 1.0)
    cases = [Instance(0), Instance(5), build_chain(1, 1, "+"), build_chain(1, 1, "-")]
    cases += [random_instance(rng, max_vars=8) for _ in range(40)]
    cases += [random_instance(rng, max_vars=8, max_weight=2) for _ in range(30)]
    cases += [weighted_instance(rng, rng.randint(1, 8), rng.choice(densities),
                                (-12, -7, -5, 5, 8, 11), (-6, -3, -1, 2, 4, 6))
              for _ in range(60)]
    cases += [weighted_instance(rng, rng.randint(1, 8), rng.choice(densities),
                                (-4 * big, -big, big, 3 * big), (-big, big, -1, 2))
              for _ in range(30)]
    cases += [weighted_instance(rng, rng.randint(3, 8), rng.choice((0.5, 1.0)), (1, 2),
                                (-5, -3, 1)) for _ in range(30)]
    cases += [dense_instance(rng, rng.randint(2, 8), (-1, 1)) for _ in range(20)]
    cases += [planted_pair(rng, rng.randint(3, 8)) for _ in range(30)]
    return cases


def check_semismooths(monkeypatch, calls) -> int:
    """check_semismooth as dispatched against the reference alone (no
    kernel): the same SemismoothResult on semismooth_cases(), on instances
    of 13 to 16 variables with and without a planted pair, and on weight
    totals of 2^62 - 1, the largest on the kernel's int64 width, and 2^62,
    one past it.  Where the kernel's count runs (calls counts it, from
    count_calls), its own verdict must be the reference's, and the reference
    must run exactly after a fail.  Returns the number of cases decided on
    the kernel."""
    rng = random.Random(1316)
    cases = semismooth_cases()
    for d in range(13, 17):  # at each size, unaries that outweigh every coupling, and a pair
        cases.append(weighted_instance(rng, d, 0.3, (-9, 9), (-1, 1)))
        cases.append(planted_pair(rng, d))
    top = 2 ** 62 - 1
    for _ in range(10):  # unaries of +-3 or +-5 and binaries of +-1 or +-2 times one
        d = rng.randint(2, 8)  # scale, 6 of them semismooth; the constant makes up top
        unaries = [(v, rng.choice((-5, -3, 3, 5))) for v in range(d)]
        binaries = [(i, j, rng.choice((-2, -1, 1, 2)))
                    for i, j in itertools.combinations(range(d), 2) if rng.random() < 0.5]
        units = sum(abs(w) for *_, w in unaries + binaries)
        scale = top // units
        for constant in (top - scale * units, top - scale * units + 1):
            cases.append(Instance(d, constant, [(v, scale * w) for v, w in unaries],
                                  [(i, j, scale * w) for i, j, w in binaries]))
    reference = landscape._superset_sum
    ran = []
    monkeypatch.setattr(landscape, "_superset_sum", lambda inst: ran.append(1) or reference(inst))
    on_kernel = 0
    for inst in cases:
        with monkeypatch.context() as off:
            off.setattr(search, "_native_kernel", lambda: None)
            want = check_semismooth(inst, cap=16)
        before = calls["semismooth"]
        ran.clear()
        assert check_semismooth(inst, cap=16) == want, core.to_text(inst)
        if calls["semismooth"] > before:
            on_kernel += 1
            # the kernel's own verdict, which the reference after a fail would hide
            assert search._semismooth64(inst) is want.semismooth, core.to_text(inst)
            assert len(ran) == (not want.semismooth)
    return on_kernel


@pytest.fixture
def digit_limit_640():
    """Python's limit on converting ints to and from text lowered to its
    minimum, 640 digits, for one test, then restored."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no integer string conversion limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(old)


@pytest.fixture(scope="session")
def gadget_plus():
    return build_gadget(1, 1, "+")


@pytest.fixture(scope="session")
def gadget_minus():
    return build_gadget(1, 1, "-")


@pytest.fixture(scope="session")
def chain22_plus():
    return build_chain(2, 2, "+")


@pytest.fixture(scope="session")
def chain22_minus():
    return build_chain(2, 2, "-")


@pytest.fixture(scope="session")
def two_peak_pair():
    """Two-variable instance whose full face has two local peaks."""
    return Instance(2, 0, [(0, 1), (1, 1)], [(0, 1, -3)])
