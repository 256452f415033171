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

from vcsp_landscape import Instance, build_chain, build_gadget


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
    unaries (many zero gains), weights past 2^64, and starts that are
    already peaks."""
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
