"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately re-derive everything from the raw weight dicts
(or from fitness differences) so the library's own gradient / move / peak
code is never on both sides of an assertion.
"""
from __future__ import annotations

import itertools
import random

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
