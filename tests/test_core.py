import copy
import hashlib
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from vcsp_landscape import (
    Instance,
    build_chain,
    build_gadget,
    format_assignment,
    from_constraint_tables,
    from_text,
    parse_assignment,
    steepest_ascent,
    to_text,
    write_instance,
    write_trace_csv,
)
from vcsp_landscape import core
from vcsp_landscape.core import _gradient_table
from vcsp_landscape.errors import (
    BitValueError,
    DuplicateScopeError,
    IndexOutOfRangeError,
    InvalidArgumentError,
    LengthMismatchError,
    MalformedTableError,
    ParseError,
    SelfLoopError,
    TooLargeError,
    VcspError,
    ZeroWeightError,
)

from conftest import brute_fitness, random_bits, random_instance

# the six-variable gadget with n=1, k=1, written out by hand from the weight
# schedule (M=0, S=3, s=1); positions are 1..6, dense indices 0..5
GADGET_UNARIES_MINUS = [-33, -13, -9, -15, -3, -3]
GADGET_BINARIES = {(0, 1): 15, (1, 2): 12, (2, 5): 6, (0, 3): 16, (3, 4): 12, (4, 5): -6}


def test_minimal_instance_is_valid():
    inst = Instance(2, 0, [(0, 1), (1, 1)], [(0, 1, -3)])
    assert inst.num_vars == 2
    assert inst.unaries == {0: 1, 1: 1}
    assert inst.binaries == {(0, 1): -3}


def test_zero_weight_rejected():
    with pytest.raises(ZeroWeightError):
        Instance(2, 0, [(0, 0)], [])
    with pytest.raises(ZeroWeightError):
        Instance(2, 0, [], [(0, 1, 0)])


def test_duplicate_scope_rejected():
    with pytest.raises(DuplicateScopeError):
        Instance(2, 0, [(0, 1), (0, 2)], [])
    with pytest.raises(DuplicateScopeError):
        Instance(3, 0, [], [(0, 1, 1), (1, 0, 2)])  # unordered scopes collide


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        Instance(2, 0, [], [(1, 1, 5)])


def test_index_out_of_range_rejected():
    with pytest.raises(IndexOutOfRangeError):
        Instance(2, 0, [(2, 1)], [])
    with pytest.raises(IndexOutOfRangeError):
        Instance(2, 0, [], [(0, 5, 1)])


@pytest.mark.parametrize("args,exc,message", [
    ((-1,), IndexOutOfRangeError, "num_vars must be >= 0, got -1"),
    ((2, 0, [(2, 1)]), IndexOutOfRangeError, "variable index 2 not in [0, 2)"),
    ((2, 0, [(-1, 1)]), IndexOutOfRangeError, "variable index -1 not in [0, 2)"),
    ((2, 0, [(0, 0)]), ZeroWeightError, "unary on variable 0 has weight 0"),
    ((2, 0, [(0, 1), (0, 2)]), DuplicateScopeError, "duplicate unary scope {0}"),
    ((2, 0, [], [(0, 5, 1)]), IndexOutOfRangeError, "variable index 5 not in [0, 2)"),
    ((2, 0, [], [(5, -3, 1)]), IndexOutOfRangeError, "variable index 5 not in [0, 2)"),
    ((2, 0, [], [(3, 3, 0)]), IndexOutOfRangeError, "variable index 3 not in [0, 2)"),
    ((2, 0, [], [(1, 1, 0)]), SelfLoopError, "binary scope pairs variable 1 with itself"),
    ((2, 0, [], [(1, 0, 0)]), ZeroWeightError, "binary on {1,0} has weight 0"),
    ((3, 0, [], [(0, 1, 1), (1, 0, 2)]), DuplicateScopeError, "duplicate binary scope {0,1}"),
    ((2, 0, [], [], [(2, 1, 1)]), IndexOutOfRangeError, "variable index 2 not in [0, 2)"),
    ((2, 0, [], [], {0: (0, 1)}), ParseError,
     "label (0,1) out of range: need k >= 1, 1 <= i <= 6"),
    ((2, 0, [], [], {0: (1, 7)}), ParseError,
     "label (1,7) out of range: need k >= 1, 1 <= i <= 6"),
    ((2, 0, [], [], [(0, 1, 1), (0, 1, 2)]), DuplicateScopeError, "variable 0 labeled twice"),
    ((2, 0, [], [], [(0, 1, 1), (1, 1, 1)]), DuplicateScopeError, "label (1,1) used twice"),
    # unaries are checked before binaries, and binaries before labels
    ((2, 0, [(0, 0)], [(1, 1, 5)], {0: (0, 1)}), ZeroWeightError,
     "unary on variable 0 has weight 0"),
    ((2, 0, [], [(1, 1, 5)], {0: (0, 1)}), SelfLoopError,
     "binary scope pairs variable 1 with itself"),
    ((2 ** 24 + 1,), TooLargeError, "num_vars must be <= 16777216, got 16777217"),
    # num_vars is capped, before any constraint is checked
    ((10 ** 12, 0, [(0, 0)], [(1, 1, 5)]), TooLargeError,
     "num_vars must be <= 16777216, got 1000000000000"),
    # a float weight was once truncated: unary 0.5 became 0, past the
    # zero-weight check, and the binary 2.5 became 2
    ((2, 0, [(0, 0.5)], [(0, 1, 2.5)]), InvalidArgumentError,
     "unary (0, 0.5) has an entry that is not an integer"),
    # float and bool indices were once kept as keys, so to_text wrote
    # "u 0.0 3", which from_text rejects; a bool is an integer, a float is not
    ((2, 0, [(0.0, 3), (True, -2)]), InvalidArgumentError,
     "unary (0.0, 3) has an entry that is not an integer"),
    # num_vars 2.9 once made 2 variables
    ((2.9,), InvalidArgumentError, "num_vars and constant must be integers, got 2.9 and 0"),
    ((2, 0, [], [(0, 1, 2.5)]), InvalidArgumentError,
     "binary (0, 1, 2.5) has an entry that is not an integer"),
    ((2, 0, [], [], {0: (1.0, 1)}), InvalidArgumentError,
     "label (0, 1.0, 1) has an entry that is not an integer"),
    # entries of the wrong shape once escaped as a bare ValueError or
    # TypeError from their unpacking
    ((2, 0, [(0,)]), InvalidArgumentError, "unary (0,) is not 2 integers"),
    ((2, 0, [], [(0, 1)]), InvalidArgumentError, "binary (0, 1) is not 3 integers"),
    ((2, 0, [], [], [(0, 1)]), InvalidArgumentError, "label (0, 1) is not 3 integers"),
    ((2, 0, [5]), InvalidArgumentError, "unary 5 is not 2 integers"),
    ((2, 0, [], [], {0: 5}), InvalidArgumentError, "label (0, 5) is not 3 integers"),
    ((2, 0, [], {5: 1}), InvalidArgumentError, "binary (5, 1) is not 3 integers"),
    # a whole argument that is not iterable once escaped as a bare TypeError
    ((2, 0, 5), InvalidArgumentError,
     "unaries must be a mapping or an iterable of entries, got 5"),
    ((2, 0, [], 7), InvalidArgumentError,
     "binaries must be a mapping or an iterable of entries, got 7"),
    ((2, 0, [], [], 3), InvalidArgumentError,
     "labels must be a mapping or an iterable of entries, got 3"),
])
def test_instance_error_messages(args, exc, message):
    # one invalid input per message Instance raises, with its exact class
    with pytest.raises(exc) as err:
        Instance(*args)
    assert type(err.value) is exc and str(err.value) == message


def all_ints(inst):
    values = [inst.num_vars, inst.constant, *inst.unaries, *inst.unaries.values(),
              *inst.binaries.values(), *inst.labels]
    values += [v for key in inst.binaries for v in key]
    values += [v for label in inst.labels.values() for v in label]
    return all(type(v) is int for v in values)


def test_instance_takes_bools_as_ints():
    inst = Instance(True + True, False, [(False, True)], [(False, True, True)],
                    [(False, True, True)])
    assert all_ints(inst)
    assert to_text(inst) == to_text(Instance(2, 0, [(0, 1)], [(0, 1, 1)], [(0, 1, 1)]))


def test_instance_takes_numpy_ints_as_ints():
    np = pytest.importorskip("numpy")
    i8, i64 = np.int8, np.int64
    inst = Instance(i64(2), i64(-4), {i8(0): i64(3)}, {(i8(0), i64(1)): np.int16(-5)},
                    {i64(1): (i8(2), i64(3))})
    assert all_ints(inst)
    assert to_text(inst) == to_text(Instance(2, -4, [(0, 3)], [(0, 1, -5)], [(1, 2, 3)]))


def test_generated_gadget_matches_hand_weights(gadget_minus):
    assert gadget_minus.unaries == {i: w for i, w in enumerate(GADGET_UNARIES_MINUS)}
    assert gadget_minus.binaries == GADGET_BINARIES
    assert len(gadget_minus.unaries) == 6 and len(gadget_minus.binaries) == 6


def test_fitness_known_values(gadget_plus, gadget_minus):
    assert gadget_minus.fitness((0,) * 6) == 0
    assert gadget_plus.fitness((1, 0, 0, 0, 0, 0)) == 3
    # equals the sum of the seven steepest-ascent gains 3+2+3+3+1+3+3 from
    # fitness 0, and the term-by-term evaluation below
    x = (1, 1, 1, 1, 1, 0)
    by_hand = (3 - 13 - 9 - 15 - 3) + (15 + 12 + 16 + 12)
    assert by_hand == 18
    assert gadget_plus.fitness(x) == 18
    assert brute_fitness(gadget_plus, x) == 18


def test_fitness_length_mismatch(gadget_plus):
    with pytest.raises(LengthMismatchError):
        gadget_plus.fitness((0,) * 5)
    with pytest.raises(ValueError):
        gadget_plus.fitness((0, 0, 0, 0, 0, 2))


def test_assignment_entries_must_be_integer_bits():
    # floats equal to 0 or 1 are rejected like any other non-bit; bools and
    # numpy integers are integers
    assert issubclass(BitValueError, VcspError) and issubclass(BitValueError, ValueError)
    inst = build_chain(1, 1, "+")
    for x in ((1.0,) * 6, (1, 1, 1, 1, 1, 0.0), (0, 0, 0, 0, 0, 2), (0, 0, 0, 0, 0, "1")):
        with pytest.raises(BitValueError):
            inst.fitness(x)
        with pytest.raises(BitValueError):
            inst.gradient(0, x)
        with pytest.raises(BitValueError):
            inst.improving_moves(x)
    assert inst.fitness((True,) * 5 + (False,)) == inst.fitness((1,) * 5 + (0,))
    np = pytest.importorskip("numpy")
    ones = np.array((1,) * 5 + (0,), dtype=np.uint8)
    assert inst.fitness(ones) == inst.gradient(0, ones) + inst.fitness((0,) + (1,) * 4 + (0,))


def test_check_assignment_returns_the_bits():
    # the checked assignment as bytes, one 0 or 1 a variable, from any
    # sequence of integer bits; the same errors as before otherwise
    inst = build_chain(1, 1, "+")
    bits = bytes((1, 0, 1, 1, 0, 0))
    for x in (tuple(bits), list(bits), bits, tuple(map(bool, bits))):
        assert inst.check_assignment(x) == bits
    with pytest.raises(LengthMismatchError, match="assignment has length 5, instance has 6"):
        inst.check_assignment(bits[:5])
    with pytest.raises(BitValueError, match="got 2$"):
        inst.check_assignment((0, 1, 2, 0, 0, 0))
    np = pytest.importorskip("numpy")
    for dtype in (np.uint8, np.int64):
        assert inst.check_assignment(np.array(tuple(bits), dtype=dtype)) == bits


def test_instance_mappings_are_read_only(chain22_plus):
    # writing to unaries, binaries or labels raises, where it used to leave
    # fitness (read off the mappings) and gradient (read off neighbors)
    # disagreeing; pickle, deepcopy, equality and the text form are as before
    inst = chain22_plus
    text = to_text(inst)
    (i, j), w = next(iter(inst.binaries.items()))
    v = next(iter(inst.unaries))
    for mapping, key, value in ((inst.binaries, (i, j), 10 ** 6), (inst.unaries, v, 1),
                                (inst.labels, v, (9, 1))):
        with pytest.raises(TypeError):
            mapping[key] = value
        with pytest.raises(TypeError):
            del mapping[key]
    assert inst.binaries[(i, j)] == w and to_text(inst) == text
    for copied in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst)):
        assert copied == inst and copied is not inst and to_text(copied) == text
        assert type(copied.unaries) is type(inst.unaries)
    assert inst == from_text(text) and inst != build_chain(2, 2, "-")


def test_instance_attributes_cannot_be_rebound():
    # rebinding unaries once moved fitness((1,)*6) of chain(1, 1, '+') from
    # 15 to 55, and rebinding binaries would have left neighbors, the kernel
    # arrays and every engine on the old weights; now every attribute is
    # fixed, and pickle and copy still build equal instances
    inst = build_chain(1, 1, "+")
    ones = (1,) * 6
    assert inst.fitness(ones) == 15
    text = to_text(inst)
    gradients = [inst.gradient(v, ones) for v in range(6)]
    other = build_chain(2, 2, "-")
    for name in ("num_vars", "constant", "unaries", "binaries", "labels", "neighbors",
                 "_index_by_label", "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(inst, name, getattr(other, name, 1))
        with pytest.raises(AttributeError):
            delattr(inst, name)
    for name in ("_native", "_digest"):
        with pytest.raises(AttributeError):
            delattr(inst, name)
    # a second __init__ once rebound them all: fitness((1,)*6) read 40
    with pytest.raises(AttributeError, match="cannot initialise it again"):
        inst.__init__(6, 0, {0: 40})
    assert inst.fitness(ones) == 15 and to_text(inst) == text
    assert [inst.gradient(v, ones) for v in range(6)] == gradients
    for copied in (pickle.loads(pickle.dumps(inst)), copy.copy(inst)):
        assert copied == inst and copied is not inst and to_text(copied) == text
        assert copied.fitness(ones) == 15
        with pytest.raises(AttributeError):
            copied.unaries = {}


def test_instance_equality_and_repr():
    inst = Instance(3, 2, [(0, 1)], [(0, 1, -4)])
    assert inst == Instance(3, 2, {0: 1}, {(1, 0): -4})
    assert inst != 5 and inst.__eq__(5) is NotImplemented
    assert repr(inst) == "Instance(num_vars=3, constant=2, unaries=1, binaries=1)"


def test_gradient_table_is_capped(monkeypatch):
    # the cap is read at call time: a degree above it raises, naming the variable
    inst = Instance(4, 0, [], [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    assert len(_gradient_table(inst, 0)) == 8
    monkeypatch.setattr(core, "TABLE_DEGREE_CAP", 2)
    assert len(_gradient_table(inst, 1)) == 2
    with pytest.raises(TooLargeError, match="^variable 0 has 3 neighbors; tables over "):
        _gradient_table(inst, 0)


def test_gradient_table_in_mask_order():
    # entry m is the fitness difference at the background where neighbor b
    # of inst.neighbors[v] is set exactly when bit b of m is
    rng = random.Random(8)
    for _ in range(200):
        inst = random_instance(rng)
        for v in range(inst.num_vars):
            nbrs = [j for j, _ in inst.neighbors[v]]
            table = _gradient_table(inst, v)
            assert len(table) == 2 ** len(nbrs)
            for m, g in enumerate(table):
                x = [rng.randint(0, 1) for _ in range(inst.num_vars)]
                for b, j in enumerate(nbrs):
                    x[j] = m >> b & 1
                x[v] = 1
                one = brute_fitness(inst, x)
                x[v] = 0
                assert g == one - brute_fitness(inst, x)


def test_gradient_known_values(gadget_plus, gadget_minus):
    # (k,1) in the '+' gadget gains S whenever both its neighbors are 0,
    # whatever the rest of the assignment does
    for rest in [(0, 0, 0), (1, 0, 1), (0, 1, 0)]:
        x = (0, 0, rest[0], 0, rest[1], rest[2])
        assert gadget_plus.gradient(0, x) == 3
    for n in (2, 5):
        g = build_gadget(n, 1, "+")
        assert g.gradient(0, (0,) * 6) == 2 * n + 1
    assert gadget_minus.gradient(1, (0, 0, 0, 0, 0, 0)) == -13
    x = (0, 0, 1, 0, 0, 0)
    assert gadget_minus.gradient(5, x) == 3
    # finite-difference oracle for the same cell
    assert gadget_minus.fitness((0, 0, 1, 0, 0, 1)) - gadget_minus.fitness(x) == 3


def test_gradient_finite_difference_random():
    rng = random.Random(2024)
    for _ in range(500):
        inst = random_instance(rng)
        x = random_bits(rng, inst.num_vars)
        i = rng.randrange(inst.num_vars)
        x1 = list(x)
        x1[i] = 1
        x0 = list(x)
        x0[i] = 0
        assert inst.gradient(i, x) == brute_fitness(inst, x1) - brute_fitness(inst, x0)


def test_gradient_locality(chain22_plus):
    rng = random.Random(7)
    inst = chain22_plus
    for _ in range(200):
        x = list(random_bits(rng, inst.num_vars))
        i = rng.randrange(inst.num_vars)
        g = inst.gradient(i, x)
        nbrs = {j for j, _ in inst.neighbors[i]}
        j = rng.randrange(inst.num_vars)
        if j == i or j in nbrs:
            continue
        x[j] ^= 1
        assert inst.gradient(i, x) == g


def test_improving_moves_examples(gadget_plus):
    assert gadget_plus.improving_moves((0,) * 6) == [(0, 3)]
    assert gadget_plus.improving_moves((1, 1, 1, 1, 1, 0)) == []
    assert gadget_plus.improving_moves((1, 0, 0, 0, 0, 0)) == [(1, 2), (3, 1)]


def test_improving_moves_match_fitness_differences():
    rng = random.Random(99)
    from conftest import brute_improving
    for _ in range(100):
        inst = random_instance(rng, max_vars=8)
        x = random_bits(rng, inst.num_vars)
        assert inst.improving_moves(x) == brute_improving(inst, x)


def test_from_constraint_tables_aggregation():
    inst = from_constraint_tables(
        2, [((0, 1), {(0, 0): 0, (1, 0): 2, (0, 1): 3, (1, 1): 5})])
    assert inst.unaries == {0: 2, 1: 3}
    assert inst.binaries == {}
    assert inst.constant == 0

    inst = from_constraint_tables(1, [((0,), {(0,): 7, (1,): 7})])
    assert inst.constant == 7
    assert not inst.unaries and not inst.binaries

    inst = from_constraint_tables(
        2, [((0, 1), {(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): 1})])
    assert inst.binaries == {(0, 1): 1}
    assert not inst.unaries and inst.constant == 0


def test_from_constraint_tables_pointwise_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        d = rng.randint(1, 4)
        tables = []
        for _ in range(rng.randint(1, 5)):
            if d >= 2 and rng.random() < 0.6:
                i = rng.randrange(d)
                j = rng.randrange(d)
                while j == i:
                    j = rng.randrange(d)
                tables.append(((i, j), {(a, b): rng.randint(-9, 9)
                                        for a in (0, 1) for b in (0, 1)}))
            else:
                i = rng.randrange(d)
                tables.append(((i,), {(0,): rng.randint(-9, 9), (1,): rng.randint(-9, 9)}))
        inst = from_constraint_tables(d, tables)
        import itertools
        for bits in itertools.product((0, 1), repeat=d):
            want = sum(tab[tuple(bits[v] for v in scope)] for scope, tab in tables)
            assert inst.fitness(bits) == want


def test_from_constraint_tables_malformed():
    with pytest.raises(MalformedTableError):
        from_constraint_tables(2, [((0, 1), {(0, 0): 1, (1, 0): 2, (0, 1): 3})])
    with pytest.raises(MalformedTableError):
        from_constraint_tables(2, [((0, 0), {(0, 0): 1, (1, 0): 2, (0, 1): 3, (1, 1): 4})])
    with pytest.raises(MalformedTableError):
        from_constraint_tables(3, [((0, 1, 2), {})])


def test_from_constraint_tables_checks_scopes_whose_terms_cancel():
    # the coefficients cancel, so Instance never sees variable 5: the table's
    # own scope check is the only guard
    with pytest.raises(IndexOutOfRangeError, match=r"variable index 5 not in \[0, 2\)"):
        from_constraint_tables(2, [((5,), {(0,): 4, (1,): 4})])
    with pytest.raises(IndexOutOfRangeError, match=r"variable index -1 not in \[0, 2\)"):
        from_constraint_tables(2, [((0, -1), dict.fromkeys([(0, 0), (0, 1), (1, 0), (1, 1)], 3))])


def test_text_round_trip(chain22_plus):
    for inst in (chain22_plus, Instance(3, -4, [(1, 2)], [(0, 2, -7)])):
        assert from_text(to_text(inst)) == inst


def test_text_parser_tolerates_comments_and_blank_lines():
    text = """
    # a gadget
    vcsp 1
    n 2   # two variables
    u 0 5
    b 1 0 -2
    """
    inst = from_text(text)
    assert inst.unaries == {0: 5}
    assert inst.binaries == {(0, 1): -2}


@pytest.mark.parametrize("bad,exc", [
    ("n 2\nu 0 1\n", ParseError),                      # missing header
    ("vcsp 2\nn 1\n", ParseError),                     # wrong version
    ("vcsp 1\nu 0 1\nn 2\n", ParseError),              # constraint before n
    ("vcsp 1\nn 2\nq 0 1\n", ParseError),              # unknown directive
    ("vcsp 1\nn 2\nu 0 0\n", ZeroWeightError),
    ("vcsp 1\nn 2\nb 0 0 3\n", SelfLoopError),
    ("vcsp 1\nn 2\nu 0 1\nu 0 2\n", DuplicateScopeError),
    ("vcsp 1\nn 2\nu 7 1\n", IndexOutOfRangeError),
])
def test_text_parser_rejects(bad, exc):
    with pytest.raises(exc):
        from_text(bad)


@pytest.mark.parametrize("bad,msg", [
    ("vcsp 1\nn 2\nu x 1\n", "line 3: non-integer token in 'u x 1'"),
    ("vcsp 1\nq 1.5\n", "line 2: non-integer token in 'q 1.5'"),
    ("vcsp 1\nn 2\n\nn 3\n", "line 4: duplicate 'n' line"),
    ("vcsp 1\nn 2 3\n", "line 2: 'n' takes one argument"),
    ("vcsp 1\nn 3\nlabel 0 1\n", "line 3: 'label' takes index, k, i"),
    ("vcsp 1\nn 2\nc0\n", "line 3: 'c0' takes one argument"),
    ("vcsp 1\nn 2\nc0 1  # first\nc0 2\n", "line 4: duplicate 'c0' line"),
    ("vcsp 1\nn 2\nu 0\n", "line 3: 'u' takes index and weight"),
    ("vcsp 1\nn 2\nb 0 1\n", "line 3: 'b' takes two indices and a weight"),
    ("", "empty input: missing 'vcsp 1' header"),
    ("# comments only\n\n", "empty input: missing 'vcsp 1' header"),
    ("vcsp 1\n", "missing 'n' line"),
    # a second 'n' is a duplicate before its arguments are counted; a second
    # 'c0' has its arguments counted first
    ("vcsp 1\nn 2\nn 1 2\n", "line 3: duplicate 'n' line"),
    ("vcsp 1\nn 2\nc0 1\nc0 1 2\n", "line 4: 'c0' takes one argument"),
    ("vcsp 1\nq 1\n", "line 2: 'q' line before 'n' line"),
])
def test_text_parser_error_messages(bad, msg):
    with pytest.raises(ParseError) as e:
        from_text(bad)
    assert str(e.value) == msg


@pytest.mark.parametrize("text,exc,msg", [
    ("vcsp 1\nn 3\nb 0 1 2\nu 2 1\nb 1 0 5\n", DuplicateScopeError,
     "line 5: duplicate binary scope {0,1}"),
    ("vcsp 1\nn 3\nlabel 0 0 1\n", ParseError,
     "line 3: label (0,1) out of range: need k >= 1, 1 <= i <= 6"),
    ("vcsp 1\n# a comment\n\nn -1\n", IndexOutOfRangeError,
     "line 4: num_vars must be >= 0, got -1"),
    ("vcsp 1\nn 3\nu 0 1\n\nu 1 2  # second\nu 1 3\n", DuplicateScopeError,
     "line 6: duplicate unary scope {1}"),
    # unaries are checked before binaries, and binaries before labels,
    # whatever the order of their lines
    ("vcsp 1\nn 2\nlabel 0 1 9\nb 1 1 5\nu 0 0\n", ZeroWeightError,
     "line 5: unary on variable 0 has weight 0"),
    ("vcsp 1\nn 2\nlabel 0 1 9\nb 0 1 5\nb 1 1 5\n", SelfLoopError,
     "line 5: binary scope pairs variable 1 with itself"),
    ("vcsp 1\nn 2\nlabel 0 1 1\nlabel 1 1 2\nlabel 0 1 3\nu 0 2\n", DuplicateScopeError,
     "line 5: variable 0 labeled twice"),
])
def test_text_parser_reports_the_line_instance_rejects(text, exc, msg):
    # the errors Instance raises for a parsed file name the line, with the
    # same class and message
    with pytest.raises(exc) as e:
        from_text(text)
    assert type(e.value) is exc and str(e.value) == msg


def test_integers_past_the_digit_limit(tmp_path, digit_limit_640):
    # the writers raise TooLargeError naming the limit, read at each call;
    # the reader names the line and the limit
    chain = build_chain(2200, 2200, "+")
    message = ("a weight has more than 640 digits, the limit for integer string "
               "conversion (sys.set_int_max_str_digits)")
    path = tmp_path / "big.vcsp"
    for call in (lambda: to_text(chain), chain.content_hash,
                 lambda: write_instance(chain, path),
                 lambda: write_trace_csv(steepest_ascent(chain, (0,) * 13200, max_steps=0),
                                         chain, path)):
        with pytest.raises(TooLargeError) as e:
            call()
        assert str(e.value) == message
    assert not path.exists()
    for sign in ("", "+", "-"):
        assert from_text(f"vcsp 1\nn 1\nu 0 {sign}{'7' * 640}\n").unaries[0] != 0
        with pytest.raises(ParseError) as e:
            from_text(f"vcsp 1\nn 1\n\nu 0 {sign}{'7' * 641}\n")
        assert str(e.value) == ("line 4: an integer token has more than 640 digits, the "
                                "limit for integer string conversion")
    with pytest.raises(ParseError, match="^line 3: non-integer token in 'u 0 7{641}x'$"):
        from_text(f"vcsp 1\nn 1\nu 0 {'7' * 641}x\n")


def test_huge_num_vars_fails_fast_under_a_memory_limit():
    # a 10-byte file that names 10^12 variables raises TooLargeError before
    # Instance allocates anything per variable, also when a constraint is
    # bad too.  One that names 2^24, the cap, loads: its variables, which no
    # binary touches, share one empty neighbour row.  It runs in a child
    # process with 1 GiB of address space, so that a regression fails this
    # test instead of exhausting the host
    pytest.importorskip("resource")
    code = "\n".join([
        "import resource",
        "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))",
        "from vcsp_landscape import from_text",
        "from vcsp_landscape.errors import TooLargeError",
        "for text in ('vcsp 1\\nn 1000000000000\\n',",
        "             'vcsp 1\\nn 1000000000000\\nb 0 0 5\\nlabel 0 0 0\\n'):",
        "    try:",
        "        from_text(text)",
        "    except TooLargeError as e:",
        "        print(e)",
        "inst = from_text('vcsp 1\\nn 16777216\\n')",
        "print(inst.num_vars, set(inst.neighbors))",
    ])
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr
    assert out.stdout == ("line 2: num_vars must be <= 16777216, got 1000000000000\n" * 2
                          + "16777216 {()}\n")


def test_assignment_string_order_generated(chain22_plus):
    # generated layout already places the top gadget first, so display order
    # is the identity
    inst = chain22_plus
    assert inst.display_order() == tuple(range(12))
    s = "110000" + "000011"
    x = parse_assignment(inst, s)
    assert format_assignment(inst, x) == s
    assert format_assignment(inst, x, raw=True) == s


def test_assignment_string_order_shuffled_labels():
    # same chain content, but stored with gadget 1 at the low indices; the
    # display order must put gadget 2 first regardless
    labels = {i: (1, i + 1) for i in range(6)} | {6 + i: (2, i + 1) for i in range(6)}
    inst = Instance(12, 0, [(0, -1), (6, -1)], [], labels)
    order = inst.display_order()
    assert order == tuple(range(6, 12)) + tuple(range(0, 6))
    x = parse_assignment(inst, "100000" + "010000")
    assert x[6] == 1 and x[1] == 1 and sum(x) == 2
    assert format_assignment(inst, x) == "100000010000"
    assert format_assignment(inst, x, raw=True) == "010000100000"


def test_unlabeled_uses_index_order():
    inst = Instance(3, 0, [(0, 1)], [])
    assert parse_assignment(inst, "100") == (1, 0, 0)
    with pytest.raises(LengthMismatchError):
        parse_assignment(inst, "10")
    with pytest.raises(ParseError):
        parse_assignment(inst, "1x0")


def test_label_domain_enforced():
    with pytest.raises(ParseError):
        Instance(2, 0, [], [], labels={0: (0, 1)})
    with pytest.raises(ParseError):
        Instance(2, 0, [], [], labels={0: (1, 7)})
    with pytest.raises(DuplicateScopeError):
        Instance(2, 0, [], [], labels=[(0, 1, 1), (1, 1, 1)])


def test_label_lookup(chain22_minus):
    inst = chain22_minus
    assert inst.index_of((2, 1)) == 0
    assert inst.index_of((1, 6)) == 11
    assert inst.label_of(0) == (2, 1)
    with pytest.raises(IndexOutOfRangeError):
        inst.index_of((3, 1))


def test_content_hash_stable(chain22_minus):
    h = chain22_minus.content_hash()
    assert h == build_chain(2, 2, "-").content_hash()
    assert h != build_chain(2, 2, "+").content_hash()


def test_content_hash_is_computed_once(monkeypatch):
    # the first call serializes and hashes the instance; later calls return
    # the stored digest
    calls = []

    def counted(inst):
        calls.append(inst)
        return to_text(inst)
    monkeypatch.setattr(core, "to_text", counted)
    inst = build_chain(3, 2, "+")
    first = inst.content_hash()
    assert len(calls) == 1
    assert inst.content_hash() == first and len(calls) == 1
    assert first == hashlib.sha256(to_text(inst).encode()).hexdigest()
