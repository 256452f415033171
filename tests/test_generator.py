import hashlib
import itertools

import pytest

from conftest import check_validations, validation_outcome
from vcsp_landscape import (
    Instance,
    generator,
    build_chain,
    build_gadget,
    canonical_decomposition,
    constraint_graph,
    derived_params,
    expected_arcs,
    expected_peak,
    gadget_constraints,
    predicted_ascent_length,
    search,
    validate_chain,
    validate_path_decomposition,
)
from vcsp_landscape.errors import (
    InvalidArgumentError,
    RangeError,
    SelfValidationError,
)


def test_derived_params():
    assert derived_params(1, 1) == (0, 3, 1)
    assert derived_params(3, 2) == (12, 7, 2)
    for n in range(1, 8):
        assert derived_params(n, n)[2] == 1  # s_n = 1
    with pytest.raises(RangeError):
        derived_params(3, 0)
    with pytest.raises(RangeError):
        derived_params(3, 4)


def test_gadget_constraints_frozen_minus():
    cons = dict(gadget_constraints(1, 1, "-", is_top=True))
    assert [cons[((1, i),)] for i in range(1, 7)] == [-33, -13, -9, -15, -3, -3]
    assert cons[((1, 1), (1, 2))] == 15
    assert cons[((1, 2), (1, 3))] == 12
    assert cons[((1, 3), (1, 6))] == 6
    assert cons[((1, 1), (1, 4))] == 16
    assert cons[((1, 4), (1, 5))] == 12
    assert cons[((1, 5), (1, 6))] == -6
    assert len(cons) == 12


def test_gadget_constraints_plus_changes_only_top_unary():
    minus = dict(gadget_constraints(1, 1, "-", is_top=True))
    plus = dict(gadget_constraints(1, 1, "+", is_top=True))
    assert plus[((1, 1),)] == 3
    minus.pop(((1, 1),))
    plus.pop(((1, 1),))
    assert plus == minus


def test_gadget_constraints_link_weight():
    cons = dict(gadget_constraints(3, 2, "-", is_top=False))
    M, S, _ = derived_params(3, 2)
    assert cons[((2, 6), (1, 1))] == M * S
    assert len(cons) == 13


def test_gadget_constraints_are_pinned():
    # every valid argument with n <= 20: '+' and '-' at the top, '-' below it
    h = hashlib.sha256()
    for n in range(1, 21):
        for k in range(1, n + 1):
            for sign, is_top in (("+", True), ("-", True), ("-", False)):
                h.update(f"{gadget_constraints(n, k, sign, is_top)!r}\n".encode())
    assert h.hexdigest() == "8f66484386ed219d4e64c1acae33a568c8fd1bde8f54e3e654055b85cba718c1"


def test_plus_requires_top():
    with pytest.raises(RangeError):
        gadget_constraints(2, 1, "+", is_top=False)
    # '-' away from the top is the normal case
    gadget_constraints(2, 2, "-", is_top=False)


def test_plus_unary_consistency():
    # c_plus on (k,1) must equal c_minus plus the upward link weight, and S
    for n in range(1, 11):
        S = 2 * n + 1
        for k in range(1, n + 1):
            M, _, _ = derived_params(n, k)
            c_minus = -(2 * (M + 5) + 1) * S
            m_up = 6 * (2 ** (k + 1) - 2)
            assert m_up == 2 * (M + 6)
            assert c_minus + m_up * S == S


@pytest.mark.parametrize("n,m,sign,vars_,unaries,binaries", [
    (1, 1, "+", 6, 6, 6),
    (3, 3, "-", 18, 18, 20),
    (5, 2, "+", 12, 12, 13),
])
def test_build_chain_counts(n, m, sign, vars_, unaries, binaries):
    inst = build_chain(n, m, sign)
    assert inst.num_vars == vars_
    assert len(inst.unaries) == unaries
    assert len(inst.binaries) == binaries
    assert inst.fully_labeled


def test_build_chain_rejects_bad_params():
    with pytest.raises(RangeError):
        build_chain(2, 3, "-")
    with pytest.raises(RangeError):
        build_chain(2, 0, "-")
    with pytest.raises(RangeError):
        build_chain(2, 2, "x")


@pytest.mark.parametrize("func,args,name,value", [
    (predicted_ascent_length, (2.5,), "m", 2.5),
    (derived_params, (3.0, 1), "n", 3.0),
    (gadget_constraints, (3, 2.5, "-", True), "k", 2.5),
    (build_chain, (3, 2.0, "+"), "m", 2.0),
    (build_chain, ("3", 2, "+"), "n", "3"),
    (build_gadget, (3, 2.0, "-"), "k", 2.0),
    (expected_peak, (3, 2.0, "+"), "m", 2.0),
    (expected_arcs, (2.0,), "m", 2.0),
    (canonical_decomposition, (1.5,), "m", 1.5),
    (build_gadget, (3.0, 2, "-"), "n", 3.0),
    # unchecked, a float n would pass: S = 7.0 equals the top unary 7
    (validate_chain, (build_chain(3, 3, "+"), 3.0, 3, "+"), "n", 3.0),
    (validate_chain, (build_chain(3, 3, "+"), 3, 3.0, "+"), "m", 3.0),
])
def test_generator_parameters_are_integers(func, args, name, value):
    # n, m and k go through operator.index; the error names the argument
    with pytest.raises(InvalidArgumentError) as err:
        func(*args)
    assert str(err.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize("args,message", [
    ((build_chain(3, 3, "-"), 2, 3, "-"), "need 1 <= m <= n, got m=3, n=2"),
    ((build_chain(3, 3, "-"), 3, 0, "-"), "need 1 <= m <= n, got m=0, n=3"),
])
def test_validate_chain_checks_ranges(args, message):
    with pytest.raises(RangeError) as err:
        validate_chain(*args)
    assert str(err.value) == message


def test_generator_takes_bools_as_ints():
    assert build_chain(True, True, "+") == build_chain(1, 1, "+")
    assert derived_params(True, True) == (0, 3, 1)
    assert all(type(w) is int for _, w in gadget_constraints(True, True, "-", True))
    assert gadget_constraints(True, True, "-", True)[0][0] == ((1, 1),)
    assert predicted_ascent_length(True) == 7


def test_chain_of_one_gadget_equals_standalone():
    assert build_chain(4, 1, "+") == build_gadget(4, 1, "+")
    assert build_chain(4, 1, "-") == build_gadget(4, 1, "-")


@pytest.mark.parametrize("sign", ["+", "-"])
def test_every_gadget_of_a_chain_equals_the_standalone_gadget(sign):
    # gadget k of chain(n, m, sign), without its link binaries and renumbered
    # 0..5 by position, is build_gadget(n, k, ...) with the top's sign at k = m
    for n in range(1, 13):
        for m in range(1, n + 1):
            chain = build_chain(n, m, sign)
            for k in range(1, m + 1):
                pos = {chain.index_of((k, i)): i - 1 for i in range(1, 7)}
                part = Instance(
                    6, 0,
                    [(pos[v], w) for v, w in chain.unaries.items() if v in pos],
                    [(pos[a], pos[b], w) for (a, b), w in chain.binaries.items()
                     if a in pos and b in pos],
                    {i - 1: (k, i) for i in range(1, 7)})
                assert part == build_gadget(n, k, sign if k == m else "-"), (n, m, k)


def test_standalone_gadget_has_no_link(gadget_minus):
    g = build_gadget(3, 2, "-")
    assert g.num_vars == 6
    assert len(g.binaries) == 6


def test_expected_arcs_and_decomposition_need_a_gadget():
    # one gadget's arcs, in dense indices: (1,2), (1,4), (2,3), (4,5), (3,6), (5,6)
    assert expected_arcs(1) == {(0, 1), (0, 3), (1, 2), (3, 4), (2, 5), (4, 5)}
    assert (5, 6) in expected_arcs(2) and len(expected_arcs(2)) == 13
    for build in (expected_arcs, canonical_decomposition):
        for m in (0, -2):
            with pytest.raises(RangeError, match=f"^need m >= 1, got m={m}$"):
                build(m)


def test_expected_peak():
    assert expected_peak(3, 2, "-") == (0,) * 12
    assert expected_peak(1, 1, "+") == (1, 1, 1, 1, 1, 0)
    assert expected_peak(2, 2, "+") == (1, 1, 1, 1, 1, 0) + (0,) * 6
    with pytest.raises(RangeError):
        expected_peak(1, 2, "+")


def test_predicted_ascent_length_matches_recurrence():
    assert predicted_ascent_length(1) == 7
    assert predicted_ascent_length(2) == 21
    assert predicted_ascent_length(10) == 7161
    t = 0
    for m in range(1, 15):
        t = 7 + 2 * t
        assert predicted_ascent_length(m) == t
    with pytest.raises(RangeError):
        predicted_ascent_length(0)


@pytest.mark.parametrize("m", [1, 2, 3, 6])
def test_canonical_decomposition_valid_width_two(m):
    pd = canonical_decomposition(m)
    g = constraint_graph(build_chain(m, m, "-"))
    check = validate_path_decomposition(g, pd.bags)
    assert check.valid and check.width == 2
    assert pd.width == 2


def test_canonical_decomposition_bag_count():
    # four bags per gadget plus one connector per adjacent pair
    assert len(canonical_decomposition(1).bags) == 4
    assert len(canonical_decomposition(3).bags) == 14


def test_mutilated_decomposition_rejected():
    g = constraint_graph(build_chain(2, 2, "-"))
    bags = list(canonical_decomposition(2).bags)
    del bags[4]  # the connector bag: only cover of the inter-gadget edge
    check = validate_path_decomposition(g, bags)
    assert not check.valid
    assert check.violation.kind in ("uncovered-edge", "broken-interval")


def test_validate_chain_catches_corrupted_weights():
    good = build_chain(2, 2, "-")
    # flip the sign of one unary
    unaries = dict(good.unaries)
    unaries[7] = -unaries[7]
    bad = Instance(12, 0, unaries, good.binaries, good.labels)
    with pytest.raises(SelfValidationError):
        validate_chain(bad, 2, 2, "-")
    # shrink one binary into the dominance gap
    binaries = dict(good.binaries)
    binaries[(0, 1)] = 1
    bad = Instance(12, 0, good.unaries, binaries, good.labels)
    with pytest.raises(SelfValidationError):
        validate_chain(bad, 2, 2, "-")


@pytest.mark.parametrize("n,m,sign", [(2, 2, "+"), (3, 2, "-"), (4, 3, "+")])
def test_gain_dichotomy(n, m, sign):
    # every realizable gradient magnitude is the gadget's small step s_k or
    # at least the large-step floor S - s_k, and never zero
    inst = build_chain(n, m, sign)
    S = 2 * n + 1
    for v in range(inst.num_vars):
        k = inst.labels[v][0]
        s_k = n + 1 - k
        nbrs = [j for j, _ in inst.neighbors[v]]
        for bits in itertools.product((0, 1), repeat=len(nbrs)):
            x = [0] * inst.num_vars
            for j, b in zip(nbrs, bits):
                x[j] = b
            g = inst.gradient(v, x)
            assert g != 0
            assert abs(g) == s_k or abs(g) >= S - s_k


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_sublandscape_splicing(n, sign):
    # with the top linking variable (2,6) held at b, fitness differences over
    # the bottom gadget match the standalone one-gadget instance of sign b
    chain = build_chain(n, 2, sign)
    subs = {0: build_chain(n, 1, "-"), 1: build_chain(n, 1, "+")}
    top = [1, 1, 1, 0, 1, 0]  # arbitrary fixed top-gadget content
    for b in (0, 1):
        sub = subs[b]
        background = top[:5] + [b]
        ref = None
        for bits in itertools.product((0, 1), repeat=6):
            full = tuple(background) + bits
            delta = chain.fitness(full) - sub.fitness(bits)
            if ref is None:
                ref = delta
            assert delta == ref  # constant offset means identical landscape


def mutated(n, m, sign, unaries=(), binaries=()):
    """build_chain(n, m, sign) with some weights replaced (None deletes)."""
    good = build_chain(n, m, sign)
    u, b = dict(good.unaries), dict(good.binaries)
    for table, changes in ((u, unaries), (b, binaries)):
        for key, w in changes:
            if w is None:
                del table[key]
            else:
                table[key] = w(table[key]) if callable(w) else w
    return Instance(good.num_vars, 0, u, b, good.labels)


@pytest.mark.parametrize("n,m,sign,unaries,binaries,message", [
    (2, 2, "-", (), [((0, 1), None)],
     "expected 12 unaries and 13 binaries, got 12 and 12"),
    (3, 3, "-", [(2, 58)], (), "unary on (3, 3) must be negative, got 58"),
    (3, 2, "+", [(0, 6)], (), "unary on (2, 1) must be 7, got 6"),
    (3, 3, "-", [(2, -1)], (),
     "unary magnitude on (3, 3) does not dominate its outgoing binaries"),
    (2, 2, "-", (), [((0, 1), 1)],
     "incoming binaries (1,) on (2, 2) fall in the dominance gap (0, 81]"),
    (3, 3, "-", (), [((6, 7), 60)],
     "incoming binaries (60,) on (2, 2) fall in the dominance gap (0, 114]"),
    (4, 2, "+", (), [((0, 1), -9)],
     "zero gradient on (2, 1) for some neighborhood assignment"),
    (3, 3, "-", [(1, lambda w: w - 1)], (),
     "gradient magnitude 5 on (3, 2) is neither the small step 1 nor >= the "
     "large-step floor 6"),
    (3, 3, "-", [(9, lambda w: w + 1)], (),
     "gradient magnitude 3 on (2, 4) is neither the small step 2 nor >= the "
     "large-step floor 5"),
    # a second case per check: a missing unary, a positive unary below a '+'
    # top, an outgoing link, a slack that counts the negative outgoing
    # binary (5,6), and a gap hit only by two incoming binaries together
    (3, 3, "-", [(0, None)], (), "expected 18 unaries and 20 binaries, got 17 and 20"),
    (3, 2, "+", [(6, 5)], (), "unary on (1, 1) must be negative, got 5"),
    (3, 2, "-", (), [((5, 6), lambda w: w + 21)],
     "unary magnitude on (2, 6) does not dominate its outgoing binaries"),
    (3, 3, "-", (), [((3, 4), lambda w: w - 7)],
     "incoming binaries (273,) on (3, 5) fall in the dominance gap (0, 273]"),
    (3, 3, "-", (), [((4, 5), lambda w: w + 1)],
     "incoming binaries (266, -265) on (3, 6) fall in the dominance gap (0, 259]"),
])
def test_self_validation_messages(n, m, sign, unaries, binaries, message):
    # one mutated chain per failing check, with the exact first message
    with pytest.raises(SelfValidationError) as err:
        validate_chain(mutated(n, m, sign, unaries, binaries), n, m, sign)
    assert str(err.value) == message


@pytest.mark.parametrize("n,k,sign,scope,message", [
    (3, 2, "+", ((2, 1),), "unary on (2, 1) must be 7, got 6"),
    (3, 2, "-", ((2, 2),),
     "gradient magnitude 4 on (2, 2) is neither the small step 2 nor >= the "
     "large-step floor 5"),
    (4, 3, "-", ((3, 4), (3, 5)),
     "incoming binaries (180,) on (3, 5) fall in the dominance gap (0, 351]"),
])
def test_gadget_self_validation_messages(monkeypatch, n, k, sign, scope, message):
    # build_gadget checks its own weights, with s_k from its gadget index k:
    # one weight of _gadget_weights is corrupted by position (a unary less 1,
    # a binary halved)
    real = generator._gadget_weights

    def corrupted(*args):
        unaries, binaries, link = real(*args)
        if len(scope) == 1:
            unaries[scope[0][1] - 1] -= 1
        else:
            e = generator.GADGET_EDGES.index((scope[0][1], scope[1][1]))
            binaries[e] //= 2
        return unaries, binaries, link

    monkeypatch.setattr(generator, "_gadget_weights", corrupted)
    with pytest.raises(SelfValidationError) as err:
        build_gadget(n, k, sign)
    assert str(err.value) == message


def test_validate_chain_matches_the_reference(monkeypatch, kernel_calls):
    # seeded weight mutants and inputs at the kernel's limits (see
    # check_validations): every outcome, a pass or an exception's type and
    # message, must be the reference's, as dispatched and with the kernel
    # switched off.  Each mutant, the hand-made instances, the chain at
    # n = 2^40 - 1 and the label at n + 1 - k = -2^63 are checked on the
    # kernel where there is one; the scaled mutants, n = 2^40 and the label
    # past int64 are not
    kernel = bool(search._native_kernel())
    seen, on_kernel = check_validations(monkeypatch, kernel_calls, 4000)
    assert on_kernel == kernel * (4000 + 5)
    kinds = {kind for kind, _, _ in seen}
    assert kinds == {"pass", "SelfValidationError"}
    messages = {first for _, first, _ in seen}
    assert {"", "unary on", "unary magnitude", "incoming binaries", "zero gradient",
            "gradient magnitude"} <= messages
    assert ("SelfValidationError", "gradient magnitude", True) in seen
    # hubs are refused by their degree, on the kernel and by the Python loop,
    # before any subset of their weights is summed: one of degree 21, and a
    # star of degree 4 that passes every other check
    hub = Instance(22, 0, [(v, -100) for v in range(22)], [(v, 21, 1) for v in range(21)],
                   [(v, 1 + v // 6, 1 + v % 6) for v in range(22)])
    star = Instance(5, 0, [(v, -100) for v in range(5)], [(v, 4, -1) for v in range(4)],
                    [(v, 1, 1 + v) for v in range(5)])
    for inst, label, degree in ((hub, (4, 4), 21), (star, (1, 5), 4)):
        message = ("SelfValidationError",
                   f"variable {label} has {degree} neighbors; chain variables have at most 3")
        with monkeypatch.context() as off:
            off.setattr(search, "_native_kernel", lambda: None)
            assert validation_outcome(generator._validate_weights, inst, 1, "-", 1) == message
        before = kernel_calls["validate"]
        assert validation_outcome(generator._validate_weights, inst, 1, "-", 1) == message
        assert kernel_calls["validate"] - before == kernel
        assert not kernel or not search._validate64(inst, 1, "-", 0)


def test_validation_builds_kernel_arrays_only_at_int64():
    # validation runs on the kernel's int64 width alone: chain(20, 6, '+')
    # gets its int64 arrays from it, which orient and the ascents reuse, and
    # chain(60, 60, '+'), whose weight total passes 2^62, gets none
    widths = search._native_kernel()
    assert build_chain(60, 60, "+")._native is None
    arrays = build_chain(20, 6, "+")._native
    assert arrays.width is widths[0] if widths else arrays is None


@pytest.mark.parametrize("incoming,hub_unary", [
    ([-1] * 24, -100),
    ([-1] * 20 + [1000], -1),
    ([-1] * 29 + [1000], -1),
    ([-1] * 15 + [16], -1),
    ([-1] * 19 + [20], -1),
    ([-1] * 21 + [22], -1),
], ids=["negative-24", "mixed-21", "mixed-30", "gap-16", "gap-20", "gap-22"])
def test_validate_chain_refuses_a_hub_by_its_degree(monkeypatch, incoming, hub_unary):
    # a hub at index c whose c incoming weights would cost 2^c subsets to sum:
    # all -1, none in the gap; c - 1 of -1 and one +1000 with slack 1, none in
    # it either; c - 1 of -1 and one +c with slack 1, only the whole set in it.
    # It has the counts of an m-gadget chain, 6m unaries and 7m - 1 binaries
    # (its spare ones pair up sources), a label on every variable, and passes
    # every check before the degree, which comes before any subset is summed
    c = len(incoming)
    m = c // 6 + 1
    unaries = [(v, hub_unary if v == c else -2000) for v in range(6 * m)]
    binaries = ([(v, c, w) for v, w in enumerate(incoming)]
                + [(2 * p, 2 * p + 1, -1) for p in range(7 * m - 1 - c)])
    hub = Instance(6 * m, 0, unaries, binaries,
                   [(v, 1 + v // 6, 1 + v % 6) for v in range(6 * m)])
    monkeypatch.setattr(generator, "combinations", lambda *args: pytest.fail("subsets enumerated"))
    with pytest.raises(SelfValidationError) as err:
        validate_chain(hub, m, m, "-")
    assert str(err.value) == (f"variable {(1 + c // 6, 1 + c % 6)} has {c} neighbors; "
                              "chain variables have at most 3")


def test_validate_chain_names_a_missing_label():
    # a variable without a label, and a chain without the top's (m, 1), are
    # refused as chains, not with the lookup's own error
    good = build_chain(3, 2, "-")
    labels = dict(good.labels)
    del labels[7]
    for labels, message in ((labels, "variable 7 has no label"),
                            (None, "no variable labeled (2, 1)")):
        inst = Instance(good.num_vars, 0, dict(good.unaries), dict(good.binaries), labels)
        with pytest.raises(SelfValidationError) as err:
            validate_chain(inst, 3, 2, "-")
        assert str(err.value) == message
