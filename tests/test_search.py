import copy
import csv
import ctypes
import dataclasses
import hashlib
import inspect
import os
import pickle
import random
import shlex
import shutil
import subprocess
import struct
import sys
import sysconfig
import threading
import timeit
import tracemalloc
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    ascent_graph_cases,
    check_semismooths,
    check_validations,
    count_calls,
    dense_instance,
    random_bits,
    random_instance,
    star,
    weighted_star,
)
from vcsp_landscape import (
    Instance,
    Trace,
    ascent_graph,
    build_chain,
    constraint_graph,
    build_gadget,
    core,
    expected_peak,
    first_improvement_ascent,
    format_assignment,
    is_local_peak,
    landscape,
    peak_of_oriented,
    predicted_ascent_length,
    random_ascent,
    replay,
    run_trials,
    search,
    shortest_ascent_length,
    sign_depends,
    steepest_ascent,
    validate_path_decomposition,
    write_trace_csv,
)
from vcsp_landscape.errors import (
    BitValueError,
    EmptyTrialError,
    IndexOutOfRangeError,
    InvalidArgumentError,
    NoRecordedStepsError,
    NotOrientedError,
    RangeError,
    ReplayMismatchError,
    TieEncounteredError,
    VcspError,
)


@pytest.fixture
def reference(monkeypatch):
    """steepest_ascent on the Python loop, with the native kernel switched off."""
    def run(*args, **kwargs):
        with monkeypatch.context() as mp:
            mp.setattr(search, "_native_kernel", lambda: None)
            return steepest_ascent(*args, **kwargs)
    return run


BIG = 2 ** 64 + 1  # scales an instance past int64, into the 128-bit kernel


def scaled(inst, k):
    return Instance(inst.num_vars, inst.constant * k,
                    {i: w * k for i, w in inst.unaries.items()},
                    {ij: w * k for ij, w in inst.binaries.items()}, inst.labels)


def both_widths():
    """Whether the kernel was built here at both widths (int64 and 128-bit)."""
    return len(search._native_kernel() or ()) == 2


def width_bound(inst):
    """The bound of the kernel width that steepest ascent ran on for inst, or
    None for the Python loop."""
    return inst._native.width.bound if inst._native else None


def native(inst, start, **kwargs):
    """steepest_ascent as dispatched; checks that it ran on the narrowest
    kernel width built here that is exact on inst (test_native_kernel_loads
    checks that both widths were built)."""
    tr = steepest_ascent(inst, start, **kwargs)
    total = (abs(inst.constant) + sum(map(abs, inst.unaries.values()))
             + sum(map(abs, inst.binaries.values())))
    widths = search._native_kernel() or ()
    want = next((w.bound for w in widths if total < w.bound), None)
    assert width_bound(inst) == want
    return tr


def outcome(run, *args, **kwargs):
    """A run's Trace, or the message of the TieEncounteredError it raised."""
    try:
        return run(*args, **kwargs)
    except TieEncounteredError as e:
        return f"TieEncounteredError: {e}"


def test_steepest_gadget_plus_trace(gadget_plus):
    # the canonical seven-step run: up the AND chain, double flip of the
    # linking variable at steps 4 and 7, small step on position 4 in between
    tr = steepest_ascent(gadget_plus, (0,) * 6)
    labels = [gadget_plus.label_of(v) for v, _, _ in tr.steps]
    assert labels == [(1, 1), (1, 2), (1, 3), (1, 6), (1, 4), (1, 5), (1, 6)]
    assert [g for _, g, _ in tr.steps] == [3, 2, 3, 3, 1, 3, 3]
    assert tr.end == (1, 1, 1, 1, 1, 0)
    assert tr.tie_events == 0
    assert tr.fitness_end == 18 and tr.fitness_start == 0
    assert tr.min_gain == 1


def test_steepest_gadget_minus_trace(gadget_minus):
    tr = steepest_ascent(gadget_minus, (1, 1, 1, 1, 1, 0))
    labels = [gadget_minus.label_of(v) for v, _, _ in tr.steps]
    assert labels == [(1, 1), (1, 4), (1, 5), (1, 6), (1, 2), (1, 3), (1, 6)]
    assert [g for _, g, _ in tr.steps] == [2, 3, 3, 3, 1, 3, 3]
    assert tr.end == (0,) * 6
    assert tr.tie_events == 0


def test_steepest_from_peak_is_empty(gadget_plus):
    tr = steepest_ascent(gadget_plus, (1, 1, 1, 1, 1, 0))
    assert tr.num_steps == 0
    assert tr.steps == ()
    assert tr.min_gain is None
    assert tr.start == tr.end


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (4, 2), (6, 6), (8, 8), (8, 5)])
def test_exponential_ascent_lengths_small(sign, n, m):
    inst = build_chain(n, m, sign)
    start = expected_peak(n, m, "-" if sign == "+" else "+")
    goal = expected_peak(n, m, sign)
    tr = steepest_ascent(inst, start)
    assert tr.num_steps == predicted_ascent_length(m)
    assert tr.end == goal
    assert tr.tie_events == 0
    assert tr.min_gain >= n + 1 - m
    replay(inst, tr)


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("m", [2, 3, 5])
def test_ascent_recursion_structure(sign, m):
    # the top gadget contributes blocks of 4 then 3 flips, with one full
    # sub-run of the (m-1)-gadget chain nested inside each gap
    n = m
    inst = build_chain(n, m, sign)
    start = expected_peak(n, m, "-" if sign == "+" else "+")
    tr = steepest_ascent(inst, start)
    ks = [inst.labels[v][0] for v, _, _ in tr.steps]
    inner = predicted_ascent_length(m - 1)
    assert ks[:4] == [m] * 4
    assert all(k < m for k in ks[4:4 + inner])
    assert ks[4 + inner:7 + inner] == [m] * 3
    assert all(k < m for k in ks[7 + inner:])
    assert len(ks) == 7 + 2 * inner


def test_tie_policy():
    pair = Instance(2, 0, [(0, 1), (1, 1)], [])
    tr = steepest_ascent(pair, (0, 0))
    assert [v for v, _, _ in tr.steps] == [0, 1]  # lowest index first
    assert tr.tie_events == 1
    with pytest.raises(TieEncounteredError):
        steepest_ascent(pair, (0, 0), tie_policy="error")
    with pytest.raises(ValueError):
        steepest_ascent(pair, (0, 0), tie_policy="bogus")


def test_max_steps_guard(gadget_plus):
    tr = steepest_ascent(gadget_plus, (0,) * 6, max_steps=3)
    assert not tr.complete
    assert tr.num_steps == 3
    assert gadget_plus.improving_moves(tr.end)  # stopped short of the peak
    full = steepest_ascent(gadget_plus, (0,) * 6, max_steps=7)
    assert full.complete


def test_random_ascent_terminates_at_unique_peak(gadget_plus):
    for seed in range(12):
        tr = random_ascent(gadget_plus, (0,) * 6, seed=seed)
        assert tr.end == (1, 1, 1, 1, 1, 0)
        assert tr.seed == seed
        replay(gadget_plus, tr)


def test_random_ascent_reproducible(chain22_minus):
    start = expected_peak(2, 2, "+")
    a = random_ascent(chain22_minus, start, seed=424242)
    b = random_ascent(chain22_minus, start, seed=424242)
    assert a.steps == b.steps
    assert a.end == b.end


def test_random_ascent_from_peak(gadget_minus):
    tr = random_ascent(gadget_minus, (0,) * 6, seed=1)
    assert tr.num_steps == 0


def test_first_improvement_reaches_peak(gadget_plus):
    tr = first_improvement_ascent(gadget_plus, (0,) * 6)
    assert tr.end == (1, 1, 1, 1, 1, 0)
    assert all(g >= 1 for _, g, _ in tr.steps)
    replay(gadget_plus, tr)
    assert first_improvement_ascent(gadget_plus, (1, 1, 1, 1, 1, 0)).num_steps == 0


def test_first_improvement_scan_order(gadget_plus):
    tr = first_improvement_ascent(gadget_plus, (0,) * 6, scan_order=range(5, -1, -1))
    assert tr.end == (1, 1, 1, 1, 1, 0)
    with pytest.raises(ValueError):
        first_improvement_ascent(gadget_plus, (0,) * 6, scan_order=[0, 0, 1, 2, 3, 4])


def test_all_methods_end_at_the_oriented_peak():
    rng = random.Random(3)
    for n, m, sign in [(2, 1, "+"), (2, 2, "-"), (3, 2, "+")]:
        inst = build_chain(n, m, sign)
        peak = peak_of_oriented(inst)
        for _ in range(5):
            start = tuple(rng.randint(0, 1) for _ in range(inst.num_vars))
            assert steepest_ascent(inst, start).end == peak
            assert random_ascent(inst, start, seed=rng.randrange(1000)).end == peak
            assert first_improvement_ascent(inst, start).end == peak


def test_replay_detects_corruption(gadget_plus):
    tr = steepest_ascent(gadget_plus, (0,) * 6)
    truncated = dataclasses.replace(tr, steps=tr.steps[:-1])
    with pytest.raises(ValueError):
        replay(gadget_plus, truncated)
    v, g, f = tr.steps[3]
    wrong_gain = dataclasses.replace(tr, steps=tr.steps[:3] + ((v, g + 1, f),) + tr.steps[4:])
    with pytest.raises(ValueError):
        replay(gadget_plus, wrong_gain)
    wrong_fitness = dataclasses.replace(tr, steps=tr.steps[:3] + ((v, g, f + 1),) + tr.steps[4:])
    with pytest.raises(ValueError):
        replay(gadget_plus, wrong_fitness)
    for bad in (-1, 6):
        bad_var = dataclasses.replace(tr, steps=tr.steps[:3] + ((bad, g, f),) + tr.steps[4:])
        with pytest.raises(IndexOutOfRangeError):
            replay(gadget_plus, bad_var)


def replay_outcome(inst, trace):
    """None when replay accepts trace, else the class and message it raised."""
    try:
        replay(inst, trace)
    except Exception as e:
        return type(e).__name__, str(e)
    return None


def both_replays(monkeypatch, inst, trace):
    """replay's outcome as dispatched and with the native kernel switched off."""
    got = replay_outcome(inst, trace)
    with monkeypatch.context() as mp:
        mp.setattr(search, "_native_kernel", lambda: None)
        want = replay_outcome(inst, trace)
    return got, want


def packed(steps):
    """steps as a search.Steps, the kernel's int64 records, where every step
    is three ints in int64 (struct packs bools as ints too), else as a
    tuple.  replay and write_trace_csv take their kernel paths for a Steps
    only, so a trace edited by hand reaches the kernel through this."""
    steps = tuple(steps)
    try:
        return search.Steps(b"".join(struct.pack("3q", *step) for step in steps))
    except (TypeError, struct.error):
        return steps


def with_steps(trace, steps):
    """trace with steps, packed where they pack."""
    return dataclasses.replace(trace, steps=packed(steps))


def with_step(trace, t, step):
    """trace with its step t (from 1) replaced by step, packed where it packs."""
    return with_steps(trace, trace.steps[:t - 1] + (step,) + trace.steps[t:])


def test_replay_failure_messages(monkeypatch, gadget_plus, kernel_calls):
    # every mismatch replay reports, in the order it checks a step: the
    # index, the recorded gain against the recomputed one, the sign of the
    # gain (flipping variable 1 first loses 13: recorded truthfully, it still
    # fails), the running fitness; then the end, the final fitness, the step
    # count and the completion claim.  As dispatched and on the Python loop
    tr = steepest_ascent(gadget_plus, (0,) * 6)
    stopped = steepest_ascent(gadget_plus, (0,) * 6, max_steps=3)
    assert tr.steps[3] == (5, 3, 11) and stopped.end == (1, 1, 1, 0, 0, 0)
    assert gadget_plus.unaries[1] == -13
    mismatch = "ReplayMismatchError"
    cases = [
        (tr, None),
        (stopped, None),
        (dataclasses.replace(tr, fitness_start=1), mismatch, "recorded start fitness 1, computed 0"),
        (with_step(tr, 4, (6, 3, 11)), "IndexOutOfRangeError", "variable index 6 not in [0, 6)"),
        (with_step(tr, 4, (-1, 3, 11)), "IndexOutOfRangeError", "variable index -1 not in [0, 6)"),
        (with_step(tr, 4, (5, 4, 11)), mismatch, "step 4: recorded gain 4, computed 3"),
        (with_step(tr, 4, (5, -3, 11)), mismatch, "step 4: recorded gain -3, computed 3"),
        (with_steps(tr, ((1, -13, -13),) + tr.steps), mismatch,
         "step 1: non-improving recorded step"),
        (with_step(tr, 4, (5, 3, 12)), mismatch, "step 4: recorded fitness 12, computed 11"),
        (with_step(tr, 7, (5, 3, 17)), mismatch, "step 7: recorded fitness 17, computed 18"),
        (with_steps(tr, tr.steps + ((5, -3, 15),)), mismatch,
         "step 8: non-improving recorded step"),
        (dataclasses.replace(tr, end=(0,) * 6), mismatch, "replayed end differs from recorded end"),
        (dataclasses.replace(tr, fitness_end=19), mismatch,
         "replayed final fitness differs from recorded value"),
        (dataclasses.replace(tr, num_steps=8), mismatch,
         "num_steps differs from the recorded step list"),
        (dataclasses.replace(stopped, complete=True), mismatch,
         "trace claims completion but end is not a local peak"),
        (dataclasses.replace(tr, steps=packed(()), num_steps=0, end=tr.start, fitness_end=0),
         mismatch,
         "trace claims completion but end is not a local peak"),
        (dataclasses.replace(tr, steps=None), "NoRecordedStepsError",
         "trace has no recorded steps to replay"),
        (dataclasses.replace(tr, start=(0,) * 5), "LengthMismatchError",
         "assignment has length 5, instance has 6 variables"),
    ]
    for bad, *want in cases:
        want = tuple(want) if want[0] else None
        assert both_replays(monkeypatch, gadget_plus, bad) == (want, want)
    assert kernel_calls["replay"] >= 13 or not search._native_kernel()


def test_replay_of_malformed_steps(monkeypatch, gadget_plus):
    # steps that are not triples of ints in int64 replay as the Python loop
    # replays them: it unpacks each step and compares with ==, so a float
    # equal to the gain passes and a string never does
    tr = steepest_ascent(gadget_plus, (0,) * 6)
    cases = [
        (with_step(tr, 2, (1, 2)), "ValueError"),
        (with_step(tr, 2, (1, 2, 5, 0)), "ValueError"),
        (dataclasses.replace(tr, steps=((0, 3),) + ((1, 2, 5, 0),) + tr.steps[2:]), "ValueError"),
        (with_step(tr, 2, 1), "TypeError"),
        (with_step(tr, 2, (None, 2, 5)), "TypeError"),
        (with_step(tr, 2, (1, "2", 5)), "ReplayMismatchError"),
        (with_step(tr, 2, (1, 2, 2 ** 70)), "ReplayMismatchError"),
        (with_step(tr, 2, (1, 2 ** 64 + 2, 5)), "ReplayMismatchError"),
        (with_step(tr, 2, (1, -2 ** 63 - 1, 5)), "ReplayMismatchError"),
        (with_step(tr, 2, (2 ** 63, 2, 5)), "IndexOutOfRangeError"),
        (with_step(tr, 2, (1, 2.0, 5.0)), None),
        (with_step(tr, 2, (True, 2, 5)), None),
        (dataclasses.replace(tr, steps=list(tr.steps)), None),
    ]
    for bad, kind in cases:
        got, want = both_replays(monkeypatch, gadget_plus, bad)
        assert got == want
        assert (got and got[0]) == kind


def test_replay_on_an_equal_instance_that_has_not_run(monkeypatch):
    # a trace replays on any instance equal to the one it ran on, also one
    # that no ascent has run on yet
    inst = build_chain(5, 5, "+")
    tr = steepest_ascent(inst, expected_peak(5, 5, "-"))
    fresh = Instance(inst.num_vars, inst.constant, inst.unaries, inst.binaries, inst.labels)
    assert fresh == inst and fresh._native is None
    assert both_replays(monkeypatch, fresh, tr) == (None, None)
    if search._native_kernel():  # replay built the kernel arrays
        assert fresh._native.width is search._native_kernel()[0]
    bad = with_step(tr, 100, (tr.steps[99][0], tr.steps[99][1], tr.steps[99][2] + 1))
    fresh = Instance(inst.num_vars, inst.constant, inst.unaries, inst.binaries, inst.labels)
    want = ("ReplayMismatchError",
            f"step 100: recorded fitness {tr.steps[99][2] + 1}, computed {tr.steps[99][2]}")
    assert both_replays(monkeypatch, fresh, bad) == (want, want)


def graph_outcome(inst, start, cap):
    """ascent_graph's AscentGraph, or the class and message it raised."""
    try:
        return ascent_graph(inst, start, cap=cap)
    except Exception as e:
        return type(e).__name__, str(e)


def test_ascent_graphs_match_the_python_loop(monkeypatch, kernel_calls):
    # as dispatched and with the native kernel switched off: the same
    # AscentGraph, or the same error class and message, at every cap around
    # the graph's size; the kernel runs exactly the int64 cases with d <= 64
    on_kernel = check_ascent_graphs(monkeypatch, kernel_calls)
    assert on_kernel > 100 or not search._native_kernel()


def check_ascent_graphs(monkeypatch, calls):
    """test_ascent_graphs_match_the_python_loop; returns the number of cases
    that ran on the kernel.  Starts that are numpy arrays join where numpy
    is installed."""
    try:
        import numpy as np
    except ImportError:
        np = None
    cases = ascent_graph_cases()
    rng = random.Random(2718)
    for n in (1, 2):
        for m in range(1, n + 1):
            for sign in "+-":
                inst = build_chain(n, m, sign)
                cases += [(inst, start) for start in (
                    expected_peak(n, m, "-" if sign == "+" else "+"), (1,) * (6 * m),
                    random_bits(rng, 6 * m))]
    cases.append((build_chain(3, 3, "-"), expected_peak(3, 3, "+")))
    # d = 64 and 65: variable 63 flips up, so masks reach 2^63; d = 65 runs
    # on the Python loop
    for d in (64, 65):
        inst, start = high_mask_case(d)
        cases += [(inst, start), (inst, tuple(map(bool, start)))]
        if np:
            cases.append((inst, np.array(start)))
    if np:
        cases.append((build_chain(2, 2, "+"), np.zeros(12, dtype=np.int64)))
    on_kernel = high = 0
    for inst, start in cases:
        before = calls["ascent_graph"]
        with monkeypatch.context() as mp:
            mp.setattr(search, "_native_kernel", lambda: None)
            want = graph_outcome(inst, start, landscape.ASCENT_GRAPH_CAP)
            n = len(want.nodes)
            caps = [landscape.ASCENT_GRAPH_CAP, -1, 0, 1, n - 1, n, 2 ** 64, -2 ** 70]
            wants = [graph_outcome(inst, start, cap) for cap in caps]
        assert calls["ascent_graph"] == before  # none without a kernel
        gots = [graph_outcome(inst, start, cap) for cap in caps]
        assert gots == wants and list(map(hash, gots)) == list(map(hash, wants))
        assert [pickle.loads(pickle.dumps(got)) for got in gots] == wants
        total = (abs(inst.constant) + sum(map(abs, inst.unaries.values()))
                 + sum(map(abs, inst.binaries.values())))
        kernel = bool(search._native_kernel()) and total < 2 ** 62 and inst.num_vars <= 64
        assert calls["ascent_graph"] - before == len(caps) * kernel
        on_kernel += kernel
        high += max(want.nodes) >= 2 ** 63
        # a cap that is not an int runs on the Python loop
        assert graph_outcome(inst, start, n - 0.5) == wants[5]
        assert calls["ascent_graph"] - before == len(caps) * kernel
    assert high == (6 if np else 4)
    return on_kernel


def high_mask_case(d):
    """An instance of d variables and a start from which variable 63 flips
    up, so that masks reach 2^63."""
    inst = Instance(d, 0, [(v, 1 if v % 2 else -1) for v in range(d)],
                    [(0, 63, 1), (60, 63, -3), (61, 62, 2), (62, 63, 2)])
    start = [v % 2 for v in range(d)]
    for v in (0, 60, 61, 62, 63):
        start[v] ^= 1
    return inst, tuple(start)


def test_packed_ascent_graph_keeps_the_tuple_contract(monkeypatch):
    # the kernel's AscentGraph, whose nodes, fitness, offsets and edges are
    # PackedInts, behaves as the Python loop's, whose four are tuples:
    # equality both ways, hash, repr, pickle, deepcopy and astuple; len,
    # negative and out-of-range indexing, slices, iteration, index, count
    # and `in`; and immutability.  A graph of one node and no edges, from
    # the peak, one of 1,087 nodes and one whose masks reach 2^63
    if search._native_kernel() is None:
        pytest.skip("no native kernel on this machine")
    c3 = build_chain(3, 3, "+")
    for inst, start in ((c3, expected_peak(3, 3, "+")), (c3, expected_peak(3, 3, "-")),
                        high_mask_case(64)):
        got = ascent_graph(inst, start)
        with monkeypatch.context() as mp:
            mp.setattr(search, "_native_kernel", lambda: None)
            want = ascent_graph(inst, start)
        fields = ("nodes", "fitness", "offsets", "edges")
        assert {type(getattr(got, f)) for f in fields} == {search.PackedInts}
        assert {type(getattr(want, f)) for f in fields} == {tuple}
        assert got == want and want == got and not got != want
        assert hash(got) == hash(want) and repr(got) == repr(want)
        for copied in (pickle.loads(pickle.dumps(got)), copy.deepcopy(got)):
            assert copied == want and hash(copied) == hash(want) and repr(copied) == repr(want)
            assert type(copied.edges) is search.PackedInts
        assert dataclasses.astuple(got) == dataclasses.astuple(want)
        with pytest.raises(dataclasses.FrozenInstanceError):
            got.nodes = want.nodes
        for f in fields:
            seq, ref = getattr(got, f), getattr(want, f)
            assert seq == ref and ref == seq and not seq != ref and not ref != seq
            assert hash(seq) == hash(ref) and repr(seq) == repr(ref)
            assert list(seq) == list(ref) and list(reversed(seq)) == list(reversed(ref))
            assert (seq == list(ref)) is (ref == list(ref)) is False  # a tuple is not a list
            assert seq != ref + (0,) and ref + (0,) != seq
            n = len(seq)
            assert n == len(ref) and bool(seq) == bool(ref)
            for i in {0, 1, n - 1, -1, -n} & set(range(-n, n)):
                assert seq[i] == ref[i] and type(seq[i]) is int
            for i in (n, -n - 1, 2 ** 70):
                with pytest.raises(IndexError):
                    seq[i]
            for part in (slice(None), slice(1, n - 1), slice(5, 2), slice(None, None, 2),
                         slice(None, None, -3), slice(-4, None)):
                assert seq[part] == ref[part] and ref[part] == seq[part]
                assert type(seq[part]) is search.PackedInts
            for value in {*ref[:3], *ref[-1:], max(ref, default=0) + 1, -1, 2 ** 64, 1.0, "1"}:
                assert (value in seq) is (value in ref)
                assert seq.count(value) == ref.count(value)
                for bounds in ((), (1,), (-3,), (0, 2)):
                    try:
                        want_index = ref.index(value, *bounds)
                    except ValueError:
                        with pytest.raises(ValueError):
                            seq.index(value, *bounds)
                    else:
                        assert seq.index(value, *bounds) == want_index
            with pytest.raises(TypeError):
                seq[0] = 0
            for edit in (lambda: setattr(seq, "_array", None), lambda: delattr(seq, "_array"),
                         lambda: setattr(seq, "extra", 0)):
                with pytest.raises(AttributeError, match="^PackedInts is immutable$"):
                    edit()
            assert seq == ref


def orient_outcome(inst):
    """orient's Orientation, or the class and message it raised."""
    try:
        return landscape.orient(inst)
    except Exception as e:
        return type(e).__name__, str(e)


def count_orient_loops(monkeypatch):
    """Counts the runs of orient's Python loop, landscape._orient_loop."""
    calls = {"loop": 0}
    loop = landscape._orient_loop

    def counted(inst):
        calls["loop"] += 1
        return loop(inst)
    monkeypatch.setattr(landscape, "_orient_loop", counted)
    return calls


def test_orient_runs_on_the_kernel_where_it_can(monkeypatch, kernel_calls):
    # on the kernel for an instance on the int64 width within the degree cap;
    # on the Python loop, with the same arcs and order, past 2^64, above the
    # cap (where it raises) and without a kernel
    kernel = bool(search._native_kernel())
    loops = count_orient_loops(monkeypatch)
    inst = build_chain(4, 3, "+")
    o = landscape.orient(inst)
    assert o.oriented and (kernel_calls["orient"], loops["loop"]) == (kernel, not kernel)
    assert landscape.orient(scaled(inst, BIG)) == o
    assert (kernel_calls["orient"], loops["loop"]) == (kernel, 1 + (not kernel))
    # the kernel sees the degree above the cap and hands the call back
    assert orient_outcome(star(21)) == (
        "TooLargeError", "variable 0 has 21 neighbors; tables over neighborhood "
        "assignments are capped at 20")
    assert (kernel_calls["orient"], loops["loop"]) == (2 * kernel, 2 + (not kernel))
    with monkeypatch.context() as mp:
        mp.setattr(search, "_native_kernel", lambda: None)
        assert landscape.orient(build_chain(4, 3, "+")) == o
    assert (kernel_calls["orient"], loops["loop"]) == (2 * kernel, 3 + (not kernel))
    assert check_orients(monkeypatch, kernel_calls) == 253 * kernel  # every case


def check_orients(monkeypatch, calls):
    """orient as dispatched against its Python loop: the same Orientation,
    witnesses included, or the same error, on seeded random and dense +-1
    instances (conflicts and zero gradients), weighted stars of degree 1 to
    12, star(5) above a cap of 4 and star(4) at it.  Returns the number of
    kernel calls, star(5)'s included."""
    rng = random.Random(31)
    cases = [Instance(0), Instance(3), Instance(2, 0, [(0, 1), (1, 1)], [(0, 1, -3)])]
    cases += [random_instance(rng, max_vars=9, max_weight=(3, 20)[t % 2]) for t in range(160)]
    cases += [dense_instance(rng, rng.randint(2, 8), (-1, 1)) for _ in range(40)]
    cases += [weighted_star(rng, d) for d in range(1, 13) for _ in range(4)]
    on_kernel = conflicts = 0
    for cap, insts in ((core.TABLE_DEGREE_CAP, cases), (4, [star(4), star(5)])):
        with monkeypatch.context() as mp:
            mp.setattr(core, "TABLE_DEGREE_CAP", cap)
            for inst in insts:
                with monkeypatch.context() as off:
                    off.setattr(search, "_native_kernel", lambda: None)
                    want = orient_outcome(inst)
                before = calls["orient"]
                assert orient_outcome(inst) == want, core.to_text(inst)
                on_kernel += calls["orient"] - before
                conflicts += getattr(want, "conflict", None) is not None
    assert conflicts >= 20
    return on_kernel


@pytest.mark.parametrize("scale", [1, BIG], ids=["int64", "int128"])
def test_replay_outcomes_match_the_python_loop(monkeypatch, kernel_calls, scale):
    # seeded instances and chains, each trace corrupted once at a random step
    # in one of seven ways: replay as dispatched and the Python loop give the
    # same outcome, accepted or the same class and message.  Only instances
    # on the kernel's int64 width replay on the kernel
    check_replay_outcomes(monkeypatch, scale, 240)
    assert (kernel_calls["replay"] > 120) == (scale == 1 and bool(search._native_kernel()))


def check_replay_outcomes(monkeypatch, scale, count):
    """test_replay_outcomes_match_the_python_loop on count seeded traces."""
    rng = random.Random(1357)
    kinds = ["gain", "fitness", "var", "out of range", "drop", "repeat", "none"]
    failed = 0
    for t in range(count):
        if t % 4:
            inst = random_instance(rng, max_vars=14, max_weight=rng.choice((3, 20)))
        else:
            n = rng.randint(1, 5)
            inst = build_chain(n, rng.randint(1, n), rng.choice("+-"))
        inst = scaled(inst, scale)
        start = random_bits(rng, inst.num_vars)
        if t % 2:
            tr = steepest_ascent(inst, start)
        else:
            tr = random_ascent(inst, start, seed=rng.randrange(2 ** 32))
        kind = kinds[t % len(kinds)]
        if tr.steps and kind != "none":
            k = rng.randrange(len(tr.steps))
            v, g, f = tr.steps[k]
            steps = list(tr.steps)
            if kind == "gain":
                steps[k] = (v, g + rng.choice((-1, 1)) * scale, f)
            elif kind == "fitness":
                steps[k] = (v, g, f + rng.choice((-1, 1)))
            elif kind == "var":
                steps[k] = (rng.randrange(inst.num_vars), g, f)
            elif kind == "out of range":
                steps[k] = (rng.choice((-1, inst.num_vars, 2 ** 40)), g, f)
            elif kind == "drop":
                del steps[k]
            else:
                steps.insert(k, steps[k])
            tr = with_steps(tr, steps)
        got, want = both_replays(monkeypatch, inst, tr)
        assert got == want
        failed += got is not None
    assert count // 3 <= failed < count


def test_replay_past_int64_runs_on_the_python_loop(monkeypatch, kernel_calls):
    # chain(5, 5, '+') scaled by 2^64 + 1 runs on the 128-bit width or the
    # Python loop, and its steps are a tuple, not the kernel's int64 records
    # (they do not fit in int64): replay checks it in Python, with the same
    # messages
    inst = scaled(build_chain(5, 5, "+"), BIG)
    tr = steepest_ascent(inst, expected_peak(5, 5, "-"))
    v, g, f = tr.steps[50]
    bad = with_step(tr, 51, (v, g, f - 1))
    assert type(tr.steps) is type(bad.steps) is tuple
    assert both_replays(monkeypatch, inst, tr) == (None, None)
    want = ("ReplayMismatchError", f"step 51: recorded fitness {f - 1}, computed {f}")
    assert both_replays(monkeypatch, inst, bad) == (want, want)
    assert kernel_calls["replay"] == 0


def test_replay_requires_recorded_steps(gadget_plus):
    tr = steepest_ascent(gadget_plus, (0,) * 6, record_steps=False)
    assert tr.steps is None
    assert tr.num_steps == 7
    with pytest.raises(ValueError):
        replay(gadget_plus, tr)


def test_argument_and_replay_errors_are_vcsp_errors(gadget_plus, two_peak_pair, tmp_path):
    # every site that raised a bare ValueError raises a VcspError that is
    # still a ValueError
    tr = steepest_ascent(gadget_plus, (0,) * 6)
    summary = steepest_ascent(gadget_plus, (0,) * 6, record_steps=False)
    stopped = steepest_ascent(gadget_plus, (0,) * 6, max_steps=3)
    f0 = tr.fitness_start
    v, g, f = tr.steps[3]
    mismatches = [
        dataclasses.replace(tr, fitness_start=f0 + 1),
        dataclasses.replace(tr, steps=tr.steps[:3] + ((v, g + 1, f),) + tr.steps[4:]),
        dataclasses.replace(tr, steps=((1, -13, f0 - 13),) + tr.steps),
        dataclasses.replace(tr, steps=tr.steps[:3] + ((v, g, f + 1),) + tr.steps[4:]),
        dataclasses.replace(tr, end=(0,) * 6),
        dataclasses.replace(tr, fitness_end=tr.fitness_end + 1),
        dataclasses.replace(tr, num_steps=tr.num_steps + 1),
        dataclasses.replace(stopped, complete=True),
    ]
    calls = [
        (InvalidArgumentError, lambda: steepest_ascent(gadget_plus, (0,) * 6, tie_policy="x")),
        (InvalidArgumentError,
         lambda: first_improvement_ascent(gadget_plus, (0,) * 6, scan_order=[0] * 6)),
        (InvalidArgumentError, lambda: run_trials(gadget_plus, (0,) * 6, method="x")),
        (InvalidArgumentError, lambda: sign_depends(gadget_plus, 1, 1)),
        (InvalidArgumentError,
         lambda: validate_path_decomposition(constraint_graph(gadget_plus), [])),
        (NotOrientedError, lambda: peak_of_oriented(two_peak_pair)),
        (NoRecordedStepsError, lambda: replay(gadget_plus, summary)),
        (NoRecordedStepsError, lambda: write_trace_csv(summary, gadget_plus, tmp_path / "t")),
        *((ReplayMismatchError, lambda bad=bad: replay(gadget_plus, bad)) for bad in mismatches),
    ]
    messages = set()
    for kind, call in calls:
        with pytest.raises(VcspError) as e:
            call()
        assert type(e.value) is kind and isinstance(e.value, ValueError)
        messages.add(str(e.value))
    assert len(messages) == len(calls)  # each call reached a different site


def test_summary_mode_matches_recorded_mode(chain22_plus):
    a = steepest_ascent(chain22_plus, (0,) * 12)
    b = steepest_ascent(chain22_plus, (0,) * 12, record_steps=False)
    assert (a.num_steps, a.end, a.fitness_end, a.min_gain, a.tie_events) == \
        (b.num_steps, b.end, b.fitness_end, b.min_gain, b.tie_events)


def test_run_trials_random(chain22_minus):
    start = expected_peak(2, 2, "+")
    stats = run_trials(chain22_minus, start, method="random", trials=50, seed=9)
    assert stats.trials == 50 and len(stats.step_counts) == 50
    assert stats.mean * 50 == sum(stats.step_counts)
    assert stats.min <= stats.mean <= stats.max
    again = run_trials(chain22_minus, start, method="random", trials=50, seed=9)
    assert again.step_counts == stats.step_counts


def test_run_trials_deterministic_methods(gadget_plus):
    stats = run_trials(gadget_plus, (0,) * 6, method="steepest", trials=5)
    assert set(stats.step_counts) == {7}
    assert stats.mean == Fraction(7)
    assert stats.seed is None
    # the count is taken through operator.index: a bool is an int
    one = run_trials(gadget_plus, (0,) * 6, method="steepest", trials=True)
    assert one.trials == 1 and type(one.trials) is int and one.step_counts == (7,)


@pytest.mark.parametrize("method,engine", [("steepest", "steepest_ascent"),
                                           ("first", "first_improvement_ascent")])
def test_run_trials_runs_a_deterministic_method_once(monkeypatch, method, engine):
    # every trial of a deterministic method takes the same path, so the batch
    # runs one ascent; its options still apply
    inst = build_chain(4, 4, "+")
    start = expected_peak(4, 4, "-")
    want = getattr(search, engine)(inst, start).num_steps
    calls = []
    run = getattr(search, engine)
    monkeypatch.setattr(search, engine, lambda *a, **kw: calls.append(1) or run(*a, **kw))
    stats = run_trials(inst, start, method=method, trials=100)
    assert len(calls) == 1
    assert stats == search.TrialStats(method, 100, (want,) * 100, Fraction(want), want, want,
                                      None)
    limited = run_trials(inst, start, method=method, trials=3, max_steps=5)
    assert limited.step_counts == (5, 5, 5) and len(calls) == 2
    if method == "steepest":
        with pytest.raises(TieEncounteredError):
            run_trials(Instance(2, 0, [(0, 1), (1, 1)], []), (0, 0), method=method, trials=3,
                       tie_policy="error")


def test_run_trials_rejects_empty(gadget_plus):
    with pytest.raises(EmptyTrialError):
        run_trials(gadget_plus, (0,) * 6, trials=0)
    with pytest.raises(ValueError):
        run_trials(gadget_plus, (0,) * 6, method="annealing", trials=1)
    with pytest.raises(InvalidArgumentError, match=r"^trials must be an integer, got 2\.5$"):
        run_trials(gadget_plus, (0,) * 6, method="steepest", trials=2.5)


@pytest.mark.parametrize("seed", ["", b"", (), None, 2.5])
def test_run_trials_rejects_a_seed_that_is_not_an_int(gadget_plus, seed):
    # checked before the per-trial seeds seed * 2^32 + t are made, which
    # would repeat a sequence 2^32 times or raise a bare TypeError
    with pytest.raises(InvalidArgumentError, match=r"^seed must be an integer, got "):
        run_trials(gadget_plus, (0,) * 6, trials=2, seed=seed)


def test_trace_csv(tmp_path, gadget_plus):
    tr = steepest_ascent(gadget_plus, (0,) * 6)
    path = tmp_path / "trace.csv"
    write_trace_csv(tr, gadget_plus, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# method=steepest"
    assert lines[1] == "# seed="
    assert lines[2] == f"# instance=sha256:{gadget_plus.content_hash()}"
    assert lines[3] == "step,var_index,var_label,gain,fitness_after"
    rows = list(csv.reader(lines[4:]))
    assert len(rows) == 7
    assert rows[0] == ["1", "0", "(1,1)", "3", "3"]
    assert rows[6] == ["7", "5", "(1,6)", "3", "18"]


@pytest.mark.parametrize("engine", [
    steepest_ascent,
    lambda inst, start, **kw: random_ascent(inst, start, seed=1, **kw),
    first_improvement_ascent,
])
def test_negative_max_steps_rejected(engine, chain22_plus):
    with pytest.raises(RangeError):
        engine(chain22_plus, (0,) * 12, max_steps=-1)
    assert engine(chain22_plus, (0,) * 12, max_steps=0).num_steps == 0


@pytest.mark.parametrize("engine", [
    steepest_ascent,
    lambda inst, start, **kw: random_ascent(inst, start, seed=1, **kw),
    first_improvement_ascent,
])
def test_max_steps_must_be_an_integer(engine, chain22_plus, monkeypatch):
    # a float or a string limit raises InvalidArgumentError, with one
    # message, on the kernel and on the Python loop, recorded or not; numpy
    # ints are limits
    np = pytest.importorskip("numpy")
    start = (0,) * 12
    for kernel in (True, False):
        with monkeypatch.context() as mp:
            if not kernel:
                mp.setattr(search, "_native_kernel", lambda: None)
            for record in (False, True):
                for bad in (1.5, "3"):
                    with pytest.raises(InvalidArgumentError) as e:
                        engine(chain22_plus, start, record_steps=record, max_steps=bad)
                    assert str(e.value) == f"max_steps must be an integer or None, got {bad!r}"
                got = engine(chain22_plus, start, record_steps=record, max_steps=np.int64(3))
                assert got == engine(chain22_plus, start, record_steps=record, max_steps=3)
                assert got.num_steps == 3 and not got.complete


def test_numpy_bool_assignments_are_accepted(monkeypatch):
    # a numpy bool array is an assignment wherever one is taken, on the
    # kernel and on the Python loops, and what comes back holds plain ints
    np = pytest.importorskip("numpy")
    inst = build_chain(2, 2, "+")
    ints = expected_peak(2, 2, "-")
    x, zeros = np.array(ints, dtype=bool), np.zeros(12, dtype=bool)
    assert inst.check_assignment(x) == bytes(ints)
    assert inst.fitness(x) == inst.fitness(ints)
    assert [inst.gradient(v, x) for v in range(12)] == [inst.gradient(v, ints) for v in range(12)]
    assert inst.improving_moves(x) == inst.improving_moves(ints)
    assert format_assignment(inst, x) == format_assignment(inst, ints)
    assert is_local_peak(inst, x) == is_local_peak(inst, ints)
    assert run_trials(inst, x, trials=3) == run_trials(inst, ints, trials=3)
    runs = [(steepest_ascent, {}), (random_ascent, {"seed": 5}),
            (first_improvement_ascent, {"scan_order": np.arange(12)[::-1]})]
    for path in ("dispatched", "reference"):
        with monkeypatch.context() as mp:
            if path == "reference":
                mp.setattr(search, "_native_kernel", lambda: None)
            for engine, kwargs in runs:
                tr = engine(inst, x, **kwargs)
                assert tr == engine(inst, ints, **kwargs), (path, engine)
                assert {type(b) for b in tr.start + tr.end} == {int}
                replay(inst, tr)
            graph = ascent_graph(inst, zeros)
            assert graph == ascent_graph(inst, (0,) * 12)
            assert {type(b) for b in graph.start} == {int}
            assert shortest_ascent_length(graph, x) == shortest_ascent_length(graph, ints)


def test_native_kernel_loads():
    # without the kernel, every differential test below compares the Python
    # loop with itself; without the 128-bit width, the scaled ones do
    cc = sysconfig.get_config_var("CC")
    if not cc or shutil.which(shlex.split(cc)[0]) is None:
        pytest.skip("no C compiler: steepest ascent runs on the Python loop")
    widths = search._native_kernel()
    assert widths is not None
    if sys.maxsize > 2 ** 32 and sys.byteorder == "little":  # gcc and clang have __int128
        assert [w.bound for w in widths] == [2 ** 62, 2 ** 126]


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("n", range(1, 13))
def test_native_matches_reference_on_chains(reference, n, sign):
    for m in range(1, n + 1):
        inst = build_chain(n, m, sign)
        start = expected_peak(n, m, "-" if sign == "+" else "+")
        for record in (False, True):
            assert native(inst, start, record_steps=record) == \
                reference(inst, start, record_steps=record)


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("n", range(1, 11))
def test_native128_matches_reference_on_scaled_chains(reference, n, sign):
    # every weight times 2^64 + 1: no fitness or gain fits in int64
    for m in range(1, n + 1):
        inst = scaled(build_chain(n, m, sign), BIG)
        start = expected_peak(n, m, "-" if sign == "+" else "+")
        for record in (False, True):
            assert native(inst, start, record_steps=record) == \
                reference(inst, start, record_steps=record)


def check_continuation(reference, inst, start, part):
    """Runs of at most `part` steps, each continuing from the last end, walk
    the path of one unbroken run, and each agrees with the reference."""
    whole = native(inst, start)
    steps, x = [], start
    while True:
        tr = native(inst, x, max_steps=part)
        assert tr == reference(inst, x, max_steps=part)
        steps += tr.steps
        x = tr.end
        if tr.complete:
            break
        assert tr.num_steps == part
    assert tuple(steps) == whole.steps
    assert x == whole.end
    assert native(inst, start, max_steps=2 ** 64) == whole  # beyond int64: no limit


@pytest.mark.parametrize("part", [1, 7, 1000, 2 ** 14 + 3])
def test_native_max_steps_continuation(reference, part):
    # recorded parts of 2^14 + 3 steps outgrow the kernel's first records
    # five times
    check_continuation(reference, build_chain(12, 12, "+"), expected_peak(12, 12, "-"), part)


@pytest.mark.parametrize("part", [1, 7, 1000, 2 ** 14 + 3])
def test_native128_max_steps_continuation(reference, part):
    inst = scaled(build_chain(10, 10, "+"), BIG)
    check_continuation(reference, inst, expected_peak(10, 10, "-"), part)


def check_ties(reference, scale):
    """Native and reference agree on 400 seeded instances with many ties,
    with every weight times scale, under both tie policies."""
    rng = random.Random(20260)
    tied = stopped = 0
    for _ in range(400):
        inst = scaled(random_instance(rng, max_weight=3), scale)  # small weights: many ties
        start = random_bits(rng, inst.num_vars)
        limit = rng.choice([None, None, 0, 1, 3])
        for policy in ("lowest-index", "error"):
            for record in (False, True):
                kw = dict(tie_policy=policy, record_steps=record, max_steps=limit)
                got = outcome(native, inst, start, **kw)
                assert got == outcome(reference, inst, start, **kw)
                if isinstance(got, str):
                    stopped += 1
                elif got.tie_events:
                    tied += 1
    assert tied >= 100 and stopped >= 100


def test_native_matches_reference_with_ties(reference):
    check_ties(reference, 1)


def test_native128_matches_reference_with_ties(reference):
    # every gain in a TieEncounteredError message is past int64
    check_ties(reference, BIG)


def test_native_bound(reference):
    # the chain times 2^64 + 1 runs on the 128-bit kernel, times 2^130 on the
    # Python loop; both walk the unscaled path with scaled gains
    inst = build_chain(6, 6, "+")
    start = expected_peak(6, 6, "-")
    small = native(inst, start)
    for scale, bound in ((BIG, 2 ** 126), (2 ** 130, None)):
        huge = scaled(inst, scale)
        tr = native(huge, start)
        if both_widths():
            assert width_bound(huge) == bound
        assert [(v, g * scale, f * scale) for v, g, f in small.steps] == list(tr.steps)
        assert (tr.end, tr.tie_events, tr.min_gain) == (small.end, 0, small.min_gain * scale)
        assert tr == reference(huge, start)


@pytest.mark.parametrize("total,bound", [
    (2 ** 62 - 1, 2 ** 62), (2 ** 62, 2 ** 126), (2 ** 126 - 1, 2 ** 126), (2 ** 126, None)])
def test_native_width_edges(reference, total, bound):
    # |constant| + sum of |weights| just below 2^62 runs at int64, from 2^62 to
    # just below 2^126 at 128 bits, from 2^126 on the Python loop; every run
    # agrees with the reference
    e = 60 if total <= 2 ** 62 else 124
    c, u0, u1, b01 = -(2 ** e), 2 ** e, 2 ** e - 1, -(2 ** (e - 1))
    b12 = total - sum(map(abs, (c, u0, u1, b01)))
    edge = Instance(3, c, [(0, u0), (1, u1)], [(0, 1, b01), (1, 2, b12)])
    for start in ((0, 0, 0), (1, 0, 1), (0, 1, 1)):
        assert native(edge, start) == reference(edge, start)
    if both_widths():
        assert width_bound(edge) == bound


def test_forced_fallback_gives_same_results(monkeypatch):
    runs = {}
    for sign in "+-":
        start = expected_peak(8, 8, "-" if sign == "+" else "+")
        inst = build_chain(8, 8, sign)
        runs[sign] = start, native(inst, start), native(inst, start, record_steps=False)
    monkeypatch.setattr(search, "_native_kernel", lambda: None)
    for sign, (start, recorded, summary) in runs.items():
        inst = build_chain(8, 8, sign)
        assert steepest_ascent(inst, start) == recorded
        assert steepest_ascent(inst, start, record_steps=False) == summary
        assert inst._native is None  # the kernel's arrays were never built


def test_native_without_the_128_bit_width(reference, monkeypatch, tmp_path):
    # a library built where the compiler has no __int128 (a 32-bit target, say)
    # has only the int64 width; instances past 2^62 then run on the Python loop
    if search._native_kernel() is None:
        pytest.skip("no native kernel on this machine")
    src = tmp_path / search._SRC.name  # the source includes itself by name
    src.write_bytes(b"#undef __SIZEOF_INT128__\n" + search._SRC.read_bytes())
    monkeypatch.setattr(search, "_SRC", src)
    widths = search._native_kernel.__wrapped__()
    assert [w.bound for w in widths] == [2 ** 62]
    monkeypatch.setattr(search, "_native_kernel", lambda: widths)
    start = expected_peak(6, 6, "-")
    for scale, bound in ((1, 2 ** 62), (BIG, None)):
        inst = scaled(build_chain(6, 6, "+"), scale)
        for record in (False, True):
            assert native(inst, start, record_steps=record) == \
                reference(inst, start, record_steps=record)
        assert width_bound(inst) == bound


@pytest.mark.parametrize("engine", [
    steepest_ascent,
    lambda inst, start, **kw: random_ascent(inst, start, seed=3, **kw),
    first_improvement_ascent,
])
@pytest.mark.parametrize("kernel", [True, False])
def test_numpy_start(monkeypatch, engine, kernel):
    # a numpy array start gives the Trace of the same tuple of ints, on the
    # kernel and on the Python loops
    np = pytest.importorskip("numpy")
    if not kernel:
        monkeypatch.setattr(search, "_native_kernel", lambda: None)
    inst = build_chain(2, 2, "+")
    want = expected_peak(2, 2, "-")
    for record in (False, True):
        tr = engine(inst, np.array(want, dtype=np.int64), record_steps=record)
        assert tr == engine(inst, want, record_steps=record)
        assert tr.num_steps > 0 and len(tr.end) == inst.num_vars
        assert {type(b) for b in tr.start + tr.end} == {int}


@pytest.mark.parametrize("engine", [
    steepest_ascent,
    lambda inst, start, **kw: random_ascent(inst, start, seed=3, **kw),
    first_improvement_ascent,
])
@pytest.mark.parametrize("kernel", [True, False])
def test_float_start_is_rejected(monkeypatch, engine, kernel):
    # 1.0 == 1, but a float is not a bit: every engine raises BitValueError
    # on the kernel and on the Python loops, while bools stay accepted
    if not kernel:
        monkeypatch.setattr(search, "_native_kernel", lambda: None)
    inst = build_chain(1, 1, "+")
    for start in ((1.0,) * 6, (0, 0, 0, 0, 0, 0.0)):
        for record in (False, True):
            with pytest.raises(BitValueError, match="integers 0 or 1"):
                engine(inst, start, record_steps=record)
    assert engine(inst, (False,) * 6) == engine(inst, (0,) * 6)


def test_native_loader_falls_back_when_the_build_fails(monkeypatch, tmp_path):
    load = search._native_kernel.__wrapped__
    src = tmp_path / search._SRC.name
    monkeypatch.setattr(search, "_SRC", src)
    src.write_text("this is not C\n")
    assert load() is None
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: "no-such-compiler-4e1f" if name == "CC" else None)
    assert load() is None
    assert not [p for p in (tmp_path / "__pycache__").iterdir()]  # no temp file left


def test_native_loader_builds_into_pycache(monkeypatch, tmp_path):
    if search._native_kernel() is None:
        pytest.skip("no native kernel on this machine")
    src = tmp_path / search._SRC.name  # the source includes itself by name
    src.write_bytes(search._SRC.read_bytes())
    monkeypatch.setattr(search, "_SRC", src)
    assert search._native_kernel.__wrapped__() is not None
    assert [p.suffix for p in (tmp_path / "__pycache__").iterdir()] == [".so"]


def test_regular_install_ships_the_kernel_source(tmp_path):
    """A non-editable install copies what setuptools' build_py collects.
    Without _ascend.c there, the installed package cannot build its kernel
    and every ascent quietly runs the Python loop."""
    pytest.importorskip("setuptools")
    root = Path(__file__).resolve().parents[1]
    shutil.copy(root / "pyproject.toml", tmp_path)  # a copy, so the checkout gets no egg-info
    shutil.copytree(root / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    subprocess.run([sys.executable, "-c", "from setuptools import setup; setup()",
                    "build_py", "--build-lib", "build"],
                   cwd=tmp_path, check=True, capture_output=True)
    assert (tmp_path / "build" / "vcsp_landscape" / "_ascend.c").is_file()


def check_threads(inst, engine=steepest_ascent):
    """Four threads run ascents from different starts on the shared inst and
    see the same Traces as one thread: the kernel's arrays belong to the
    instance, so the runs must not see each other's state."""
    rng = random.Random(5)
    starts = [random_bits(rng, inst.num_vars) for _ in range(6)]
    runs = [(x, rec) for x in starts for rec in (False, True)]
    want = [engine(inst, x, record_steps=rec) for x, rec in runs]
    if engine is steepest_ascent:
        assert want == [native(inst, x, record_steps=rec) for x, rec in runs]
    bad = []

    def work():
        for _ in range(20):
            got = [engine(inst, x, record_steps=rec) for x, rec in runs]
            if got != want:
                bad.append(got)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not bad


def kernel_bytes(arrays):
    """The bytes of every ctypes array cached for the kernel."""
    return {name: bytes(getattr(arrays, name)) for name in type(arrays).__slots__
            if isinstance(getattr(arrays, name), ctypes.Array)}


@pytest.mark.parametrize("scale", [1, BIG], ids=["int64", "int128"])
def test_native_arrays_are_read_only(scale):
    # the kernel only reads the arrays cached on the instance: summary,
    # recorded, limited and tie-stopped runs leave every byte of them as it
    # was, so threads can share an instance without a lock
    if not both_widths():
        pytest.skip("the kernel was not built at both widths")
    chain = scaled(build_chain(4, 4, "+"), scale)
    tied = scaled(Instance(3, 0, [(0, 3), (1, 2), (2, 2)], []), scale)  # step 2 is a tie
    runs = [dict(record_steps=False), dict(), dict(max_steps=3), dict(tie_policy="error")]
    for inst, start in ((chain, expected_peak(4, 4, "-")), (tied, (0, 0, 0))):
        native(inst, start, max_steps=0)
        arrays = inst._native
        before = kernel_bytes(arrays)
        assert set(before) == {"ints32", "ints", "block"}  # the five arrays in two buffers
        for kw in runs:
            tr = outcome(native, inst, start, **kw)
            assert inst._native is arrays and kernel_bytes(arrays) == before
    assert tr == "TieEncounteredError: step 2: 2 moves share the maximal gain " + str(2 * scale)


@pytest.mark.parametrize("constant,bound", [(5, 2 ** 62), (2 ** 100, 2 ** 126)],
                         ids=["int64", "int128"])
def test_native_runs_instances_without_variables(reference, constant, bound):
    inst = Instance(0, constant)
    for max_steps in (None, 0, 3):
        for record in (False, True):
            kw = dict(record_steps=record, max_steps=max_steps)
            assert native(inst, (), **kw) == reference(inst, (), **kw)
    if both_widths():
        assert width_bound(inst) == bound


def test_native_threads_share_an_instance():
    check_threads(build_chain(8, 8, "+"))


def test_native128_threads_share_an_instance():
    check_threads(scaled(build_chain(8, 8, "+"), BIG))


def test_instance_pickles_after_a_native_run():
    inst = build_chain(3, 3, "+")
    tr = steepest_ascent(inst, (0,) * 18)
    copy = pickle.loads(pickle.dumps(inst))
    assert copy == inst and copy._native is None
    assert steepest_ascent(copy, (0,) * 18) == tr


@pytest.fixture
def on_both(monkeypatch):
    """Runs an engine on the native kernel and on the Python loop and returns
    both outcomes.  On the kernel _ascend raises, so a run that fell back to
    the Python loop fails the test."""
    if search._native_kernel() is None:
        pytest.skip("no native kernel on this machine")

    def fallback(*args, **kwargs):
        raise AssertionError("the run fell back to the Python loop")

    def run(engine, *args, **kwargs):
        with monkeypatch.context() as mp:
            mp.setattr(search, "_ascend", fallback)
            got = outcome(engine, *args, **kwargs)
        with monkeypatch.context() as mp:
            mp.setattr(search, "_native_kernel", lambda: None)
            want = outcome(engine, *args, **kwargs)
        if got == want:
            assert repr(got) == repr(want)
        return got, want
    return run


def widths_for(scale):
    """Skips a test at 128 bits where the kernel has only its int64 width."""
    if scale != 1 and not both_widths():
        pytest.skip("the kernel was not built at both widths")


def random_with(seed):
    return lambda inst, start, **kw: random_ascent(inst, start, seed=seed, **kw)


def first_with(order):
    return lambda inst, start, **kw: first_improvement_ascent(inst, start, scan_order=order, **kw)


# seeds that random.Random reads as ints: zero, negative, bool, and at or
# past 2^32 and 2^64, where the seed has more than one or two 32-bit words
SEEDS = [0, 1, -1, -424242, True, False, 2 ** 32 - 1, 2 ** 32, 5 * 2 ** 32 + 7, 2 ** 63,
         2 ** 64 - 1, 2 ** 64, 2 ** 64 + 9, -(2 ** 70), 2 ** 200 + 3]


@pytest.mark.parametrize("scale", [1, BIG], ids=["int64", "int128"])
@pytest.mark.parametrize("rule", ["random", "first"])
def test_native_rules_match_reference_on_chains(on_both, rule, scale):
    widths_for(scale)
    check_rules_on_chains(on_both, rule, scale, 6)


def check_rules_on_chains(on_both, rule, scale, n_max):
    """Every chain with n <= n_max from the other peak and from a seeded
    start, recorded and summary, under rule ("steepest", "random" or
    "first"), with index order (NULL on the kernel) and a shuffled scan order
    for first-improvement."""
    rng = random.Random(1789)
    for n in range(1, n_max + 1):
        for m in range(1, n + 1):
            for sign in "+-":
                inst = scaled(build_chain(n, m, sign), scale)
                order = list(range(6 * m))
                rng.shuffle(order)
                if rule == "random":
                    engines = [random_with(rng.choice(SEEDS) + rng.randrange(2 ** 40))]
                elif rule == "first":
                    engines = [first_improvement_ascent, first_with(order)]
                else:
                    engines = [steepest_ascent]
                for start in (expected_peak(n, m, "-" if sign == "+" else "+"),
                              random_bits(rng, 6 * m)):
                    for engine in engines:
                        for record in (False, True):
                            got, want = on_both(engine, inst, start, record_steps=record)
                            assert got == want
                            assert got.end == expected_peak(n, m, sign)


@pytest.mark.parametrize("scale", [1, BIG], ids=["int64", "int128"])
def test_native_rules_match_reference_on_random_instances(on_both, scale):
    widths_for(scale)
    check_rules_on_random_instances(on_both, scale, 300)


def check_rules_on_random_instances(on_both, scale, count):
    """count seeded instances with many ties, every seed kind, index and
    shuffled scan orders and max_steps limits."""
    rng = random.Random(4711)
    stopped = 0
    for t in range(count):
        inst = scaled(random_instance(rng, max_vars=14, max_weight=rng.choice((3, 20))), scale)
        start = random_bits(rng, inst.num_vars)
        order = list(range(inst.num_vars))
        rng.shuffle(order)
        seed = SEEDS[t % len(SEEDS)]
        for engine in (random_with(seed), first_improvement_ascent, first_with(order)):
            limit = rng.choice([None, None, 0, 1, 3, 5])
            for record in (False, True):
                got, want = on_both(engine, inst, start, record_steps=record, max_steps=limit)
                assert got == want
                stopped += not got.complete
    assert stopped >= count // 3


@pytest.mark.parametrize("scale", [1, BIG], ids=["int64", "int128"])
def test_recorded_runs_outgrow_the_first_buffer(on_both, scale):
    check_recorded_runs_outgrow_the_first_buffer(on_both, scale)


def check_recorded_runs_outgrow_the_first_buffer(on_both, scale):
    """Recorded runs without a limit, longer than the kernel's first
    records: steepest ascent between the peaks of chain(8, 8) and
    chain(9, 9), 1,785 and 3,577 steps, and every rule from all zeros on
    1,500 independent unaries, 1,500 steps."""
    widths_for(scale)
    first = 1024  # the records the kernel grows at first, as in _ascend.c
    cases = [(scaled(build_chain(n, n, "+"), scale), expected_peak(n, n, "-"), steepest_ascent)
             for n in (8, 9)]
    flat = scaled(Instance(1500, 0, [(v, 1 + v % 3) for v in range(1500)]), scale)
    order = list(range(1500))
    random.Random(5).shuffle(order)
    cases += [(flat, (0,) * 1500, engine)
              for engine in (steepest_ascent, random_with(7), first_with(order))]
    assert first < 1500 and 3 * first < predicted_ascent_length(9)  # grown twice
    for inst, start, engine in cases:
        got, want = on_both(engine, inst, start)
        assert got == want
        assert first < got.num_steps == len(got.steps) and got.complete


def test_native_rules_stop_at_max_steps(on_both):
    # a run stopped at k steps is the first k steps of the unlimited run, on
    # the kernel and on the Python loop alike
    inst = build_chain(8, 8, "+")
    start = tuple(1 - b for b in expected_peak(8, 8, "+"))  # a start far from the peak
    order = list(range(48))
    random.Random(8).shuffle(order)
    for engine in (random_with(2 ** 64 + 1), random_with(-3), first_improvement_ascent,
                   first_with(order)):
        whole, want = on_both(engine, inst, start)
        assert whole == want and whole.complete and whole.num_steps > 10
        for k in (0, 1, 7, whole.num_steps - 1, whole.num_steps, whole.num_steps + 1):
            for record in (False, True):
                got, want = on_both(engine, inst, start, record_steps=record, max_steps=k)
                assert got == want
                assert got.num_steps == min(k, whole.num_steps)
                assert got.complete == (k >= whole.num_steps)
                if record:
                    assert got.steps == whole.steps[:k]
        assert engine(inst, start, max_steps=2 ** 64) == whole  # beyond int64: no limit


def test_steps_take_whole_records_and_are_immutable():
    with pytest.raises(ValueError, match="^Steps needs a multiple of 24 bytes, got 25$"):
        search.Steps(bytes(25))
    steps = search.Steps(struct.pack("3q", 0, 7, 4))
    with pytest.raises(AttributeError, match="^Steps is immutable$"):
        steps._raw = b""
    with pytest.raises(AttributeError, match="^Steps is immutable$"):
        del steps._raw
    assert steps == ((0, 7, 4),)


def test_packed_ints_take_arrays_as_they_are_and_bytes_as_int64_records():
    # an array is the sequence's own, so a Steps takes only what its kernel
    # paths read: an int64 array of whole records.  Bytes are int64 records
    assert search.Steps(array("q", [0, 7, 4])) == ((0, 7, 4),)
    for values in (array("q", [0, 7]), array("i", [0, 7, 4]), array("Q", [0, 7, 4])):
        with pytest.raises(ValueError, match="^Steps needs an int64 array of whole records$"):
            search.Steps(values)
    assert search.PackedInts(array("i", [1, -2])) == (1, -2)
    assert search.PackedInts(struct.pack("2q", 5, -1)) == (5, -1) and search.PackedInts() == ()
    with pytest.raises(ValueError, match="^PackedInts needs a multiple of 8 bytes, got 9$"):
        search.PackedInts(bytes(9))


def test_no_kernel_without_a_compiler(monkeypatch):
    # where sysconfig names no C compiler there is no kernel, and every
    # engine runs the Python loop
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: None)
    monkeypatch.setattr(search, "_native_kernel", search._native_kernel.__wrapped__)
    assert search._native_kernel() is None
    inst = build_chain(3, 3, "+")
    assert steepest_ascent(inst, (0,) * 18).num_steps == 49


def test_recorded_steps_are_held_packed():
    # a recorded steepest ascent on the int64 width holds its 114,681 steps
    # as 24-byte records, not as a tuple of tuples (104 bytes a step).  The
    # kernel's own records are C memory, which tracemalloc does not see:
    # test_recorded_run_grows_rss_by_at_most_64_bytes_a_step bounds them
    if search._native_kernel() is None:
        pytest.skip("no native kernel on this machine")
    inst = build_chain(14, 14, "+")
    start = expected_peak(14, 14, "-")
    tracemalloc.start()
    try:
        tr = steepest_ascent(inst, start)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    n = tr.num_steps
    assert n == predicted_ascent_length(14) and tr.end == expected_peak(14, 14, "+")
    assert held <= 32 * n, f"held {held / n:.1f} bytes a step"


def run_child(code):
    """The stdout of code run by a new interpreter on this checkout's src/."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr
    return out.stdout


# a child's set-up on Linux: chain(16, 16, '+'), the other peak, the kernel
# loaded and the instance's arrays built by a 1-step run, and status(), a
# /proc/self/status field in KiB
CHAIN16 = """
import resource
from vcsp_landscape import build_chain, expected_peak, steepest_ascent
def status(field):
    return int(open("/proc/self/status").read().split(field + ":")[1].split()[0])
inst = build_chain(16, 16, "+")
start = expected_peak(16, 16, "-")
steepest_ascent(inst, start, max_steps=1)
"""


def linux_kernel():
    """Skips a test that reads /proc/self/status off Linux, or with no kernel."""
    if not sys.platform.startswith("linux"):
        pytest.skip("reads /proc/self/status: Linux only")
    if search._native_kernel() is None:
        pytest.skip("no native kernel on this machine")


def test_recorded_run_grows_rss_by_at_most_64_bytes_a_step():
    # the kernel's growing records and the Steps copied from them, at their
    # peak together, in a child process's peak RSS: a recorded steepest
    # ascent of 458,745 steps on chain(16, 16, '+'), run twice, so that
    # records the first run did not free would show (about 72 bytes a step).
    # The peak is VmHWM, not ru_maxrss: Linux carries ru_maxrss through
    # exec, so a child's starts at this process's peak and can hide growth
    linux_kernel()
    code = CHAIN16 + """
before = status("VmHWM")
tr = steepest_ascent(inst, start)
del tr
tr = steepest_ascent(inst, start)
print(tr.num_steps, type(tr.steps).__name__, (status("VmHWM") - before) * 1024 / tr.num_steps)
"""
    steps, kind, per_step = run_child(code).split()
    assert (int(steps), kind) == (predicted_ascent_length(16), "Steps")
    assert float(per_step) <= 64, f"peak RSS grew by {per_step} bytes a step"


def test_ascent_graph_grows_rss_by_at_most_16_bytes_an_edge():
    # the kernel's arrays and the PackedInts copied from them, at their peak
    # together, in a child process's VmHWM: the 532,452 nodes and 4,220,412
    # edges of chain(4, 4, '-') from all ones.  The kernel's C arrays and
    # hash table come to about 9 bytes an edge, the copy of the edges to 4;
    # tuples of Python ints took about 36
    linux_kernel()
    code = """
from vcsp_landscape import ascent_graph, build_chain, expected_peak
def status(field):
    return int(open("/proc/self/status").read().split(field + ":")[1].split()[0])
inst = build_chain(4, 4, "-")
ascent_graph(inst, expected_peak(4, 4, "-"))  # loads the kernel, builds the arrays
before = status("VmHWM")
g = ascent_graph(inst, (1,) * 24, cap=2 ** 20)
print(len(g.nodes), len(g.edges), type(g.edges).__name__,
      (status("VmHWM") - before) * 1024 / len(g.edges))
"""
    nodes, edges, kind, per_edge = run_child(code).split()
    assert (int(nodes), int(edges), kind) == (532452, 4220412, "PackedInts")
    assert float(per_edge) <= 16, f"peak RSS grew by {per_edge} bytes an edge"


def test_recorded_run_out_of_memory_raises_memory_error():
    # under an address-space limit 8 MiB above what the process has mapped,
    # the kernel cannot grow the records of chain(16, 16, '+')'s 458,745
    # steps (11 MB): the run raises MemoryError, and a summary run
    # afterwards, under the same limit, walks the whole path
    linux_kernel()
    code = CHAIN16 + """
limit = (status("VmSize") + 8 * 1024) * 1024
resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
try:
    steepest_ascent(inst, start)
except MemoryError as e:
    print(e)
print(steepest_ascent(inst, start, record_steps=False).num_steps)
"""
    assert run_child(code) == ("the ascent kernel could not allocate its scratch or step "
                               f"records\n{predicted_ascent_length(16)}\n")


@pytest.mark.parametrize("limit", [None, 7])
@pytest.mark.parametrize("scale", [1, BIG], ids=["int64", "int128"])
@pytest.mark.parametrize("rule", ["steepest", "random", "first"])
def test_recorded_steps_keep_the_trace_contract(on_both, monkeypatch, rule, scale, limit):
    # a recorded kernel trace behaves as the Python loop's, whose steps are a
    # tuple of (variable, gain, fitness after) tuples: equality both ways,
    # hash, repr, pickle, deepcopy and astuple; indexing, slicing, len and
    # iteration; editing one step by slices, and extending a list by the
    # steps.  Unlimited runs, and runs stopped after 7 steps
    widths_for(scale)
    inst = scaled(build_chain(4, 4, "+"), scale)
    order = list(range(24))
    random.Random(6).shuffle(order)
    engine = {"steepest": steepest_ascent, "random": random_with(2 ** 40 + 3),
              "first": first_with(order)}[rule]
    for start in (expected_peak(4, 4, "-"), (0,) * 24, expected_peak(4, 4, "+")):
        got, want = on_both(engine, inst, start, max_steps=limit)
        assert got == want and want == got and not got != want
        assert hash(got) == hash(want) and repr(got) == repr(want)
        for copied in (pickle.loads(pickle.dumps(got)), copy.deepcopy(got)):
            assert copied == want and repr(copied) == repr(want)
        assert dataclasses.astuple(got) == dataclasses.astuple(want)
        steps, ref = got.steps, want.steps
        assert steps == ref and ref == steps and hash(steps) == hash(ref)
        assert repr(steps) == repr(ref) and list(steps) == list(ref)
        assert (steps == list(ref)) is (ref == list(ref)) is False  # a tuple is not a list
        n = len(steps)
        assert n == len(ref) == got.num_steps
        with pytest.raises(IndexError):
            steps[n]
        with pytest.raises(IndexError):
            steps[-n - 1]
        if not n:  # the run started at the peak
            assert steps == () and () == steps and not steps
            continue
        assert steps[0] == ref[0] and steps[-1] == ref[-1] and type(steps[-1]) is tuple
        assert steps[-n] == ref[0] and steps[n - 1] == ref[-1]
        assert steps[1:n - 1] == ref[1:n - 1] and steps[5:2] == ref[5:2] == ()
        assert steps[::2] == ref[::2] and steps[::-3] == ref[::-3]
        k = n // 2
        v, g, f = steps[k]
        edited = steps[:k] + ((v, g + 1, f),) + steps[k + 1:]
        assert edited == ref[:k] + ((v, g + 1, f),) + ref[k + 1:]
        assert type(steps[:k] + ()) is type(() + steps[k:]) is tuple
        bad = dataclasses.replace(got, steps=edited)
        message = f"step {k + 1}: recorded gain {g + 1}, computed {g}"
        assert both_replays(monkeypatch, inst, bad) == (("ReplayMismatchError", message),) * 2
        acc = [(-1, 0, 0)]
        acc += steps
        assert acc == [(-1, 0, 0), *ref]


@pytest.mark.parametrize("limit", [None, 7])
@pytest.mark.parametrize("rule", ["steepest", "random", "first"])
def test_recorded_steps_search_as_the_tuple(on_both, rule, limit):
    # `in`, count and index (with start and stop) on a kernel trace's steps
    # search its (variable, gain, fitness after) tuples as the Python loop's
    # tuple does: present and absent steps, and bare ints that are a step's
    # variable or fitness, which no step equals.  Unlimited runs, and runs
    # stopped after 7 steps
    inst = build_chain(4, 4, "+")
    order = list(range(24))
    random.Random(6).shuffle(order)
    engine = {"steepest": steepest_ascent, "random": random_with(2 ** 40 + 3),
              "first": first_with(order)}[rule]
    for start in (expected_peak(4, 4, "-"), (0,) * 24, expected_peak(4, 4, "+")):
        got, want = on_both(engine, inst, start, max_steps=limit)
        steps, ref = got.steps, want.steps
        assert type(steps) is search.Steps and type(ref) is tuple
        values = [(0, 1, 2), 0, -1, [0, 1, 2]]
        for v, g, f in ref[:2] + ref[-1:]:
            values += [(v, g, f), (v, g + 1, f), (v, g), v, f]
        for value in values:
            assert (value in steps) is (value in ref)
            assert steps.count(value) == ref.count(value)
            for bounds in ((), (1,), (-3,), (0, 2), (2, 5), (-5, -1), (3, 1)):
                try:
                    want_index = ref.index(value, *bounds)
                except ValueError:
                    with pytest.raises(ValueError):
                        steps.index(value, *bounds)
                else:
                    assert steps.index(value, *bounds) == want_index


@pytest.mark.parametrize("seed", SEEDS)
def test_native_random_draws_match_cpython(on_both, seed):
    # what the kernel's draws rest on, pinned so that a change in CPython
    # fails here first: the words of getrandbits(32 * N), least significant
    # first, are those of N calls of getrandbits(32), and the top
    # n.bit_length() bits of a word, drawn again while they are n or more,
    # are randrange(n)
    n = 1000
    raw = search._Random(seed).draw(n)
    words = struct.unpack(f"<{n}I", raw)
    ref = random.Random(seed)
    assert list(words) == [ref.getrandbits(32) for _ in range(n)]
    ref = random.Random(seed)
    left = iter(words)
    for below in range(1, 200):
        k = below.bit_length()
        r = next(left) >> (32 - k)
        while r >= below:
            r = next(left) >> (32 - k)
        assert r == ref.randrange(below)
    # every step of a 1,000-step run draws: about 1,300 words, so the kernel
    # runs out of its first words and starts again three times
    d = 1000
    inst = Instance(d, 0, [(i, 1) for i in range(d)], [])
    got, want = on_both(random_ascent, inst, (0,) * d, seed=seed)
    assert got == want and got.num_steps == d and got.seed == seed


@pytest.mark.parametrize("seed", ["vcsp", b"vcsp", 2.5, None])
def test_random_ascent_with_a_non_int_seed_runs_on_the_kernel(on_both, seed):
    # random.Random hashes these seeds; the kernel reads the words it draws
    inst = build_chain(3, 3, "+")
    start = expected_peak(3, 3, "-")
    if seed is None:  # None seeds from the operating system: no two runs agree
        tr = random_ascent(inst, start, seed=seed)
        assert type(tr.steps) is search.Steps  # a run on the kernel's int64 width
    else:
        tr, want = on_both(random_ascent, inst, start, seed=seed)
        assert tr == want
    assert tr.end == expected_peak(3, 3, "+") and tr.seed == seed
    replay(inst, tr)
    with pytest.raises(TypeError):  # a seed random.Random rejects raises before any draw
        random_ascent(inst, expected_peak(3, 3, "+"), seed=[1])


@pytest.mark.parametrize("scale", [1, BIG], ids=["int64", "int128"])
def test_random_runs_outgrow_their_words(on_both, scale):
    check_random_runs_outgrow_their_words(on_both, scale)


def check_random_runs_outgrow_their_words(on_both, scale):
    """Random ascents whose kernel gets one word at first, so that a run
    stops for more words and starts again as often as its draws double
    them: recorded and not, with and without a step limit, each gives the
    Python loop's Trace."""
    widths_for(scale)
    drawn = []
    draw = search._Random.draw
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_WORDS", 1)
        mp.setattr(search._Random, "draw", lambda rule, n: drawn.append(n) or draw(rule, n))
        for n in (2, 5):
            inst = scaled(build_chain(n, n, "+"), scale)
            for start in (expected_peak(n, n, "-"), (0,) * (6 * n)):
                for seed in SEEDS[::3]:
                    for limit in (None, 0, 1, 9):
                        for record in (False, True):
                            got, want = on_both(random_ascent, inst, start, seed=seed,
                                                record_steps=record, max_steps=limit)
                            assert got == want
    assert max(drawn) >= 32  # some run started again six times


def test_scan_order_takes_numpy_ints_and_rejects_floats():
    np = pytest.importorskip("numpy")
    inst = build_chain(2, 2, "+")
    start = expected_peak(2, 2, "-")
    order = list(range(12))[::-1]
    tr = first_improvement_ascent(inst, start, scan_order=np.array(order))
    assert tr == first_improvement_ascent(inst, start, scan_order=order)
    assert {type(v) for v, _, _ in tr.steps} == {int}
    with pytest.raises(InvalidArgumentError):
        first_improvement_ascent(inst, start, scan_order=[float(v) for v in order])


def test_native_random_ascent_is_log_d_a_step(on_both):
    # 4,000 independent unaries from all zeros: every variable improves, so
    # a rule that sorts the improving set on each step is quadratic (0.13 to
    # 0.17 s on a 2-core Xeon); with the kernel's Fenwick tree it takes 1.5 ms
    d = 4000
    inst = Instance(d, 0, [(i, 1) for i in range(d)], [])
    got, want = on_both(random_ascent, inst, (0,) * d, seed=2026)
    assert got == want and got.num_steps == d and got.end == (1,) * d
    best = min(timeit.repeat(lambda: random_ascent(inst, (0,) * d, seed=2026),
                             number=1, repeat=5))
    assert best < 0.05


@pytest.mark.parametrize("scale", [1, BIG], ids=["int64", "int128"])
def test_native_rules_threads_share_an_instance(scale):
    widths_for(scale)
    inst = scaled(build_chain(6, 6, "+"), scale)
    check_threads(inst, random_with(2 ** 64 + 7))
    check_threads(inst, first_with(list(range(36))[::-1]))


def test_trace_constructor_builds_what_the_dataclass_builds():
    # Trace's own __init__ stores the fields into __dict__, in place of the
    # frozen dataclass's generated one, which sets each through
    # object.__setattr__; the result is the same object in every respect
    fields = ("random", (0, 1), (1, 1), 1, -3, 4, 7, 0, ((0, 7, 4),), 2 ** 70, True)
    names = [f.name for f in dataclasses.fields(Trace)]
    want = object.__new__(Trace)
    for name, value in zip(names, fields):
        object.__setattr__(want, name, value)
    got = Trace(*fields)
    assert type(got) is Trace
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert vars(got) == vars(want) and list(vars(got)) == list(vars(want))
    assert sys.getsizeof(vars(got)) == sys.getsizeof(vars(want))
    assert dataclasses.astuple(got) == fields
    assert pickle.loads(pickle.dumps(got)) == want
    with pytest.raises(dataclasses.FrozenInstanceError):
        got.num_steps = 2
    assert got != Trace(*fields[:-1], False)
    # the generated __init__'s parameters, keywords and defaults
    generated = dataclasses.make_dataclass(
        "Generated", [(f.name, f.type, dataclasses.field(default=f.default))
                      for f in dataclasses.fields(Trace)], frozen=True)
    params = [(p.name, p.kind, p.default)
              for p in inspect.signature(generated).parameters.values()]
    assert [(p.name, p.kind, p.default)
            for p in inspect.signature(Trace).parameters.values()] == params
    assert Trace(**dict(zip(names, fields))) == got
    assert Trace(*fields[:9]) == Trace(*fields[:9], None, True)
    assert dataclasses.replace(got, complete=False) == Trace(*fields[:-1], False)
    with pytest.raises(TypeError):
        Trace(*fields[:8])


def test_kernel_runs_clean_under_ubsan(on_both, reference, monkeypatch, tmp_path, capfd):
    # the kernel built with -fsanitize=undefined runs the native-against-
    # reference checks without a report: no signed overflow, no shift or
    # index out of range, no misaligned access, at both widths, also where
    # the records grow; and the
    # replay, trace CSV, ascent-graph (caps hit, d = 64), orientation
    # (conflicts, stars up to degree 12, a degree cap), chain-validation
    # (200 weight mutants, a label at n + 1 - k = -2^63) and semismoothness
    # checks (up to 16 variables, a weight total of 2^62 - 1), on the int64
    # width
    widths = search._native_kernel()
    # the library's name is keyed by source and platform, not by flags: a
    # copy keeps this build out of the package's __pycache__ (the source
    # includes itself by name)
    src = tmp_path / search._SRC.name
    src.write_bytes(search._SRC.read_bytes())
    monkeypatch.setattr(search, "_SRC", src)
    get = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: f"{get(name)} -fsanitize=undefined" if name == "CC"
                        else get(name))
    sanitized = search._native_kernel.__wrapped__()
    if sanitized is None:
        pytest.skip("the kernel cannot be built with -fsanitize=undefined here")
    assert [w.bound for w in sanitized] == [w.bound for w in widths]
    monkeypatch.setattr(search, "_native_kernel", lambda: sanitized)
    calls = count_calls(monkeypatch, sanitized[0])
    for scale in (1, BIG)[:len(sanitized)]:
        for rule in ("steepest", "random", "first"):
            check_rules_on_chains(on_both, rule, scale, 4)
        check_rules_on_random_instances(on_both, scale, 60)
        check_ties(reference, scale)
        check_recorded_runs_outgrow_the_first_buffer(on_both, scale)
        check_random_runs_outgrow_their_words(on_both, scale)
    check_replay_outcomes(monkeypatch, 1, 120)
    check_csv_files(monkeypatch, tmp_path)
    assert check_ascent_graphs(monkeypatch, calls) > 100
    assert check_orients(monkeypatch, calls) == 253
    assert check_validations(monkeypatch, calls, 200)[1] == 205
    assert check_semismooths(monkeypatch, calls) == 232
    assert calls["replay"] > 60 and calls["csv_rows"] == 20
    inst = build_chain(2, 2, "+")
    steepest_ascent(inst, (0,) * 12)
    assert inst._native.width in sanitized  # the runs above used the sanitized build
    assert "runtime error:" not in capfd.readouterr().err


@pytest.mark.parametrize("case,digest", [
    ("chain", "ff9d0ba33124346996e0c6acd0ad51dbac289b459f1c3a8e0cddb4f0a46370ac"),
    ("random", "f90ba818ec4dcebf57ef4bc41c5f39fb65e0e4cb7db9e1ef1c8c670e80392713"),
])
def test_trace_csv_bytes_are_pinned(monkeypatch, tmp_path, case, digest):
    # the exact bytes of two trace files: quoted "(k,i)" labels, empty labels,
    # negative fitness, "\n" after the comments and "\r\n" after every row;
    # as dispatched and from the Python writer
    if case == "chain":
        inst = build_chain(3, 3, "+")
        tr = steepest_ascent(inst, expected_peak(3, 3, "-"))
    else:
        rng = random.Random(4)
        inst = random_instance(rng, max_vars=40, max_weight=50)
        tr = random_ascent(inst, random_bits(rng, inst.num_vars), seed=99)
    got, want = both_csv_files(monkeypatch, tmp_path, tr, inst)
    assert got == want
    assert hashlib.sha256(got).hexdigest() == digest


def csv_file(tmp_path, trace, inst):
    """The bytes write_trace_csv writes for trace, or the class and message
    it raised and whether it left a file."""
    path = tmp_path / "trace.csv"
    path.unlink(missing_ok=True)
    try:
        write_trace_csv(trace, inst, path)
    except Exception as e:
        return type(e).__name__, str(e), path.exists()
    return path.read_bytes()


def both_csv_files(monkeypatch, tmp_path, trace, inst):
    """csv_file as dispatched and with the native kernel switched off."""
    got = csv_file(tmp_path, trace, inst)
    with monkeypatch.context() as mp:
        mp.setattr(search, "_native_kernel", lambda: None)
        want = csv_file(tmp_path, trace, inst)
    return got, want


def test_trace_csv_matches_the_python_writer(monkeypatch, tmp_path, kernel_calls):
    # write_trace_csv writes the Python writer's bytes: across several
    # buffers of rows, with no steps, with negative and near-int64 gains and
    # fitness, with labels on some variables only, with variables the
    # instance does not have (the writer does not check them, so it writes
    # what the trace holds), with the widest int64 rows and on an instance
    # with no variables
    check_csv_files(monkeypatch, tmp_path)
    # the long trace in 8 calls, the widest rows twice in 2 each, and 8
    # more hand-made traces in 1 each
    if search._native_kernel():
        assert kernel_calls["csv_rows"] == 20


def check_csv_files(monkeypatch, tmp_path):
    """test_trace_csv_matches_the_python_writer's traces, at 1,000 rows a
    kernel call."""
    monkeypatch.setattr(search, "_CHUNK", 1000)
    chain = build_chain(10, 10, "+")
    long = steepest_ascent(chain, expected_peak(10, 10, "-"))
    assert long.num_steps > 7 * search._CHUNK
    part = Instance(4, -3, {0: 5, 3: -2}, {(0, 1): 4}, {1: (2, 5), 3: (11, 6)})
    big = 2 ** 62
    rows = [
        ((0, 5, 2), (1, 9, -7)),
        ((3, -5, -8), (2, -(2 ** 63), 2 ** 63 - 1), (1, 2 ** 63 - 1, -(2 ** 63))),
        ((0, big, big - 1), (1, -big, -big + 1), (3, big + 1, -big - 1), (2, 1, 0)),
        ((0, 2 ** 63, 1), (1, 1, -(2 ** 63) - 1)),
        ((4, 1, 1), (0, 2, 3)),
        ((-1, 1, 1),),
        ((2 ** 40, 1, 1), (3, 2, 3)),
        ((1, 1, 1), (True, 2, 3), (False, 1, 4)),
        ((True, 2, 3), (1, 1, 1)),
        ((0, 2.0, 1),),
        ((0, "2", 1),),
        ((0, 2),),
        ((0, 2), (1, 2, 3, 4)),
        (7,),
    ]
    # each hand-made trace as a tuple, for the Python writer on both sides,
    # and packed where it packs, for the kernel
    made = [steps for steps in map(packed, rows) if type(steps) is search.Steps] + rows
    # the widest rows, over two kernel calls, on an instance with labels and
    # on one with no variables, whose label table is empty
    wide = packed([(-(2 ** 63),) * 3] * (search._CHUNK + 1))

    def made_trace(steps):
        return Trace("random", (0,) * 4, (0,) * 4, len(steps), 0, 0, None, 0, steps, 2 ** 40)

    traces = [(long, chain),
              (steepest_ascent(chain, expected_peak(10, 10, "+")), chain),
              (made_trace(wide), part), (made_trace(wide), Instance(0)),
              *((made_trace(steps), part) for steps in made)]
    for tr, inst in traces:
        got, want = both_csv_files(monkeypatch, tmp_path, tr, inst)
        assert got == want
    assert want[0] == "TypeError" and not want[2]  # no file is left after an error


def test_random_and_first_traces_are_pinned():
    # the exact Traces of random and first-improvement ascent on seeded random
    # instances: recorded and summary runs, default and shuffled scan orders,
    # unlimited and stopped by a max_steps below the unlimited length
    rng = random.Random(2024)
    traces = []
    for _ in range(300):
        inst = random_instance(rng, max_vars=12, max_weight=rng.choice((3, 20)))
        start = random_bits(rng, inst.num_vars)
        seed = rng.randrange(2 ** 32)
        order = list(range(inst.num_vars))
        rng.shuffle(order)
        runs = [
            lambda **kw: random_ascent(inst, start, seed=seed, **kw),
            lambda **kw: first_improvement_ascent(inst, start, **kw),
            lambda **kw: first_improvement_ascent(inst, start, scan_order=order, **kw),
        ]
        for run in runs:
            full = run(record_steps=False).num_steps
            for limit in (None, rng.randrange(full)) if full else (None,):
                for record in (True, False):
                    traces.append(run(record_steps=record, max_steps=limit))
    assert len(traces) == 3270
    assert hashlib.sha256(repr(traces).encode()).hexdigest() == \
        "a83128e81757270ab0771019d2cc4fbac9ba0affb875d6c81643474984873e41"


@pytest.mark.parametrize("engine", [
    steepest_ascent,
    lambda inst, start, **kw: random_ascent(inst, start, seed=5, **kw),
    first_improvement_ascent,
])
def test_limit_reached_at_a_peak_is_complete(engine, chain22_plus):
    # a limit stops a run only while an improving move remains: a run that
    # reaches a peak at exactly max_steps steps is complete
    start = (0,) * 12
    full = engine(chain22_plus, start)
    assert full.complete and full.num_steps > 0
    assert engine(chain22_plus, start, max_steps=full.num_steps) == full
    assert engine(chain22_plus, full.end, max_steps=0).complete
    cut = engine(chain22_plus, start, max_steps=full.num_steps - 1)
    assert not cut.complete and cut.num_steps == full.num_steps - 1
