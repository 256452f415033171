"""Local-search ascent engines with full trace recording.

The three engines share one Python loop, _ascend.  It keeps per-variable
gradients and the set of currently improving variables with their gains,
updated in O(degree) per flip, and takes a selection rule that picks the
variable to flip from that set each step.  Each rule is a small class that
holds the rule's parameters:

- _Steepest: a variable of maximal gain, the lowest index on ties (counted,
  or raised under the "error" tie policy);
- _Random(seed): sorted(imp)[random.Random(seed).randrange(len(imp))];
- _First(order): the next one in the cyclic scan order, just past the last
  flip.

Fitness strictly increases every step, so every run terminates, and a run
ends at a peak unless a max_steps limit stops it while a move still improves.

All three rules also run on a native kernel (_ascend.c), compiled with the
platform's C compiler on first use and loaded through ctypes, at two widths:
int64 for instances with |constant| + sum of |weights| below 2^62, and
128-bit (where the compiler has __int128) below 2^126.  Within its bound a
width's arithmetic is exact, and every rule gives the same Trace as _ascend
with that rule.  A random ascent's kernel draws from words that
random.Random(seed) drew, as randrange draws from them (see _Random), for
every seed that random.Random takes, and finds the r-th smallest improving
variable with a Fenwick tree, so a random step costs O(degree * log d).
_ascend is the reference, and it runs everything else: instances at or
above 2^126, above 2^62 when there is no 128-bit width, and all runs when no
kernel can be built.

Most ascents that check the paper's claims are short, so a kernel call is
kept to little more than the kernel's own work.  Every ascent is one call.
Its C functions have no ctypes argtypes, and the instance's five arrays go
as one block of their addresses, built with the arrays.  The start is
checked and converted once, by check_assignment, whose bytes fill the
kernel's buffer and give Trace.start.  Trace's own __init__ stores its
fields straight into its __dict__, in place of the frozen dataclass's
eleven object.__setattr__ calls.  A random ascent hands the kernel _WORDS
words, enough for most short ascents, and runs again with twice as many
where they run out.  First-improvement in index order passes no order array
(NULL).  On a 2-core Xeon a 43-step steepest ascent on chain(4, 4, '+')
costs about 4.9 us a call.

Two kernel results are arrays of ints, each copied once (_copy_out) into an
array.array, freed, and returned as a PackedInts that reads, compares and
hashes as the reference's tuple, so no item is a Python object unless it is
read.  A recorded run's steps are a Steps, records (variable, gain, fitness
after) of three int64s, which the kernel grows as the run goes (1,024, then
twice as many each time); at 128 bits they are read into the tuple of tuples
that the Python loop records instead.  landscape.ascent_graph's search runs
on the int64 width for at most 64 variables (_ascent_graph64), with uint64
masks found again through an open-addressing table; its nodes, fitness,
offsets and edges are an int an item, and its sinks are found from the
offsets' bytes.

replay and write_trace_csv each have one kernel path, taken exactly when the
steps are a Steps, whose int64 array vcsp_replay64 and vcsp_csv_rows64 read
in place.  replay walks the steps over the instance's int64 arrays, with the
same checks in the same order, where the instance is on that width;
write_trace_csv formats the rows, each labelled by its variable's index,
into a buffer of at most _CHUNK rows that it writes as it goes.  Their
Python loops are the reference and run every other trace: hand-made or
edited steps, which are tuples, replays on instances not on the int64
width, and every trace when there is no kernel.  replay also runs its loop
after any failure on the kernel, so every message comes from one place.

landscape.orient has a kernel path too, _orient64 (vcsp_orient64), on the
int64 width where no degree is above core.TABLE_DEGREE_CAP: the sign
sources, the conflict and the arcs in one call; orient orders the arcs in
Python on either path.  So have generator._validate_weights, _validate64
(vcsp_validate64), and landscape.check_semismooth, _semismooth64
(vcsp_semismooth64), on the int64 width: each only decides pass or fail,
and its Python loop runs after a fail, so every message and every face
violation is the loop's.  Those loops stay the reference for everything
else.  These five int64 passes (replay, the ascent graph, orient,
validation, semismoothness) call their C functions by name on arrays from
one gate, _kernel_arrays(inst, int64_only=True): a first call builds the
instance's kernel arrays, as the first ascent does, but only where they are
int64, and declines wider ones.  A chain's first call is its validation.

The random engine draws from Python's Mersenne Twister (random.Random), whose
bitstream is stable across platforms and versions; a run is reproducible from
its seed, and trial batches derive per-trial seeds by counter from the master
seed (seed * 2^32 + trial index).
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import operator
import os
import random
import struct
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

from . import core
from .core import Bits, Instance
from .errors import (
    EmptyTrialError,
    InvalidArgumentError,
    NoRecordedStepsError,
    RangeError,
    ReplayMismatchError,
    TieEncounteredError,
    TooLargeError,
)

TIE_POLICIES = ("lowest-index", "error")
METHODS = ("steepest", "random", "first")

_STEP = struct.Struct("3q")  # a step as the kernel records it at int64


class PackedInts(Sequence):
    """A read-only sequence of records of width ints, held in one
    array.array: the kernel's ascent graph holds its nodes, fitness, offsets
    and edges in these, an int an item, and a recorded run its steps in
    their subclass Steps, three ints an item.

    It reads as the tuple of its items: len, indexing, iteration, hash, repr
    and pickling are the tuple's.  It equals another of its class with the
    same ints and a tuple with the same items, and nothing else, as a tuple
    does not equal a list.  A slice is a PackedInts, and index, count and
    `in` run on the array.  It takes an array it is given as its own, and
    reads anything else as the bytes of whole int64 records."""

    __slots__ = ("_array",)
    width = 1

    def __new__(cls, values: array | bytes = b""):
        if not isinstance(values, array):
            raw = bytes(values)
            if len(raw) % (8 * cls.width):
                raise ValueError(
                    f"{cls.__name__} needs a multiple of {8 * cls.width} bytes, got {len(raw)}")
            values = array("q", raw)
        elif cls.width > 1 and (values.typecode != "q" or len(values) % cls.width):
            raise ValueError(f"{cls.__name__} needs an int64 array of whole records")
        self = object.__new__(cls)
        object.__setattr__(self, "_array", values)
        return self

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), (self._array,)

    def __len__(self) -> int:
        return len(self._array) // self.width

    def __iter__(self):
        return iter(self._array)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PackedInts(self._array[i])
        return self._array[i]

    def __contains__(self, value) -> bool:
        return value in self._array

    def index(self, value, start: int = 0, stop: int = sys.maxsize) -> int:
        return self._array.index(value, start, stop)

    def count(self, value) -> int:
        return self._array.count(value)

    def __eq__(self, other):
        if type(other) is type(self):
            return self._array == other._array
        if isinstance(other, tuple):
            return len(other) == len(self) and all(map(operator.eq, self, other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class Steps(PackedInts):
    """Recorded steps: the kernel's int64 records, whose item is the
    (variable, gain, fitness after) tuple that the Python loop records.
    Only what a record changes differs from PackedInts: a step-1 slice is a
    Steps and any other slice a tuple, as is a concatenation with a tuple;
    index, count and `in` search the steps, as a tuple's do."""

    __slots__ = ()
    width = 3
    __contains__, index, count = Sequence.__contains__, Sequence.index, Sequence.count

    def __iter__(self):
        return _STEP.iter_unpack(self._array)

    def __getitem__(self, i):
        n = len(self)
        if isinstance(i, slice):
            start, stop, step = i.indices(n)
            if step == 1:
                return Steps(self._array[3 * start:3 * stop])
            return tuple(map(self.__getitem__, range(start, stop, step)))
        i = operator.index(i)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("Steps index out of range")
        return _STEP.unpack_from(self._array, _STEP.size * i)

    def __add__(self, other):
        return tuple(self) + tuple(other) if isinstance(other, (tuple, Steps)) else NotImplemented

    def __radd__(self, other):
        # only a tuple: list += steps must reach list's own in-place concat
        return other + tuple(self) if isinstance(other, tuple) else NotImplemented


@dataclass(frozen=True, init=False)
class Trace:
    """Record of one ascent.

    steps holds (flipped variable, gain, fitness after) per step when
    recording is on, else None (summary fields are always filled, which keeps
    multi-million-step runs in constant memory).  It is a tuple of such
    tuples, or, for a run on the kernel's int64 width, a Steps (see
    PackedInts) that reads as that tuple.  tie_events counts
    steps where two or more moves shared the maximal gain; it is only
    meaningful for the steepest engine and 0 elsewhere.  complete is False
    exactly when a max_steps limit stopped the run while some move still
    improved; otherwise end is a peak.
    """
    method: str
    start: Bits
    end: Bits
    num_steps: int
    fitness_start: int
    fitness_end: int
    min_gain: int | None
    tie_events: int
    steps: Sequence[tuple[int, int, int]] | None
    seed: int | None = None
    complete: bool = True

    def __init__(self, method, start, end, num_steps, fitness_start, fitness_end, min_gain,
                 tie_events, steps, seed=None, complete=True):
        """The dataclass's __init__, its arguments and defaults, storing the
        fields straight into __dict__: 0.8 us a call less than the generated
        one's object.__setattr__ calls.  One store per field, in field order,
        keeps the key-sharing dict (160 bytes by sys.getsizeof; one
        dict.update makes a table of its own, 464)."""
        fields = self.__dict__
        fields["method"] = method
        fields["start"] = start
        fields["end"] = end
        fields["num_steps"] = num_steps
        fields["fitness_start"] = fitness_start
        fields["fitness_end"] = fitness_end
        fields["min_gain"] = min_gain
        fields["tie_events"] = tie_events
        fields["steps"] = steps
        fields["seed"] = seed
        fields["complete"] = complete


def _step_limit(max_steps: int | None) -> int:
    """The engines' step limit: -1 for none, else max_steps, which must be an
    integer (numpy ints too) >= 0."""
    if max_steps is None:
        return -1
    try:
        limit = operator.index(max_steps)
    except TypeError:
        raise InvalidArgumentError(
            f"max_steps must be an integer or None, got {max_steps!r}") from None
    if limit < 0:
        raise RangeError(f"max_steps must be >= 0, got {max_steps}")
    return limit


def _ascend(rule, inst: Instance, start: Sequence[int], record_steps: bool,
            limit: int) -> Trace:
    """The ascent loop of every engine in Python.

    imp maps each improving variable to its gain.  While it is not empty and
    fewer than limit steps (-1: no limit) have been taken, the selection rule
    rule(imp) names the variable to flip.  Only the flipped variable's
    neighbours change gradient, so a step costs O(degree) plus the rule.  The
    run is complete when it ends at a peak, also when that is at the limit.
    """
    x = bytearray(inst.check_assignment(start))
    start = tuple(x)
    fit0 = fit = inst.fitness(start)
    neighbors = inst.neighbors
    grad = [inst._gradient(i, x) for i in range(inst.num_vars)]
    imp = {}
    for i, g in enumerate(grad):
        gain = -g if x[i] else g
        if gain > 0:
            imp[i] = gain
    steps: list[tuple[int, int, int]] | None = [] if record_steps else None
    nsteps = 0
    min_gain = None
    while imp and nsteps != limit:
        v = rule(imp)
        gain = imp.pop(v)
        fit += gain
        bit = x[v] = x[v] ^ 1
        for u, w in neighbors[v]:
            g = grad[u] = grad[u] + (w if bit else -w)
            if x[u]:
                g = -g
            if g > 0:
                imp[u] = g
            elif u in imp:
                del imp[u]
        nsteps += 1
        if min_gain is None or gain < min_gain:
            min_gain = gain
        if steps is not None:
            steps.append((v, gain, fit))
    return Trace(rule.method, start, tuple(x), nsteps, fit0, fit, min_gain, rule.ties,
                 None if steps is None else tuple(steps), rule.seed, not imp)


# --- the selection rules ------------------------------------------------------

_STEEPEST, _RANDOM, _FIRST = 0, 1, 2  # the kernel's rules, as in _ascend.c
# a random ascent's first words for the kernel: at seeds 1, 2, 3, 7 and 11, those
# of perfbench's param-sweep use at most 201 (36 at the median), cli-session's 286
_WORDS = 256


class _Steepest:
    """Steepest ascent's selection rule: a variable of maximal gain, the
    lowest index on ties.  It counts the steps with tied moves in ties, or,
    under raise_on_tie, raises TieEncounteredError at the first."""

    method = "steepest"
    seed = None

    def __init__(self, raise_on_tie: bool):
        self.raise_on_tie = raise_on_tie
        self.calls = 0
        self.ties = 0

    def __call__(self, imp: dict[int, int]) -> int:
        self.calls += 1
        best = -1
        best_g = 0
        nmax = 1
        for v, g in imp.items():
            if g > best_g:
                best_g = g
                best = v
                nmax = 1
            elif g == best_g:
                nmax += 1
                if v < best:
                    best = v
        if nmax > 1:
            if self.raise_on_tie:
                raise _tie_error(self.calls, nmax, best_g)
            self.ties += 1
        return best

    def kernel_args(self):
        """The kernel's rule, stop_on_tie, order and words arguments; only
        the random rule has words."""
        return _STEEPEST, int(self.raise_on_tie), None, b""


class _Random:
    """Random ascent's selection rule: the improving variable at a uniformly
    random rank in index order, sorted(imp)[randrange(len(imp))], drawn from
    random.Random(seed).  The kernel draws as randrange does from the words
    that draw takes from the same generator."""

    method = "random"
    ties = 0

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)  # raises here for a seed that Random rejects

    def __call__(self, imp: dict[int, int]) -> int:
        return sorted(imp)[self.rng.randrange(len(imp))]

    def kernel_args(self):
        """As _Steepest.kernel_args, with the generator's first _WORDS words."""
        return _RANDOM, 0, None, self.draw(_WORDS)

    def draw(self, n: int) -> bytes:
        """The generator's next n 32-bit words: 4 little-endian bytes each,
        in the order that n calls of getrandbits(32) return them."""
        return self.rng.getrandbits(32 * n).to_bytes(4 * n, "little")


class _First:
    """First-improvement's selection rule: the first improving variable in
    the cyclic scan order, starting at pos, which then moves just past it.
    The order is a permutation of the d variables, or None for index order."""

    method = "first"
    seed = None
    ties = 0

    def __init__(self, order: tuple[int, ...] | None, d: int):
        self.order = order
        self.scan = range(d) if order is None else order
        self.pos = 0

    def __call__(self, imp: dict[int, int]) -> int:
        order = self.scan
        pos = self.pos
        while True:
            v = order[pos]
            pos += 1
            if pos == len(order):
                pos = 0
            if v in imp:
                self.pos = pos
                return v

    def kernel_args(self):
        """As _Steepest.kernel_args; a None order is NULL, which the kernel
        scans in index order."""
        order = None if self.order is None else _c_array(ctypes.c_int32, self.order)
        return _FIRST, 0, order, b""


def _tie_error(step: int, moves: int, gain: int) -> TieEncounteredError:
    return TieEncounteredError(f"step {step}: {moves} moves share the maximal gain {gain}")


# --- the native kernel ----------------------------------------------------------

_CHUNK = 2 ** 14  # trace CSV rows per kernel call
_PEAK, _LIMIT, _TIE, _NO_MEMORY, _DRAWN = range(5)  # the kernel's stop reasons, as in _ascend.c
_CONFLICT = 5  # vcsp_orient64's status for a two-way dependence, as in _ascend.c
_SRC = Path(__file__).with_name("_ascend.c")


def _c_array(ctype, values: Sequence[int]):
    """A ctypes array of values, ctype c_int32 or c_int64, copied from the
    bytes struct.pack makes of them: at 120 values, half the time of filling
    the array by slice or through an array.array."""
    n = len(values)
    return (ctype * n).from_buffer_copy(
        struct.pack(f"{n}{'i' if ctype is ctypes.c_int32 else 'q'}", *values))


def _copy_out(address: int | None, code: str, count: int) -> array:
    """count items of typecode code at the C address, copied once into an
    array.array; the address may be None where count is 0."""
    values = array(code)
    if count:
        values.frombytes((ctypes.c_char * (values.itemsize * count)).from_address(address))
    return values


class _Int64:
    """The kernel at int64 (vcsp_ascend): exact while |constant| + sum of
    |weights| < 2^62.  Its integers, the constant included, are ctypes int64
    arrays.  fn is the width's vcsp_ascend and lib the loaded library, whose
    vcsp_free frees what the kernel allocates.  steps makes a recorded run's
    records a Steps; the 128-bit width reads them into a tuple of tuples
    instead.  The int64 passes call lib's vcsp_*64 functions by name, on
    arrays that _kernel_arrays(inst, int64_only=True) finds on this width."""

    symbol = "vcsp_ascend"
    bound = 2 ** 62
    size = 8  # bytes an integer
    Result = ctypes.c_int64 * 7  # the kernel's res[], as in _ascend.c

    def __init__(self, fn, lib):
        self.fn = fn
        self.lib = lib

    @staticmethod
    def array(values: Sequence[int]):
        return _c_array(ctypes.c_int64, values)

    @staticmethod
    def read(array, k: int) -> list[int]:
        """The first k integers of array."""
        return array[:k]

    @staticmethod
    def steps(out, k: int) -> Steps:
        """The first k step records at out, a c_void_p, as a Steps."""
        return Steps(_copy_out(out.value, "q", 3 * k))


class _Int128(_Int64):
    """The kernel at 128 bits (vcsp_ascend128): exact while |constant| + sum
    of |weights| < 2^126.  Each integer is 16 little-endian bytes in a char
    buffer, which need not be 16-byte aligned (the kernel copies values in
    and out with memcpy)."""

    symbol = "vcsp_ascend128"
    bound = 2 ** 126
    size = 16
    Result = ctypes.c_char * (16 * 7)

    @staticmethod
    def array(values: Sequence[int]):
        data = b"".join(v.to_bytes(16, "little", signed=True) for v in values)
        return (ctypes.c_char * len(data)).from_buffer_copy(data)

    @staticmethod
    def read(array, k: int) -> list[int]:
        raw = ctypes.string_at(array, 16 * k)
        return [int.from_bytes(raw[i:i + 16], "little", signed=True)
                for i in range(0, 16 * k, 16)]

    @classmethod
    def steps(cls, out, k: int) -> tuple[tuple[int, int, int], ...]:
        cells = iter(cls.read(out, 3 * k))
        return tuple(zip(cells, cells, cells))


@functools.cache
def _native_kernel():
    """The kernel's widths, narrowest first, or None when it cannot be built
    or loaded.  The 128-bit width is there only where the compiler has
    __int128 on a little-endian machine (not, for example, on a 32-bit target).

    Compiled on the first call, with the C compiler Python was built with,
    into __pycache__/ under a name keyed by the sha256 of the source and the
    platform; the outcome, either way, is kept for the life of the process.

    The kernel's functions have no argtypes: ctypes then converts each
    argument by its type, about 1 us a call faster than through argtypes.
    So every caller passes ints only for the C functions' int32_t
    parameters, ctypes int64s for max_steps and n_words, and ctypes arrays,
    bytes, a byref(), a c_void_p (never a bare int address, which ctypes
    passes as a C int) or None for the pointers (see _ascend.c).  vcsp_free
    alone has them, so that it takes the int addresses a ctypes c_void_p
    array reads as.
    """
    import sysconfig

    cc = sysconfig.get_config_var("CC")
    if not cc:
        return None
    try:
        key = hashlib.sha256(_SRC.read_bytes() + sysconfig.get_platform().encode())
        lib = _SRC.parent / "__pycache__" / f"_ascend-{key.hexdigest()[:16]}.so"
        if not lib.exists():
            _compile(cc, lib)
        lib = ctypes.CDLL(str(lib))
    except OSError:
        return None
    lib.vcsp_free.restype = None
    lib.vcsp_free.argtypes = [ctypes.c_void_p]
    lib.vcsp_replay64.restype = lib.vcsp_csv_rows64.restype = ctypes.c_int64
    widths = []
    for width in (_Int64, _Int128):
        fn = getattr(lib, width.symbol, None)
        if fn is not None:
            widths.append(width(fn, lib))
    return tuple(widths)


def _compile(cc: str, lib: Path) -> None:
    """Compile _SRC into the shared library lib; raises OSError on failure.

    The compiler writes a temporary file that is then renamed into place, so
    processes building at the same time never load a half-written library.
    """
    import shlex
    import subprocess
    import tempfile

    lib.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so.tmp", dir=lib.parent)
    os.close(fd)
    try:
        subprocess.run([*shlex.split(cc), "-O2", "-shared", "-fPIC", "-o", tmp, str(_SRC)],
                       check=True, capture_output=True, timeout=120)
        os.replace(tmp, lib)
    except subprocess.SubprocessError as e:
        raise OSError(f"cannot compile {_SRC}: {e}") from e
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class _NativeArrays:
    """One instance's arrays for the kernel at one width, in two buffers:
    ints32 holds the CSR offsets and then the neighbours, and ints the
    constant, the CSR weights and then the unaries, as the width's integers.
    block holds the five arrays' addresses in the order the kernel reads
    them, valid while this object holds the buffers.  One block is one
    argument a call, about 0.4 us faster than five arrays, and two buffers
    are built faster than five.  The kernel only reads them, so threads can
    share them; the buffers it writes belong to one call."""

    __slots__ = ("width", "ints32", "ints", "block")

    def __init__(self, inst: Instance, width):
        off, nbr, w = [0], [], []
        for row in inst.neighbors:
            for j, wt in row:
                nbr.append(j)
                w.append(wt)
            off.append(len(nbr))
        get = inst.unaries.get
        self.width = width
        self.ints32 = _c_array(ctypes.c_int32, off + nbr)
        self.ints = width.array([inst.constant, *w, *[get(v, 0) for v in range(inst.num_vars)]])
        at32 = ctypes.addressof(self.ints32)
        at = ctypes.addressof(self.ints)
        size = width.size
        self.block = (ctypes.c_void_p * 5)(at, at32, at32 + 4 * len(off), at + size,
                                           at + size * (1 + len(w)))


def _ascend_native(a: _NativeArrays, rule, inst: Instance, start: Sequence[int],
                   record_steps: bool, limit: int) -> Trace:
    """_ascend with rule, on the kernel.  The whole run is one call, but for a
    random ascent whose words run out (_DRAWN): it runs again from the start
    with twice as many, the rest drawn from the same generator, and repeats
    what it read.  A recorded run's records come back in memory the kernel
    grew, which is copied once into the steps and then freed."""
    code, stop_on_tie, order, words = rule.kernel_args()
    bits = inst.check_assignment(start)
    d = inst.num_vars
    if limit >= 2 ** 63:
        limit = -1  # no limit in practice: at 30M steps/s, 2^63 steps take about 10^4 years
    width = a.width
    res = width.Result()
    while True:
        x = ctypes.create_string_buffer(bits, d)
        out = ctypes.c_void_p() if record_steps else None
        try:
            status = width.fn(d, a.block, x, ctypes.c_int64(limit), code, stop_on_tie, order,
                              words, ctypes.c_int64(len(words) // 4),
                              out if out is None else ctypes.byref(out), res)
            if status == _NO_MEMORY:
                raise MemoryError(
                    "the ascent kernel could not allocate its scratch or step records")
            if status != _DRAWN:
                k, fit0, fit, least, ties, tie_moves, tie_gain = width.read(res, 7)
                if status == _TIE:
                    raise _tie_error(k + 1, tie_moves, tie_gain)
                steps = None if out is None else width.steps(out, k)
                break
        finally:
            if out:
                width.lib.vcsp_free(out)
        words += rule.draw(len(words) // 4)
    return Trace(rule.method, tuple(bits), tuple(x.raw), k, fit0, fit, least if k else None,
                 ties, steps, rule.seed, status == _PEAK)


def _kernel_arrays(inst: Instance, int64_only: bool = False) -> _NativeArrays | bool | None:
    """inst's kernel arrays, built on first use at the narrowest width that
    is exact on it; False where its weights are too large for every width,
    None where there is no kernel.  With int64_only, the gate of the int64
    passes: the arrays only where they are on the int64 width, else None,
    and nothing is built where they would be wider."""
    widths = _native_kernel()
    if not widths:
        return None
    arrays = inst._native
    if arrays is None:
        total = (abs(inst.constant) + sum(map(abs, inst.unaries.values()))
                 + sum(map(abs, inst.binaries.values())))
        width = next((w for w in widths if total < w.bound), None)
        if int64_only and width is not widths[0]:
            return None
        arrays = inst._native = _NativeArrays(inst, width) if width else False
    elif int64_only and (not arrays or arrays.width is not widths[0]):
        return None
    return arrays


def _run(rule, inst: Instance, start: Sequence[int], record_steps: bool, limit: int) -> Trace:
    """rule's ascent on the narrowest kernel width that is exact on inst, or
    on _ascend where there is none."""
    arrays = _kernel_arrays(inst)
    if not arrays:
        return _ascend(rule, inst, start, record_steps, limit)
    return _ascend_native(arrays, rule, inst, start, record_steps, limit)


def steepest_ascent(
    inst: Instance,
    start: Sequence[int],
    tie_policy: str = "lowest-index",
    record_steps: bool = True,
    max_steps: int | None = None,
) -> Trace:
    """Follow the steepest ascent: always flip a variable of maximal gain.

    Ties are resolved by lowest variable index (or raised, under policy
    "error") and counted either way.  This is the package's hot path; it
    runs on the native kernel where there is one (see the module docstring).
    """
    if tie_policy not in TIE_POLICIES:
        raise InvalidArgumentError(f"tie_policy must be one of {TIE_POLICIES}, got {tie_policy!r}")
    limit = _step_limit(max_steps)
    return _run(_Steepest(tie_policy == "error"), inst, start, record_steps, limit)


def random_ascent(
    inst: Instance,
    start: Sequence[int],
    seed: int,
    record_steps: bool = True,
    max_steps: int | None = None,
) -> Trace:
    """Flip a uniformly random improving variable each step.

    Deterministic given the seed (random.Random(seed).randrange over the
    sorted improving set), so experiment runs are reproducible in CI.  The
    seed is any that random.Random takes; a seed it rejects raises before any
    draw.  The run is on the native kernel where there is one, with the same
    draws.
    """
    limit = _step_limit(max_steps)
    return _run(_Random(seed), inst, start, record_steps, limit)


def first_improvement_ascent(
    inst: Instance,
    start: Sequence[int],
    scan_order: Sequence[int] | None = None,
    record_steps: bool = True,
    max_steps: int | None = None,
) -> Trace:
    """Flip the first improving variable found in cyclic scan order.

    Scanning starts at the first position and, after a flip, resumes just past
    the flipped position; the run ends once no variable improves.
    """
    d = inst.num_vars
    order = None
    if scan_order is not None:
        try:  # ints, as the kernel reads them: numpy ints convert, floats do not
            order = tuple(map(operator.index, scan_order))
        except TypeError:
            order = None
        if order is None or sorted(order) != list(range(d)):
            raise InvalidArgumentError("scan_order must be a permutation of the variable indices")
    limit = _step_limit(max_steps)
    return _run(_First(order, d), inst, start, record_steps, limit)


def replay(inst: Instance, trace: Trace) -> None:
    """Re-apply a recorded trace and verify every recorded quantity.

    Raises ReplayMismatchError on the first mismatch (wrong gain, wrong running
    fitness, non-increasing step, wrong endpoint, or an endpoint that is not
    a peak despite the trace claiming completion).  The steps of a Steps run
    on the kernel (see the module docstring), all others on the loop here.
    """
    if trace.steps is None:
        raise NoRecordedStepsError("trace has no recorded steps to replay")
    x = list(trace.start)
    fit = inst.fitness(x)  # validates the start once; flips keep it valid
    if fit != trace.fitness_start:
        raise ReplayMismatchError(f"recorded start fitness {trace.fitness_start}, computed {fit}")
    replayed = _replay64(inst, trace.steps, x, fit)
    if replayed:
        x, fit = replayed
    else:  # the reference, also for every failure on the kernel: one source of messages
        for t, (v, gain, after) in enumerate(trace.steps, start=1):
            inst._check_index(v)
            g = inst._gradient(v, x)
            actual = -g if x[v] else g
            if actual != gain:
                raise ReplayMismatchError(f"step {t}: recorded gain {gain}, computed {actual}")
            if gain <= 0:
                raise ReplayMismatchError(f"step {t}: non-improving recorded step")
            x[v] ^= 1
            fit += gain
            if fit != after:
                raise ReplayMismatchError(f"step {t}: recorded fitness {after}, computed {fit}")
    if tuple(x) != trace.end:
        raise ReplayMismatchError("replayed end differs from recorded end")
    if fit != trace.fitness_end:
        raise ReplayMismatchError("replayed final fitness differs from recorded value")
    if len(trace.steps) != trace.num_steps:
        raise ReplayMismatchError("num_steps differs from the recorded step list")
    if trace.complete and inst.improving_moves(x):
        raise ReplayMismatchError("trace claims completion but end is not a local peak")


def _replay64(inst: Instance, steps, start: list[int], fit: int) -> tuple[Bits, int] | None:
    """replay's loop over steps from start, at fitness fit, on the kernel's
    int64 width: the end and its fitness when every step checks, else None,
    also where steps is not a Steps or inst is not on that width."""
    arrays = type(steps) is Steps and _kernel_arrays(inst, int64_only=True)
    if not arrays:
        return None
    x = ctypes.create_string_buffer(bytes(start), len(start))
    f = (ctypes.c_int64 * 1)(fit)
    if arrays.width.lib.vcsp_replay64(inst.num_vars, arrays.block, x, ctypes.c_int64(len(steps)),
                                      ctypes.c_void_p(steps._array.buffer_info()[0]), f):
        return None
    return tuple(x.raw), f[0]


def _ascent_graph64(inst: Instance, mask: int, fit: int, cap: int):
    """landscape.ascent_graph's search from the start whose set variables
    are mask's bits, of fitness fit, on the kernel's int64 width
    (vcsp_ascent_graph64): its nodes, fitness, offsets and edges as
    PackedInts, and a list of the masks of its sinks.  None where inst has
    more than 64 variables or is not on that width, or cap is not an int.
    Raises TooLargeError with the reference's message at the cap, and
    MemoryError where the kernel runs out of memory.

    Each C array is copied by _copy_out (uint64 masks, int64 fitness, int32
    offsets and edges) and freed before the next is copied."""
    arrays = (inst.num_vars <= 64 and isinstance(cap, int)
              and _kernel_arrays(inst, int64_only=True))
    if not arrays:
        return None
    lib = arrays.width.lib
    graph = (ctypes.c_void_p * 4)()
    size = (ctypes.c_int64 * 2)()
    try:
        status = lib.vcsp_ascent_graph64(inst.num_vars, arrays.block, ctypes.c_uint64(mask),
                                         ctypes.c_int64(fit),
                                         ctypes.c_int64(min(max(cap, -2 ** 63), 2 ** 63 - 1)),
                                         graph, size)
        if status == _LIMIT:
            raise TooLargeError(f"ascent graph exceeds the node cap {cap}")
        if status == _NO_MEMORY:
            raise MemoryError("the ascent-graph kernel could not allocate its arrays")
        n, m = size

        def read(slot, code, count):
            values = _copy_out(graph[slot], code, count)
            lib.vcsp_free(graph[slot])
            graph[slot] = None
            return values

        nodes, fitness = read(0, "Q", n), read(1, "q", n)  # a mask of 2^63 or more stays positive
        offsets, edges = read(2, "i", n + 1), read(3, "i", m)
    finally:
        for p in graph:
            lib.vcsp_free(p)
    # A node has at most 64 out-edges, so the low bytes of its two offsets
    # are equal exactly when it has none.  One XOR of two ints compares the
    # low bytes of all consecutive offsets; its zero bytes are the sinks.
    low = offsets.tobytes()[0 if sys.byteorder == "little" else 3::4]
    same = int.from_bytes(low[:-1], "little") ^ int.from_bytes(low[1:], "little")
    same = same.to_bytes(n, "little")
    sinks = []
    k = same.find(0)
    while k >= 0:
        sinks.append(nodes[k])
        k = same.find(0, k + 1)
    return (*map(PackedInts, (nodes, fitness, offsets, edges)), sinks)


def _orient64(inst: Instance):
    """landscape.orient's sign-dependence analysis on the kernel's int64
    width (vcsp_orient64): (arcs, conflict), as landscape._orient_loop
    finds them.  conflict is None, or the first edge (i, j) whose ends
    depend on each other, and then arcs is empty.  None where inst is not on
    that width or has a degree above core.TABLE_DEGREE_CAP, read at call
    time.  Raises MemoryError where the kernel cannot allocate its scratch."""
    arrays = _kernel_arrays(inst, int64_only=True)
    if not arrays:
        return None
    arcs = (ctypes.c_int32 * (2 * len(inst.binaries)))()
    info = (ctypes.c_int32 * 2)()
    status = arrays.width.lib.vcsp_orient64(inst.num_vars, arrays.block,
                                            min(core.TABLE_DEGREE_CAP, 31), arcs, info)
    if status == _LIMIT:
        return None
    if status == _NO_MEMORY:
        raise MemoryError("the orientation kernel could not allocate its scratch")
    if status == _CONFLICT:
        return (), tuple(info)
    ends = iter(arcs[:2 * info[0]])
    return tuple(zip(ends, ends)), None


def _validate64(inst: Instance, n: int, sign: str, top: int) -> bool:
    """generator._validate_weights' per-variable checks of the fully
    labelled inst, whose label (top_k, 1) is at index top, on the kernel's
    int64 width (vcsp_validate64): True when every variable passes.  False
    when one fails, and where inst is not on that width, n is outside
    1 <= n < 2^40 or some n + 1 - k of a label (k, i) does not pack as int64."""
    arrays = 1 <= n < 2 ** 40 and _kernel_arrays(inst, int64_only=True)
    if not arrays:
        return False
    labels = inst.labels
    try:
        s = _c_array(ctypes.c_int64, [n + 1 - labels[v][0] for v in range(inst.num_vars)])
    except struct.error:
        return False
    return not arrays.width.lib.vcsp_validate64(
        inst.num_vars, arrays.block, ctypes.c_int64(2 * n + 1), top if sign == "+" else -1, s)


def _semismooth64(inst: Instance) -> bool | None:
    """landscape.check_semismooth's count on the kernel's int64 width
    (vcsp_semismooth64), for at most 24 variables, which check_semismooth
    checks first: True when every face has one peak, False when some face
    has not, None where inst is not on that width.  Raises MemoryError where
    the kernel cannot allocate its tables."""
    arrays = _kernel_arrays(inst, int64_only=True)
    if not arrays:
        return None
    status = arrays.width.lib.vcsp_semismooth64(inst.num_vars, arrays.block)
    if status == _NO_MEMORY:
        raise MemoryError("the semismoothness kernel could not allocate its tables")
    return not status


@dataclass(frozen=True)
class TrialStats:
    """Aggregates over independent trials; mean is exact (a Fraction)."""
    method: str
    trials: int
    step_counts: tuple[int, ...]
    mean: Fraction
    min: int
    max: int
    seed: int | None


def run_trials(
    inst: Instance,
    start: Sequence[int],
    method: str = "random",
    trials: int = 100,
    seed: int = 0,
    **kwargs,
) -> TrialStats:
    """Run independent ascents and aggregate their step counts.

    Per-trial seeds are seed * 2^32 + t for trial t, so a batch is fully
    determined by the master seed, which must be an integer (numpy ints
    too).  Deterministic methods take no seed: they run once, and every
    trial repeats that run's step count.
    """
    try:
        trials = operator.index(trials)
    except TypeError:
        raise InvalidArgumentError(f"trials must be an integer, got {trials!r}") from None
    if trials < 1:
        raise EmptyTrialError(f"need at least 1 trial, got {trials}")
    if method not in METHODS:
        raise InvalidArgumentError(f"method must be one of {METHODS}, got {method!r}")
    if method == "random":
        try:
            seed = operator.index(seed)
        except TypeError:
            raise InvalidArgumentError(f"seed must be an integer, got {seed!r}") from None
        counts = [random_ascent(inst, start, seed=seed * 2 ** 32 + t, record_steps=False,
                                **kwargs).num_steps for t in range(trials)]
    else:
        engine = steepest_ascent if method == "steepest" else first_improvement_ascent
        counts = [engine(inst, start, record_steps=False, **kwargs).num_steps] * trials
    return TrialStats(method, trials, tuple(counts), Fraction(sum(counts), trials),
                      min(counts), max(counts), seed if method == "random" else None)


def write_trace_csv(trace: Trace, inst: Instance, path) -> None:
    """Write a recorded trace as CSV with metadata comment lines.

    Columns: step, var_index, var_label, gain, fitness_after.  var_label is
    "(k,i)" for labeled variables, empty otherwise, as for a variable that
    inst lacks (none is checked).  A Steps with steps has its rows written
    by the kernel (see the module docstring), with the same bytes.
    """
    steps = trace.steps
    if steps is None:
        raise NoRecordedStepsError("trace has no recorded steps to write")
    widths = _native_kernel()
    on_kernel = type(steps) is Steps and steps and widths
    # rows as csv.writer writes them: "\r\n" after each, and the label,
    # which holds a comma, in double quotes
    label = {v: f'"({k},{i})"' for v, (k, i) in inst.labels.items()}
    header = (f"# method={trace.method}\n"
              f"# seed={trace.seed if trace.seed is not None else ''}\n"
              f"# instance=sha256:{inst.content_hash()}\n"
              "step,var_index,var_label,gain,fitness_after\r\n")
    if not on_kernel:  # the reference: each variable's "v,label," once
        prefix = {v: f"{v},{label.get(v, '')}," for v in set(map(operator.itemgetter(0), steps))}
        rows = ["%d,%s%d,%d\r\n" % (t, prefix[v], gain, after)
                for t, (v, gain, after) in enumerate(steps, start=1)]
        with open(path, "w", newline="") as fh:
            fh.write(header + "".join(rows))
        return
    # the same rows from the kernel, a buffer of at most _CHUNK rows at a time
    labels = [label.get(v, "").encode() for v in range(inst.num_vars)]
    args = (ctypes.c_void_p(steps._array.buffer_info()[0]), ctypes.c_int64(inst.num_vars),
            _c_array(ctypes.c_int32, [0, *accumulate(map(len, labels))]), b"".join(labels))
    n = len(steps)
    out = ctypes.create_string_buffer(min(n, _CHUNK) * (96 + max(map(len, labels), default=0)))
    with open(path, "w", newline="") as fh:
        fh.write(header)
        fh.flush()
        for t in range(0, n, _CHUNK):
            size = widths[0].lib.vcsp_csv_rows64(ctypes.c_int64(t),
                                                 ctypes.c_int64(min(_CHUNK, n - t)), *args, out)
            fh.buffer.write(memoryview(out)[:size])
