"""Binary Boolean VCSP instances: exact fitness, gradients, and bit-flip moves.

An instance is a set of integer-weighted unary and binary constraints over
Boolean variables indexed 0..num_vars-1, plus a constant term.  The fitness of
an assignment x is

    constant + sum_i unary[i]*x[i] + sum_{i<j} binary[i,j]*x[i]*x[j]

and "solving" the instance means maximizing it.  All weights and fitness
values are Python ints, so arithmetic is exact at any magnitude; there is no
integer width to overflow.

Assignments are plain tuples of 0/1 ints.  Variables may optionally carry
(k, i) labels (gadget index k >= 1, position i in 1..6), used by the instance
generator; labeled instances render assignment strings with variables ordered
by decreasing k and, within a gadget, increasing i.
"""
from __future__ import annotations

import hashlib
import operator
import sys
from itertools import compress, product
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
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

Bits = tuple[int, ...]
Label = tuple[int, int]

# largest degree whose 2^degree gradient table is built (about 40 MB at 20)
TABLE_DEGREE_CAP = 20

# largest num_vars an Instance takes: it allocates a neighbour list per
# variable before it reads a constraint, so a 10-byte file could otherwise
# ask for 10^12 of them
NUM_VARS_CAP = 2 ** 24


class Instance:
    """An immutable weighted-constraint instance.

    Attributes:
        num_vars: number of Boolean variables.
        constant: the constant fitness term.
        unaries: read-only mapping index -> nonzero weight.
        binaries: read-only mapping (i, j) with i < j -> nonzero weight.
        labels: read-only mapping index -> (k, i) label, possibly empty.
        neighbors: per-variable tuple of (other, weight) pairs, one per
            binary constraint touching the variable.

    Instances never mutate after construction and are safe to share across
    threads; searches copy assignments and never write back.  Setting or
    deleting an attribute, or calling __init__ again, raises AttributeError.
    Every count, index, weight and label entry is taken through
    operator.index, so bools and numpy integers become ints, and anything
    else (a float, a str) raises InvalidArgumentError, as does an unaries,
    binaries or labels argument that is not iterable.  The slots set later, on
    first use, are _native, the kernel's arrays, and _digest, the
    content_hash.
    """

    __slots__ = ("num_vars", "constant", "unaries", "binaries", "labels",
                 "_index_by_label", "neighbors", "_native", "_digest")

    def __init__(
        self,
        num_vars: int,
        constant: int = 0,
        unaries: Iterable[tuple[int, int]] | Mapping[int, int] = (),
        binaries: Iterable[tuple[int, int, int]] | Mapping[tuple[int, int], int] = (),
        labels: Iterable[tuple[int, int, int]] | Mapping[int, Label] | None = None,
    ):
        if hasattr(self, "num_vars"):
            raise AttributeError("Instance is immutable: cannot initialise it again")
        index = operator.index  # ints out; bools and numpy ints in, floats refused
        try:
            n = index(num_vars)
            constant = index(constant)
        except TypeError:
            raise InvalidArgumentError(
                f"num_vars and constant must be integers, got {num_vars!r} and {constant!r}"
            ) from None
        for name, arg in (("unaries", unaries), ("binaries", binaries),
                          ("labels", () if labels is None else labels)):
            if not hasattr(arg, "__iter__"):
                raise InvalidArgumentError(
                    f"{name} must be a mapping or an iterable of entries, got {arg!r}")
        if n < 0:
            raise IndexOutOfRangeError(f"num_vars must be >= 0, got {n}")
        if n > NUM_VARS_CAP:
            raise TooLargeError(f"num_vars must be <= {NUM_VARS_CAP}, got {n}")
        store = object.__setattr__  # past __setattr__, which refuses every public name
        store(self, "num_vars", n)
        store(self, "constant", constant)

        # each index is tested inline; _check_index is called only to raise
        if isinstance(unaries, Mapping):
            unaries = unaries.items()
        udict: dict[int, int] = {}
        for entry in unaries:
            try:
                i, w = entry
                i, w = index(i), index(w)
            except (TypeError, ValueError):
                raise _bad_entry("unary", entry, 2) from None
            if not 0 <= i < n:
                self._check_index(i)
            if w == 0:
                raise ZeroWeightError(f"unary on variable {i} has weight 0")
            if i in udict:
                raise DuplicateScopeError(f"duplicate unary scope {{{i}}}")
            udict[i] = w
        store(self, "unaries", MappingProxyType(udict))

        if isinstance(binaries, Mapping):
            binaries = [(*_items(key), w) for key, w in binaries.items()]
        bdict: dict[tuple[int, int], int] = {}
        # only a variable that a binary touches gets a list; the others share
        # one empty row, so NUM_VARS_CAP variables need no list each
        nbrs: list[list[tuple[int, int]] | tuple[()]] = [()] * n
        for entry in binaries:
            try:
                i, j, w = entry
                i, j, w = index(i), index(j), index(w)
            except (TypeError, ValueError):
                raise _bad_entry("binary", entry, 3) from None
            if not (0 <= i < n and 0 <= j < n):
                self._check_index(i)
                self._check_index(j)
            if i == j:
                raise SelfLoopError(f"binary scope pairs variable {i} with itself")
            if w == 0:
                raise ZeroWeightError(f"binary on {{{i},{j}}} has weight 0")
            key = (i, j) if i < j else (j, i)
            if key in bdict:
                raise DuplicateScopeError(f"duplicate binary scope {{{key[0]},{key[1]}}}")
            bdict[key] = w
            if row := nbrs[i]:
                row.append((j, w))
            else:
                nbrs[i] = [(j, w)]
            if row := nbrs[j]:
                row.append((i, w))
            else:
                nbrs[j] = [(i, w)]
        store(self, "binaries", MappingProxyType(bdict))

        ldict: dict[int, Label] = {}
        by_label: dict[Label, int] = {}
        if labels is not None:
            if isinstance(labels, Mapping):
                labels = [(idx, *_items(label)) for idx, label in labels.items()]
            for entry in labels:
                try:
                    idx, k, i = entry
                    idx, k, i = index(idx), index(k), index(i)
                except (TypeError, ValueError):
                    raise _bad_entry("label", entry, 3) from None
                if not 0 <= idx < n:
                    self._check_index(idx)
                if k < 1 or not (1 <= i <= 6):
                    raise ParseError(f"label ({k},{i}) out of range: need k >= 1, 1 <= i <= 6")
                if idx in ldict:
                    raise DuplicateScopeError(f"variable {idx} labeled twice")
                label = (k, i)
                if label in by_label:
                    raise DuplicateScopeError(f"label ({k},{i}) used twice")
                ldict[idx] = label
                by_label[label] = idx
        store(self, "labels", MappingProxyType(ldict))
        store(self, "_index_by_label", by_label)

        for row in filter(None, nbrs):
            row.sort()
        store(self, "neighbors", tuple(map(tuple, nbrs)))
        # the native kernel's read-only arrays, built by search on first use,
        # and the content_hash, computed on first use (a thread that races
        # another builds an equal copy of either)
        store(self, "_native", None)
        store(self, "_digest", None)

    def __setattr__(self, name, value):
        if name not in ("_native", "_digest"):
            raise AttributeError(f"Instance is immutable: cannot set {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"Instance is immutable: cannot delete {name!r}")

    def __reduce__(self):
        """Pickle by content; the kernel's ctypes arrays are rebuilt on use."""
        return (Instance, (self.num_vars, self.constant, dict(self.unaries),
                           dict(self.binaries), dict(self.labels)))

    def _check_index(self, i: int) -> None:
        if not (0 <= i < self.num_vars):
            raise IndexOutOfRangeError(f"variable index {i} not in [0, {self.num_vars})")

    def check_assignment(self, x: Sequence[int]) -> bytes:
        """x as bytes, one 0 or 1 a variable; raises LengthMismatchError or
        BitValueError where x is not an assignment of this instance.  Its
        entries are integers (bools and numpy integers too) or numpy bools."""
        if len(x) != self.num_vars:
            raise LengthMismatchError(
                f"assignment has length {len(x)}, instance has {self.num_vars} variables")
        try:
            # bytes() takes integers in range(256) and rejects floats, which
            # would compare equal to 0 and 1; tuple() first, as bytes() of a
            # numpy array is its buffer
            bits = bytes(tuple(x))
            if not bits.translate(None, b"\0\1"):
                return bits
        except (TypeError, ValueError):
            pass
        return bytes(map(_bit, x))

    def fitness(self, x: Sequence[int]) -> int:
        self.check_assignment(x)
        f = self.constant
        for i, w in self.unaries.items():
            if x[i]:
                f += w
        for (i, j), w in self.binaries.items():
            if x[i] and x[j]:
                f += w
        return f

    def gradient(self, i: int, x: Sequence[int]) -> int:
        """Fitness change from setting variable i to 1 rather than 0 in
        background x.  Depends only on x restricted to i's neighbors."""
        self._check_index(i)
        self.check_assignment(x)
        return self._gradient(i, x)

    def _gradient(self, v: int, x: Sequence[int]) -> int:
        """gradient(v, x) without its checks, for callers that have checked
        v and x: v's unary plus the weights of its neighbours set to 1."""
        g = self.unaries.get(v, 0)
        for j, w in self.neighbors[v]:
            if x[j]:
                g += w
        return g

    def improving_moves(self, x: Sequence[int]) -> list[tuple[int, int]]:
        """All (variable, gain) pairs whose flip strictly increases fitness,
        in ascending variable order.  Empty exactly at the local peaks."""
        self.check_assignment(x)
        out = []
        for i in range(self.num_vars):
            g = self._gradient(i, x)
            gain = -g if x[i] else g
            if gain > 0:
                out.append((i, gain))
        return out

    @property
    def fully_labeled(self) -> bool:
        return len(self.labels) == self.num_vars

    def index_of(self, label: Label) -> int:
        try:
            return self._index_by_label[label]
        except KeyError:
            raise IndexOutOfRangeError(f"no variable labeled {label!r}") from None

    def label_of(self, i: int) -> Label | None:
        self._check_index(i)
        return self.labels.get(i)

    def display_order(self) -> tuple[int, ...]:
        """Variable indices in assignment-string position order.

        Fully labeled instances order by decreasing gadget index k, then
        increasing position i; unlabeled (or partially labeled) instances use
        plain index order.
        """
        if self.fully_labeled:
            return tuple(sorted(range(self.num_vars),
                                key=lambda v: (-self.labels[v][0], self.labels[v][1])))
        return tuple(range(self.num_vars))

    def content_hash(self) -> str:
        """Stable hex digest of the instance content (used in trace metadata):
        the sha256 of to_text(self), computed on the first call."""
        digest = self._digest
        if digest is None:
            digest = self._digest = hashlib.sha256(to_text(self).encode()).hexdigest()
        return digest

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (self.num_vars == other.num_vars
                and self.constant == other.constant
                and self.unaries == other.unaries
                and self.binaries == other.binaries
                and self.labels == other.labels)

    def __repr__(self) -> str:
        return (f"Instance(num_vars={self.num_vars}, constant={self.constant}, "
                f"unaries={len(self.unaries)}, binaries={len(self.binaries)})")


def _items(part) -> Iterable:
    """A mapping's key or value as the items it adds to its row: those it
    holds, or itself where it is not iterable, so that Instance names the
    row."""
    return part if hasattr(part, "__iter__") else (part,)


def _bad_entry(kind: str, entry, size: int) -> InvalidArgumentError:
    """The error for a kind entry that is not size integers: it has size
    items and one is not an integer, or it is not size items."""
    row = tuple(entry) if hasattr(entry, "__iter__") else None
    if row is not None and len(row) == size:
        return InvalidArgumentError(f"{kind} {row!r} has an entry that is not an integer")
    return InvalidArgumentError(f"{kind} {entry!r} is not {size} integers")


def _bit(b) -> int:
    """The assignment entry b as 0 or 1, else BitValueError.  numpy bools
    have no __index__, so they are told by their type, without importing
    numpy."""
    try:
        i = operator.index(b)
    except TypeError:
        t = type(b)
        i = int(b) if t.__module__ == "numpy" and t.__name__ in ("bool", "bool_") else None
    if i not in (0, 1):
        raise BitValueError(f"assignment entries must be integers 0 or 1, got {b!r}")
    return i


def _neighborhood(inst: Instance, v: int) -> list[tuple[int, int]]:
    """The (neighbor, weight) pairs of v, for a caller about to go through
    all 2^degree assignments of them; raises TooLargeError instead above
    TABLE_DEGREE_CAP neighbors."""
    nbrs = inst.neighbors[v]
    if len(nbrs) > TABLE_DEGREE_CAP:
        raise TooLargeError(f"variable {v} has {len(nbrs)} neighbors; tables over "
                            f"neighborhood assignments are capped at {TABLE_DEGREE_CAP}")
    return nbrs


def _gradient_table(inst: Instance, v: int) -> list[int]:
    """The gradient of v at every assignment of its neighbors, in mask order:
    bit b of the index is the value of inst.neighbors[v][b].

    Built by doubling, one addition per entry, under _neighborhood's cap
    (read at call time).  A plain loop, not a comprehension: at degree 3 it
    builds the table in about half the time.
    """
    nbrs = inst.neighbors[v]
    if len(nbrs) > TABLE_DEGREE_CAP:
        _neighborhood(inst, v)  # raises
    sums = [inst.unaries.get(v, 0)]
    for _, w in nbrs:
        for s in sums[:]:
            sums.append(s + w)
    return sums


def parse_bits(s: str) -> Bits:
    s = s.strip()
    if any(c not in "01" for c in s):
        raise ParseError(f"assignment string must consist of 0/1 characters: {s!r}")
    return tuple(int(c) for c in s)


def format_assignment(inst: Instance, x: Sequence[int], raw: bool = False) -> str:
    """Render x as a bit string, in display order unless raw (index order)."""
    bits = inst.check_assignment(x)
    order = range(inst.num_vars) if raw else inst.display_order()
    return "".join(str(bits[v]) for v in order)


def parse_assignment(inst: Instance, s: str, raw: bool = False) -> Bits:
    """Inverse of format_assignment."""
    bits = parse_bits(s)
    if len(bits) != inst.num_vars:
        raise LengthMismatchError(
            f"assignment string has length {len(bits)}, instance has {inst.num_vars} variables")
    order = range(inst.num_vars) if raw else inst.display_order()
    x = [0] * inst.num_vars
    for pos, v in enumerate(order):
        x[v] = bits[pos]
    return tuple(x)


def from_constraint_tables(
    num_vars: int,
    tables: Iterable[tuple[Sequence[int], Mapping[tuple, int]]],
    labels=None,
) -> Instance:
    """Build an instance from explicit constraint value tables.

    Each table is (scope, values) where scope lists 1 or 2 distinct variable
    indices and values maps every bit tuple over the scope (in scope order) to
    an integer, C(bits).  A table is a polynomial in its variables: by
    inclusion-exclusion, the coefficient of the product of the variables that
    the bit tuple sub sets to 1 is the sum of (-1)^(|sub| - |low|) C(low) over
    the bit tuples low <= sub.  So a unary table adds C(1) - C(0) to its
    variable's weight, and a binary table has the product coefficient
    C(1,1) - C(0,1) - C(1,0) + C(0,0).  Alike monomials are aggregated across
    tables and coefficients that cancel to zero are dropped.  The returned
    instance's fitness equals the pointwise sum of the tables.
    """
    terms: dict[tuple[int, ...], int] = {}  # sorted variables -> coefficient
    for scope, values in tables:
        scope = tuple(scope)
        if len(scope) not in (1, 2):
            raise MalformedTableError(f"scope must have 1 or 2 variables, got {scope}")
        if len(scope) == 2 and scope[0] == scope[1]:
            raise MalformedTableError(
                f"binary table scope pairs variable {scope[0]} with itself")
        for v in scope:
            if not (0 <= v < num_vars):
                raise IndexOutOfRangeError(f"variable index {v} not in [0, {num_vars})")
        try:
            for sub in product((0, 1), repeat=len(scope)):
                coef = sum((-1) ** (sum(sub) - sum(low)) * values[low]
                           for low in product(*[range(s + 1) for s in sub]))
                key = tuple(sorted(compress(scope, sub)))
                terms[key] = terms.get(key, 0) + coef
        except KeyError as e:
            kind = "unary" if len(scope) == 1 else "binary"
            raise MalformedTableError(f"{kind} table on {scope} missing entry {e}") from None
    constant = terms.pop((), 0)
    kept = [(*key, w) for key, w in sorted(terms.items()) if w != 0]
    return Instance(num_vars, constant, [t for t in kept if len(t) == 2],
                    [t for t in kept if len(t) == 3], labels)


# ---------------------------------------------------------------------------
# Text format "vcsp-text v1": line oriented, '#' comments, whitespace tokens.
#
#   vcsp 1
#   n <num_vars>
#   label <index> <k> <i>     (optional, one per labeled variable)
#   c0 <weight>               (optional constant term)
#   u <index> <weight>
#   b <index> <index> <weight>
# ---------------------------------------------------------------------------

def to_text(inst: Instance) -> str:
    """The instance in vcsp-text v1.  TooLargeError if an integer in it has
    more digits than the interpreter converts to text, a limit read at each
    call (sys.get_int_max_str_digits)."""
    lines = ["vcsp 1", f"n {inst.num_vars}"]
    for idx in sorted(inst.labels):
        k, i = inst.labels[idx]
        lines.append(f"label {idx} {k} {i}")
    try:
        if inst.constant != 0:
            lines.append(f"c0 {inst.constant}")
        for i in sorted(inst.unaries):
            lines.append(f"u {i} {inst.unaries[i]}")
        for (i, j) in sorted(inst.binaries):
            lines.append(f"b {i} {j} {inst.binaries[(i, j)]}")
    except ValueError:  # only an int past the limit fails to format
        raise TooLargeError(
            f"a weight has more than {sys.get_int_max_str_digits()} digits, the limit "
            "for integer string conversion (sys.set_int_max_str_digits)") from None
    return "\n".join(lines) + "\n"


# directive -> (argument count, how a wrong-count message names the arguments)
_DIRECTIVES = {
    "n": (1, "one argument"),
    "label": (3, "index, k, i"),
    "c0": (1, "one argument"),
    "u": (2, "index and weight"),
    "b": (3, "two indices and a weight"),
}


def _lines(text: str) -> Iterator[tuple[int, str]]:
    """The lexer both text formats share: (line number, text) for each line
    that is not blank once its '#' comment is cut off, stripped of outer
    whitespace."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:  # most lines have no comment; the test is cheaper than a cut
            line = line.partition("#")[0]
        line = line.strip()
        if line:
            yield lineno, line


def _ints(tokens: list[str]) -> tuple[int, ...]:
    """The integers that tokens spell, each as [+-]?[0-9]+ in ASCII digits;
    ValueError on any other token.  int() alone also reads underscores
    ('1_0') and non-ASCII digits.  On tokens without those, which hold no
    whitespace once str.split() made them, it reads just that grammar."""
    joined = "".join(tokens)
    if not joined.isascii() or "_" in joined:
        raise ValueError("not an integer token")
    # (*...,) rather than a list or tuple(map(...)): keeping either until
    # Instance is built made `vcsp eval` collect garbage ~25% more
    return (*map(int, tokens),)


def from_text(text: str) -> Instance:
    lines = _lines(text)
    for lineno, line in lines:
        if line.split() != ["vcsp", "1"]:
            raise ParseError(f"line {lineno}: expected header 'vcsp 1', got {line!r}")
        break
    else:
        raise ParseError("empty input: missing 'vcsp 1' header")
    rows: dict[str, list[tuple[int, ...]]] = {kind: [] for kind in _DIRECTIVES}
    n_rows = rows["n"]
    for lineno, line in lines:
        tok = line.split()
        kind = tok[0]
        try:
            args = _ints(tok[1:])
        except ValueError:
            # Python 3.10 before 3.10.7 has no such limit
            limit = getattr(sys, "get_int_max_str_digits", int)()
            digits = [t[1:] if t[0] in "+-" else t for t in tok[1:]]
            if limit and any(d.isascii() and d.isdigit() and len(d) > limit for d in digits):
                raise ParseError(f"line {lineno}: an integer token has more than {limit} "
                                 "digits, the limit for integer string conversion") from None
            raise ParseError(f"line {lineno}: non-integer token in {line!r}") from None
        if kind == "n" and n_rows:
            msg = "duplicate 'n' line"
        elif not n_rows and kind != "n":
            msg = f"'{kind}' line before 'n' line"
        elif kind not in _DIRECTIVES:
            msg = f"unknown directive {kind!r}"
        elif len(args) != _DIRECTIVES[kind][0]:
            msg = f"'{kind}' takes {_DIRECTIVES[kind][1]}"
        elif kind == "c0" and rows["c0"]:
            msg = "duplicate 'c0' line"
        else:
            rows[kind].append(args)
            continue
        raise ParseError(f"line {lineno}: {msg}")
    if not n_rows:
        raise ParseError("missing 'n' line")
    [(num_vars,)] = n_rows
    [(constant,)] = rows["c0"] or [(0,)]
    try:
        return Instance(num_vars, constant, rows["u"], rows["b"], rows["label"] or None)
    except VcspError as e:
        raise type(e)(f"line {_rejected_line(text, rows)}: {e}") from None


def _rejected_line(text: str, rows: dict[str, list[tuple[int, ...]]]) -> int:
    """The number of the line whose row Instance rejected, in a text that
    from_text lexed into rows.

    Instance checks num_vars, then reads the 'u', 'b' and 'label' rows in
    that order and raises while it reads the row it rejects.  So it is built
    once more over iterators that note each row's line as they hand it over,
    and the last line noted is the rejected one.  Only the error path pays.
    """
    numbers: dict[str, list[int]] = {kind: [] for kind in _DIRECTIVES}
    for lineno, line in _lines(text):
        numbers.get(line.split()[0], []).append(lineno)
    noted = numbers["n"][:1]  # the 'n' line, until a row is handed over

    def noting(kind: str) -> Iterator[tuple[int, ...]]:
        for lineno, row in zip(numbers[kind], rows[kind]):
            noted[0] = lineno
            yield row

    try:
        Instance(rows["n"][0][0], 0, noting("u"), noting("b"), noting("label"))
    except VcspError:
        pass
    return noted[0]


def write_instance(inst: Instance, path) -> None:
    text = to_text(inst)  # before the file is opened, so a TooLargeError leaves none
    with open(path, "w") as fh:
        fh.write(text)


def read_instance(path) -> Instance:
    with open(path) as fh:
        return from_text(fh.read())
