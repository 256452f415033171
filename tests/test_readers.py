"""The three readers of user input, pinned on a seeded corpus.

`from_text`, `decomposition_from_text` and `from_constraint_tables` are the
only ways a user's instance enters the library.  This test feeds each a seeded
corpus of well-formed and malformed inputs and hashes every outcome: the
instance (or bags) built, or the exception type and message.  A rewrite of a
reader that accepts, builds or rejects anything differently changes the hash.
"""
import hashlib
import random

from vcsp_landscape import build_chain, from_constraint_tables, from_text, to_text
from vcsp_landscape.generator import canonical_decomposition
from vcsp_landscape.structure import decomposition_from_text, decomposition_to_text

from conftest import random_instance

# lines spliced into otherwise valid texts: every directive with too few and
# too many arguments, non-integers, out-of-range values and a second header
INSERTS = [
    "vcsp 1", "vcsp 2", "vcsp", "n 3", "n", "n 1 2", "n -1", "n x", "c0 5", "c0", "c0 1 2",
    "label 0 1 1", "label 0 1", "label 0 1 1 1", "label 0 0 1", "label 0 1 7", "label 9 1 1",
    "u 0 1", "u 0", "u 0 1 2", "u 0 0", "u 99 1", "u -1 4", "u 1.5 2", "u x 1", "u +3 1_0",
    "b 0 1 2", "b 0 1", "b 0 1 2 3", "b 0 0 3", "b 1 0 7", "b 0 99 1", "q 1", "q", "q x",
    "#", "   ", "\t", "u\t0\t3", "  b  0   2  -4  ", "n 2 # c", "u 1 2#c", "#u 0 1",
]
# characters that str.splitlines or str.split treat specially
SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", " ", "\x85"]


def mutate(rng: random.Random, lines: list[str]) -> list[str]:
    lines = list(lines)
    for _ in range(rng.randint(0, 3)):
        op = rng.randrange(8)
        at = rng.randrange(len(lines) + 1)
        if op == 0 and lines:
            del lines[min(at, len(lines) - 1)]
        elif op == 1 and lines:
            lines.insert(at, rng.choice(lines))
        elif op == 2 and len(lines) > 1:
            a, b = rng.sample(range(len(lines)), 2)
            lines[a], lines[b] = lines[b], lines[a]
        elif op == 3:
            lines.insert(at, rng.choice(INSERTS))
        elif op == 4 and lines:
            k = min(at, len(lines) - 1)
            lines[k] += rng.choice([" # note", "#", "\t", "  ", " 1", " x"])
        elif op == 5 and lines:
            k = min(at, len(lines) - 1)
            tok = lines[k].split()
            if tok:
                tok[rng.randrange(len(tok))] = rng.choice(["x", "1.5", "-0", "07", "", "٣"])
            lines[k] = rng.choice([" ", "\t", "  "]).join(tok)
        elif op == 6:
            lines.insert(at, rng.choice(["", "  ", "# comment", "\t# tabbed"]))
        elif op == 7 and lines:
            k = min(at, len(lines) - 1)
            lines[k] = rng.choice([" ", "\t", ""]) + lines[k] + rng.choice([" ", "\t", ""])
    return lines


def outcome(read, arg) -> str:
    try:
        return "ok " + repr(read(arg))
    except Exception as e:  # every exception's type and message is pinned
        return f"{type(e).__name__}: {e}"


def instance_texts(rng: random.Random) -> list[str]:
    bases = [to_text(build_chain(2, 2, "+")), to_text(build_chain(1, 1, "-"))]
    bases += [to_text(random_instance(rng, max_vars=6)) for _ in range(30)]
    texts = []
    for _ in range(1500):
        lines = mutate(rng, rng.choice(bases).splitlines())
        texts.append(rng.choice(SEPARATORS).join(lines) + rng.choice(["", "\n"]))
    return texts + ["", "\n\n", "# only a comment\n", "vcsp 1\n", "vcsp 1\nn 0\n"]


def bag_texts(rng: random.Random) -> list[str]:
    bases = [decomposition_to_text(canonical_decomposition(m)) for m in (1, 2, 3)]
    bases.append("0 1 2\n2 3\n3\n")
    texts = []
    for _ in range(500):
        lines = mutate(rng, rng.choice(bases).splitlines())
        texts.append(rng.choice(SEPARATORS).join(lines))
    return texts + ["", "#\n", "0\n", "-1 -1\n"]


def table_lists(rng: random.Random) -> list[tuple[int, list]]:
    out = []
    for _ in range(1500):
        d = rng.randint(0, 4)
        tables = []
        for _ in range(rng.randint(0, 4)):
            k = rng.choice([1, 2]) if rng.random() < 0.95 else rng.choice([0, 3])
            if d >= k and rng.random() < 0.85:
                scope = tuple(rng.sample(range(d), k))
            else:  # repeated or out-of-range variables
                scope = tuple(rng.randint(-1, d) for _ in range(k))
            cells = [(0,), (1,)] if k == 1 else [(a, b) for a in (0, 1) for b in (0, 1)]
            flat = rng.random() < 0.3  # every entry equal: the coefficients cancel
            c = rng.randint(-3, 3)
            values = {bits: c if flat else rng.randint(-3, 3) for bits in cells}
            if values and rng.random() < 0.1:
                del values[rng.choice(cells)]
            if rng.random() < 0.1:
                values[(1, 1, 1)] = 9  # an entry outside the scope's cells is ignored
            tables.append((scope, values))
        out.append((d, tables))
    return out


def bags(text: str) -> list[list[int]]:
    return [sorted(b) for b in decomposition_from_text(text).bags]


def corpus_digest() -> str:
    rng = random.Random(20260418)
    rows = []
    for text in instance_texts(rng):
        rows.append(outcome(lambda t: to_text(from_text(t)), text))
        rows.append(outcome(bags, text))
    for text in bag_texts(rng):
        rows.append(outcome(bags, text))
    for d, tables in table_lists(rng):
        rows.append(outcome(lambda t: to_text(from_constraint_tables(d, t)), tables))
    assert sum(r.startswith("ok ") for r in rows) > 1000  # the corpus is not all errors
    assert sum(r.startswith("ParseError: line") for r in rows) > 1000
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def test_reader_outcomes_on_a_seeded_corpus_are_pinned():
    # re-pinned when from_text began to prefix the errors Instance raises
    # with the line: 116 outcomes gained "line N: " and nothing else changed
    assert corpus_digest() == "6037a0c68044b0a3f3adfa771bd69b84f1d45605fe1aa3a8df05c019b1016f65"


def test_readers_take_only_ascii_integer_tokens():
    # [+-]?[0-9]+ and nothing else that int() would read: underscores,
    # non-ASCII digits, and a sign without digits are a ParseError with the line
    good = from_text("vcsp 1\nn 4\nu +3 -07\nb 0 +1 -0010\n")
    assert (good.unaries, good.binaries) == ({3: -7}, {(0, 1): -10})
    assert bags("+0 1\n-0 2\n") == [[0, 1], [0, 2]]
    for token in ("1_0", "\u0663", "\uff11", "+", "-", "+-1", "0x1", "1e3", "\u00b2"):
        assert outcome(from_text, f"vcsp 1\nn 5\n\nu 1 {token}\n") == \
            f"ParseError: line 4: non-integer token in 'u 1 {token}'"
        assert outcome(bags, f"0 1\n1 {token}\n") == \
            f"ParseError: line 2: non-integer vertex in '1 {token}'"
