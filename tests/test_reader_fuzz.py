"""Seeded random inputs for the reader and the writer.

* A fuzz: random strings of lexemes, drawn from each lexeme class of the
  tokenizer, go through `parse_term` and `Engine.load`.  Each must give a
  term or raise an `EngineError`, never another exception.
* A round-trip property: a random term written quoted with the standard
  operators reads back as a variant of itself.
"""

import math
import random
from fractions import Fraction

import pytest

from clpkernel import make_engine
from clpkernel.errors import EngineError, ReaderError
from clpkernel.reader import _STANDARD, parse_term, standard_ops, tokenize
from clpkernel.terms import Atom, Breal, Struct, Var, is_variant, mk_list
from clpkernel.writer import write_term

# ----------------------------------------------------------------------
# fuzz

LEXEMES = {
    "layout": [" ", "\n", "\t", "% comment\n", "/* block */", "/* never"],
    "name": ["a", "foo", "x1_Y", "is", "mod", "do", "of"],
    "var": ["X", "Y", "_", "_G1"],
    "number": ["0", "42", "3.25", "1e3", "2.5e-3", "1_3", "1_0",
               "0.99__1.01", "1.01__0.99", "1__-2"],
    "quoted": ["'q a'", "'don''t'", "'\\n'", "'\\x41\\'", "'\\q'", "'",
               "','", "'|'", "'[]'"],
    "string": ['"text"', '"a\\"b"', '"\\z"', '"'],
    "symbol": ["-", "+", "*", "^", "=", "\\+", "->", ";", ":", "..", "::",
               "#=", "=..", ".", "@", "`"],
    "punct": ["(", ")", "[", "]", "{", "}", ",", "|", "!"],
    "end": [". ", ".\n", "."],
    "glued": ["f(", "a{", "X[", "-1", "- 1", "[]", "{}", "[](", "a.b"],
}
CLASSES = sorted(LEXEMES)


def random_text(rng):
    parts = []
    for _ in range(rng.randint(1, 16)):
        parts.append(rng.choice(LEXEMES[rng.choice(CLASSES)]))
        if rng.random() < 0.4:
            parts.append(" ")
    return "".join(parts)


def runs_a_directive(text):
    """True when a clause of text starts with ':-': loading it would run
    a goal, which may be a clause the text itself defines to loop."""
    try:
        tokens = tokenize(text)
    except EngineError:
        return False
    previous = None
    for tok in tokens:
        if tok.val in (":-", "?-") and (previous is None
                                        or previous.kind == "end"):
            return True
        previous = tok
    return False


def deep_text(rng, depth):
    """Nesting `depth` deep, closed right, wrong or not at all."""
    opener, closer = rng.choice([("f(", ")"), ("[", "]"), ("{", "}"),
                                 ("(", ")"), ("- ", ""), ("a^", ""),
                                 ("(a, ", ")"), ("g(b, ", ")")])
    end = rng.choice([closer * depth, closer * (depth - 1),
                      closer * (depth + 1), ")" * depth, "|" + closer * depth,
                      ""])
    return opener * depth + rng.choice(["a", "X", ". ", "|", ""]) + end


def _check(text, engine):
    for parse in (parse_term, engine.load):
        try:
            parse(text)
        except EngineError:
            pass


def test_random_lexeme_strings_give_a_term_or_an_engine_error():
    rng = random.Random(2025)
    engine = make_engine()
    for _ in range(2500):
        text = random_text(rng)
        if not runs_a_directive(text):
            _check(text, engine)
    for depth in (10, 100, 1000, 100000):
        _check(deep_text(rng, depth), make_engine())


# ----------------------------------------------------------------------
# round trip

INFIX = sorted({name for _, typ, name in _STANDARD if len(typ) == 3})
PREFIX = sorted({name for _, typ, name in _STANDARD if len(typ) == 2})
ATOMS = ["a", "foo", "hello world", "don't", "[]", "{}", "A", "_x",
         "back\\slash", "new\nline", "1x", "!", ";", ",", "|", "f"]
STRINGS = ["", "text", 'say "hi"', "back\\slash", "two\nlines"]


def random_leaf(rng, variables):
    kind = rng.randrange(9)
    if kind == 0:
        return rng.randint(-1000, 1000)
    if kind == 1:
        return rng.choice([-1.0, 1.0]) * rng.choice([0.5, 3.25, 1e-05,
                                                     123456.789, 2.5e20])
    if kind == 2:
        return Fraction(rng.randint(-50, 50), rng.randint(2, 9))
    if kind == 3:
        lo = rng.uniform(-10, 10)
        return Breal(lo, lo + rng.choice([0.0, 0.125, 3.5]))
    if kind == 4:
        return Atom(rng.choice(ATOMS))
    if kind == 5:
        return rng.choice(STRINGS)
    if kind == 6:
        # an infinite float, alone or as an end of a bounded real
        x = rng.uniform(-10, 10)
        return rng.choice([math.inf, -math.inf, Breal(-math.inf, x),
                           Breal(x, math.inf), Breal(-math.inf, math.inf)])
    return rng.choice(variables)


def random_term(rng, depth, variables):
    if depth == 0 or rng.random() < 0.25:
        return random_leaf(rng, variables)
    sub = [random_term(rng, depth - 1, variables) for _ in range(3)]
    kind = rng.randrange(6)
    if kind == 0:
        return Struct(rng.choice(INFIX), sub[:2])
    if kind == 1:
        return Struct(rng.choice(PREFIX), sub[:1])
    if kind == 2:
        return Struct(rng.choice(ATOMS), sub[:rng.randint(1, 3)])
    if kind == 3:
        return mk_list(sub[:rng.randint(0, 3)])
    if kind == 4:
        return mk_list(sub[:rng.randint(1, 3)], rng.choice(variables))
    return Struct("{}", sub[:1])


def test_random_terms_read_back_as_written():
    rng = random.Random(77)
    ops = standard_ops()
    for _ in range(3000):
        variables = [Var(), Var(), Var()]
        t = random_term(rng, rng.randint(0, 5), variables)
        text = write_term(t, quoted=True, ops=ops)
        back, _ = parse_term(text, ops=ops)
        assert is_variant(back, t), text


def test_the_round_trip_keeps_float_and_breal_values():
    for x in (-0.5, 1e-05, 2.5e20, -123456.789, math.pi, math.inf,
              -math.inf):
        assert parse_term(write_term(x, quoted=True))[0] == x
    for lo, hi in ((-1.5, -0.25), (-math.inf, 2.0), (-math.inf, math.inf)):
        b = parse_term(write_term(Breal(lo, hi), quoted=True))[0]
        assert (b.lo, b.hi) == (lo, hi)


def test_infinite_floats_read_as_eclipse_writes_them():
    assert write_term(-math.inf) == "-1.0Inf"
    assert parse_term("-1.0Inf")[0] == -math.inf
    assert parse_term("1.0Inf")[0] == math.inf
    # one lexeme: no variable Inf follows the float
    assert parse_term("f(1.0Inf)")[1] == {}
    with pytest.raises(ReaderError):
        parse_term("2.0Inf")
