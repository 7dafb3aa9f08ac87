"""Tokenizer and parser: literals, operators, and the syntax extensions."""

from fractions import Fraction

import pytest

from clpkernel.errors import ReaderError
from clpkernel.reader import (Ops, Parser, parse_term, read_terms, standard_ops,
                              tokenize)
from clpkernel.terms import (Atom, Breal, Struct, Var, deref, is_variant,
                             terms_equal)
from clpkernel.writer import write_term


def pt(text):
    term, _vars = parse_term(text)
    return term


def kinds(text):
    return [(t.kind, t.val) for t in tokenize(text) if t.kind != "eof"]


# ----------------------------------------------------------------------
# tokens

def test_numeric_literals():
    assert kinds("42") == [("int", 42)]
    assert kinds("3.25") == [("float", 3.25)]
    assert kinds("1e3") == [("float", 1000.0)]
    assert kinds("3_4") == [("rat", Fraction(3, 4))]
    assert kinds("0.99__1.01") == [("breal", (0.99, 1.01))]


def test_zero_denominator_rational_is_rejected():
    with pytest.raises(ReaderError):
        tokenize("1_0")


def test_comments_are_skipped():
    assert kinds("a % rest of line\nb") == [("atom", "a"), ("atom", "b")]
    assert kinds("a /* b */ c") == [("atom", "a"), ("atom", "c")]
    with pytest.raises(ReaderError):
        tokenize("/* never closed")


def test_quoted_atoms_and_strings():
    assert pt("'hello world'") is Atom("hello world")
    assert pt("'don''t'") is Atom("don't")
    assert pt("'a\\nb'") is Atom("a\nb")
    assert pt("'\\x41\\'") is Atom("A")
    assert pt('"some text"') == "some text"
    with pytest.raises(ReaderError):
        tokenize("'bad \\q escape'")


def test_end_token_needs_layout_after_dot():
    toks = tokenize("a.b")
    assert [t.kind for t in toks] == ["atom", "atom", "atom", "eof"]
    toks = tokenize("a. b")
    assert [t.kind for t in toks] == ["atom", "end", "atom", "eof"]


def test_error_position_is_reported():
    with pytest.raises(ReaderError) as e:
        tokenize("a.\n  `oops")
    assert e.value.line == 2
    assert e.value.column == 3
    assert "<input>:2:3" in str(e.value)


# ----------------------------------------------------------------------
# operators

def test_priorities_and_associativity():
    t = pt("1 + 2 * 3")
    assert terms_equal(t, Struct("+", [1, Struct("*", [2, 3])]))
    t = pt("2 - 3 - 4")
    assert terms_equal(t, Struct("-", [Struct("-", [2, 3]), 4]))
    t = pt("a :- b, c")
    assert terms_equal(t, Struct(":-", [Atom("a"),
                                        Struct(",", [Atom("b"), Atom("c")])]))


def test_xfx_does_not_chain():
    with pytest.raises(ReaderError):
        pt("a = b = c")


def test_parenthesised_subterm():
    t = pt("(1 + 2) * 3")
    assert terms_equal(t, Struct("*", [Struct("+", [1, 2]), 3]))


def test_bar_is_disjunction_between_goals():
    t = pt("a | b")
    assert terms_equal(t, Struct(";", [Atom("a"), Atom("b")]))


def test_negative_literal_folding():
    assert pt("-3") == -3
    assert pt("-1_2") == Fraction(-1, 2)
    assert pt("-2.5") == -2.5
    t = pt("- 3")  # with layout it is the prefix operator
    assert terms_equal(t, Struct("-", [3]))
    t = pt("3 - -4")
    assert terms_equal(t, Struct("-", [3, -4]))


def test_breal_sign_applies_to_first_endpoint():
    b = pt("-1.5__-0.5")
    assert (b.lo, b.hi) == (-1.5, -0.5)
    b = pt("-0.5__1.5")
    assert (b.lo, b.hi) == (-0.5, 1.5)
    with pytest.raises(ReaderError):
        pt("2.0__1.0")  # bounds out of order


def test_operator_atom_as_plain_argument():
    t = pt("f(-, +)")
    assert terms_equal(t, Struct("f", [Atom("-"), Atom("+")]))
    t = pt("X = (-)")
    assert deref(t.args[1]) is Atom("-")


def test_custom_operator_declaration():
    ops = standard_ops()
    ops.declare(700, "xfx", "~>")
    t, _ = parse_term("a ~> b", ops=ops)
    assert terms_equal(t, Struct("~>", [Atom("a"), Atom("b")]))
    ops.declare(0, "xfx", "~>")  # priority 0 removes the operator
    with pytest.raises(ReaderError):
        parse_term("a ~> b", ops=ops)


def test_ops_parent_chain_sees_exported_only():
    parent = Ops()
    parent.declare(700, "xfx", "pub", exported=True)
    parent.declare(700, "xfx", "priv", exported=False)
    child = Ops(parents=[parent])
    assert child.infix_op("pub") == (700, "xfx")
    assert child.infix_op("priv") is None


# ----------------------------------------------------------------------
# extensions

def test_subscript_needs_adjacency():
    t = pt("M[3, 4]")
    assert t.name == "subscript"
    assert deref(t.args[0]).name == "M"
    with pytest.raises(ReaderError):
        pt("M [3, 4]")


def test_chained_subscripts():
    t = pt("M[1][2]")
    assert t.name == "subscript"
    inner = deref(t.args[0])
    assert inner.name == "subscript"


def test_struct_sugar():
    t = pt("emp{age: 33, name: N}")
    assert t.name == "with" and t.arity == 2
    assert deref(t.args[0]) is Atom("emp")
    t = pt("emp{}")
    assert terms_equal(t, Struct("with", [Atom("emp"), Atom("[]")]))
    with pytest.raises(ReaderError):
        pt("emp {age: 33}")  # layout breaks the sugar


def test_array_literal_is_a_functor_application():
    t = pt("[](a, b, c)")
    assert t.name == "[]" and t.arity == 3
    assert pt("[]") is Atom("[]")


def test_curly_terms():
    t = pt("{a, b}")
    assert t.name == "{}" and t.arity == 1
    assert pt("{}") is Atom("{}")


def test_arguments_parse_at_full_priority():
    t = pt("f(a :- b, X -> y)")
    assert t.arity == 2
    assert deref(t.args[0]).name == ":-"
    assert deref(t.args[1]).name == "->"
    t = pt("[a -> b, c]")
    first = deref(t.args[0])
    assert first.name == "->"
    t = pt("f((a, b), c)")
    assert t.arity == 2
    assert deref(t.args[0]).name == ","


def test_list_tail_and_elements():
    t = pt("[1, 2 | T]")
    assert deref(t.args[0]) == 1
    rest = deref(t.args[1])
    assert deref(rest.args[0]) == 2
    assert isinstance(deref(rest.args[1]), Var)


def test_variable_scoping_per_clause():
    t = pt("p(X, X, _, _)")
    a, b, c, d = [deref(x) for x in t.args]
    assert a is b
    assert c is not d
    clauses = list(read_terms("p(X).\nq(X)."))
    assert len(clauses) == 2
    (t1, vm1, pos1), (t2, vm2, pos2) = clauses
    assert vm1["X"] is not vm2["X"]
    assert pos1 == (1, 1) and pos2 == (2, 1)


def test_space_before_parens_is_not_a_call(first):
    with pytest.raises(ReaderError):
        pt("a (b)")


# ----------------------------------------------------------------------
# round trips through the writer

ROUND_TRIPS = [
    "f(X, g(X))",
    "1 + 2 * 3",
    "(1 + 2) * 3",
    "a :- b, c",
    "a ; b -> c",
    "[1, 2|T]",
    "[H|T]",
    "- 3",
    "-3",
    "X[1, 2]",
    "1_2 + 0.5",
    "0.99__1.01",
    "f(a, -)",
    "{a, b}",
    "[](1, 2, 3)",
    "\\+ a",
    "X is Y mod 3",
    "f(a :- b)",
    "f((a, b), c)",
    "[a|(b, c)]",
]


def test_round_trips():
    ops = standard_ops()
    for text in ROUND_TRIPS:
        term, varmap = parse_term(text, ops=ops)
        names = {id(v): n for n, v in varmap.items()}
        assert write_term(term, ops=ops, names=names) == text, text


def test_canonical_output_reparses_equal():
    ops = standard_ops()
    for text in ROUND_TRIPS:
        term, varmap = parse_term(text, ops=ops)
        canon = write_term(term, canonical=True)
        back, _ = parse_term(canon, ops=ops)
        assert is_variant(term, back), (text, canon)


def test_quoted_atoms_round_trip():
    t = pt("'hello world'")
    assert write_term(t, quoted=True) == "'hello world'"
    assert write_term(Atom("it's"), quoted=True) == "'it\\'s'"
    assert write_term(Atom("abc"), quoted=True) == "abc"
    assert write_term("a \"b\"", quoted=True) == '"a \\"b\\""'


@pytest.mark.parametrize("shape", ["compound", "conjunction", "prefix"])
def test_right_nested_terms_print_at_any_depth(shape):
    """A compound term's last argument, an infix operator's right operand
    and a prefix operator's operand are written in a loop, so nesting in
    those positions does not recurse."""
    depth = 100000
    t = Atom("z")
    if shape == "compound":
        for _ in range(depth):
            t = Struct("f", [t])
        text = "f(" * depth + "z" + ")" * depth
        canon = text
    elif shape == "conjunction":
        for _ in range(depth):
            t = Struct(",", [Atom("a"), t])
        text = "a, " * depth + "z"
        canon = "','(a, " * depth + "z" + ")" * depth
    else:
        for _ in range(depth):
            t = Struct("-", [t])
        text = "- " * depth + "z"
        canon = "-(" * depth + "z" + ")" * depth
    assert write_term(t, ops=standard_ops()) == text
    assert write_term(t, canonical=True) == canon


# ----------------------------------------------------------------------
# depth: the reader and the writer walk explicit stacks

DEPTH = 100000

DEEP_SHAPES = {
    "compound": "f(" * DEPTH + "a" + ")" * DEPTH,
    "list": "[" * DEPTH + "a" + "]" * DEPTH,
    "prefix": "- " * DEPTH + "a",
    "conjunction": "(a, " * DEPTH + "a" + ")" * DEPTH,
    "xfy": "a^" * DEPTH + "a",
}


@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_deep_terms_read_through_every_entry_point(shape, engine, capsys):
    """Nesting depth is bounded by memory: each shape reads through
    `parse_term`, `Engine.once` and `clpk`, and its copy compares equal."""
    from clpkernel.cli import main
    from clpkernel.terms import compare_terms, copy_term
    text = DEEP_SHAPES[shape]
    t, _ = parse_term(text)
    assert compare_terms(t, copy_term(t)) == 0
    answer = engine.once("X = " + text)
    assert is_variant(answer["X"], t)
    assert main(["-g", "X = " + text]) == 0
    out = capsys.readouterr().out
    assert out.startswith("X = ") and out.endswith("\nyes\n")
    back, _ = parse_term(out[len("X = "):-len("\nyes\n")])
    assert is_variant(back, t)


@pytest.mark.parametrize("shape", ["left-nested", "list"])
def test_left_positions_print_and_read_back_at_any_depth(shape):
    """A left operand and a list element are written from the writer's
    work stack as well, so a left-nested chain and a list nested in
    element position print at any depth and read back."""
    t = Atom("a")
    for _ in range(DEPTH):
        t = Struct("+", [t, Atom("a")]) if shape == "left-nested" \
            else Struct(".", [t, Atom("[]")])
    text = write_term(t, ops=standard_ops(), quoted=True)
    if shape == "left-nested":
        assert text == "a" + " + a" * DEPTH
    else:
        assert text == "[" * DEPTH + "a" + "]" * DEPTH
    back, _ = parse_term(text)
    assert is_variant(back, t)


def test_a_delayed_constraint_over_a_long_sum_prints(engine):
    """`ask` prints the delayed goal, a left-nested sum of 400 terms."""
    engine.load("""
        mk(0, 0, []) :- !.
        mk(N, E+X, [X|Xs]) :- N1 is N-1, mk(N1, E, Xs).
    """)
    a = engine.once("mk(400, E, Xs), Xs :: 0..1, E #>= 1")
    [goal] = a.delayed
    assert goal.count("-1 * _{0..1}") == 400 and goal.endswith("#=< 0")


# ----------------------------------------------------------------------
# operator tables and term macros

def test_operator_views_follow_later_declarations_and_imports():
    parent = Ops()
    child = Ops(parents=[parent])
    assert child.infix_op("~>") is None
    parent.declare(700, "xfx", "~>", exported=True)
    assert child.infix_op("~>") == (700, "xfx")
    child.declare(200, "xfx", "~>")
    assert child.infix_op("~>") == (200, "xfx")
    child.declare(0, "xfx", "~>")  # removing its own shows the parent's again
    assert child.infix_op("~>") == (700, "xfx")
    other = Ops()
    other.declare(900, "fy", "~>", exported=True)
    assert child.prefix_op("~>") is None
    child.add_parent(other)
    assert child.prefix_op("~>") == (900, "fy")
    assert parse_term("~> a ~> b", ops=child)[0].name == "~>"


def test_the_first_parent_that_exports_an_operator_wins():
    first, second = Ops(), Ops()
    first.declare(300, "yfx", "@@", exported=True)
    second.declare(400, "yfx", "@@", exported=True)
    assert Ops(parents=[first, second]).infix_op("@@") == (300, "yfx")
    assert Ops(parents=[second, first]).infix_op("@@") == (400, "yfx")


def test_only_compounds_with_a_term_macro_reach_the_hook(engine):
    seen = []

    def hook(t):
        seen.append((t.name, t.arity))
        return t
    engine.load(":- local struct(pt(x, y)).")
    engine._load_module = engine.main
    p = Parser(tokenize("f(g(a), [b], pt{x: 1}, P of pt) :- h(P)."),
               engine.main.ops, macro_hook=hook,
               macro_keys=engine.term_macro_keys)
    p.read_clause()
    assert seen == [("with", 2), ("of", 2)]
