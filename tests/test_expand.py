"""Source transformations: do-loops, structs, update_struct.

The loop tests drive each iteration specifier against a hand-written
recursive predicate (or a Python equivalent) over random inputs.
"""

import logging
import random

import pytest

from clpkernel import make_engine
from clpkernel.errors import ExpansionError
from clpkernel.terms import Atom, Struct, Var, deref, proper_list


def as_ints(t):
    items = proper_list(t)
    assert items is not None
    return [deref(x) for x in items]


def plist(xs):
    return "[%s]" % ", ".join(str(x) for x in xs)


# ----------------------------------------------------------------------
# loop-vs-recursion equivalence

SUM_SRC = """
sum_list([], 0).
sum_list([H|T], S) :- sum_list(T, S1), S is H + S1.

rev_app([], Acc, Acc).
rev_app([H|T], Acc, Out) :- rev_app(T, [H|Acc], Out).
"""


def test_foreach_fromto_sum_matches_recursion(engine):
    engine.load(SUM_SRC)
    rng = random.Random(1101)
    for _ in range(100):
        xs = [rng.randint(-9, 9) for _ in range(rng.randint(0, 8))]
        a = engine.once(
            "( foreach(X, %s), fromto(0, A, A1, S) do A1 is A + X )" % plist(xs))
        b = engine.once("sum_list(%s, S)" % plist(xs))
        assert a["S"] == b["S"] == sum(xs)


def test_fromto_reverse_matches_recursion(engine):
    engine.load(SUM_SRC)
    rng = random.Random(1102)
    for _ in range(100):
        xs = [rng.randint(0, 99) for _ in range(rng.randint(0, 8))]
        a = engine.once(
            "( foreach(X, %s), fromto([], A, [X|A], R) do true )" % plist(xs))
        b = engine.once("rev_app(%s, [], R)" % plist(xs))
        assert as_ints(a["R"]) == as_ints(b["R"]) == list(reversed(xs))


def test_for_loop_matches_range(engine):
    rng = random.Random(1103)
    for _ in range(100):
        lo = rng.randint(-5, 5)
        hi = rng.randint(-5, 8)
        got = engine.once("( for(I, %d, %d), foreach(I, Is) do true )" % (lo, hi))
        assert as_ints(got["Is"]) == list(range(lo, hi + 1))


def test_for_loop_with_step_matches_range(engine):
    rng = random.Random(1104)
    for _ in range(100):
        lo = rng.randint(-6, 6)
        step = rng.choice([-3, -2, -1, 1, 2, 3])
        span = rng.randint(0, 10)
        hi = lo + (span if step > 0 else -span)
        got = engine.once(
            "( for(I, %d, %d, %d), foreach(I, Is) do true )" % (lo, hi, step))
        stop = hi + (1 if step > 0 else -1)
        assert as_ints(got["Is"]) == list(range(lo, stop, step))
    # wrong-direction bounds give an empty iteration
    got = engine.once("( for(I, 0, 5, -1), foreach(I, Is) do true )")
    assert as_ints(got["Is"]) == []


def test_count_measures_another_iterator(engine):
    rng = random.Random(1105)
    for _ in range(100):
        xs = [0] * rng.randint(0, 12)
        got = engine.once(
            "( foreach(_, %s), count(_, 1, N) do true )" % plist(xs))
        assert got["N"] == len(xs)


def test_count_enumerates(engine):
    got = engine.once("( count(I, 1, 4), foreach(I, Is) do true )")
    assert as_ints(got["Is"]) == [1, 2, 3, 4]


def test_foreacharg_visits_args_in_order(engine):
    rng = random.Random(1106)
    for _ in range(100):
        vals = [rng.randint(0, 99) for _ in range(rng.randint(1, 6))]
        arr = "[](%s)" % ", ".join(str(v) for v in vals)
        got = engine.once("( foreacharg(X, %s), foreach(X, Xs) do true )" % arr)
        assert as_ints(got["Xs"]) == vals


def test_foreacharg_with_index(engine):
    got = engine.once(
        "( foreacharg(X, [](a, b, c), I), foreach(I - X, Ps) do true )")
    pairs = [(deref(p).args[0], deref(p).args[1].name)
             for p in (deref(q) for q in proper_list(got["Ps"]))]
    assert pairs == [(1, "a"), (2, "b"), (3, "c")]


def test_nested_loops(engine):
    rng = random.Random(1107)
    src = """
sum_rows(Rows, S) :-
    ( foreach(Row, Rows), fromto(0, A0, A1, S) do
        ( foreach(X, Row), fromto(A0, B0, B1, A1) do B1 is B0 + X ) ).
"""
    engine.load(src)
    for _ in range(40):
        rows = [[rng.randint(-9, 9) for _ in range(rng.randint(0, 4))]
                for _ in range(rng.randint(0, 4))]
        text = "[%s]" % ", ".join(plist(r) for r in rows)
        got = engine.once("sum_rows(%s, S)" % text)
        assert got["S"] == sum(sum(r) for r in rows)


def test_param_passes_outer_values(engine):
    got = engine.once(
        "K = 10, ( foreach(X, [1, 2, 3]), foreach(Y, Ys), param(K) do Y is X + K )")
    assert as_ints(got["Ys"]) == [11, 12, 13]


def test_loop_completion_is_deterministic(ask):
    assert len(ask("( foreach(X, [1, 2, 3]), foreach(X, Ys) do true )")) == 1


def test_nondeterministic_body_multiplies_solutions(ask):
    got = ask("( foreach(X, [1, 2]), foreach(Y, Ys) do member(Y, [X, X]) )")
    assert len(got) == 4


def test_unbound_driver_gives_the_degenerate_solution_first(first):
    got = first("( foreach(X, L) do X = a )")
    assert deref(got["L"]) is Atom("[]")


def test_loop_errors(engine):
    with pytest.raises(ExpansionError):
        engine.ask("( true do writeln(x) )")
    with pytest.raises(ExpansionError):
        engine.ask("( bogus(X) do writeln(X) )")
    # in source text param must name variables
    with pytest.raises(ExpansionError):
        engine.load("p :- ( foreach(X, [1]), param(3) do writeln(X) ).")


@pytest.mark.parametrize("head", ["q", "q(_)"])
def test_param_of_a_non_variable_is_refused_in_any_source_clause(engine,
                                                                 head):
    """Whether the clause has variables does not matter: a source clause
    is expanded strictly, a metacalled loop is not."""
    with pytest.raises(ExpansionError, match="param"):
        engine.load("%s :- ( fromto(a, b, b, b), param(a) do true )." % head)
    assert engine.ask("( fromto(b, b, b, b), param(a) do true )") != []


def test_body_variable_scope_warning(engine, caplog):
    with caplog.at_level(logging.WARNING, logger="clpkernel"):
        engine.load("bad(Y) :- ( foreach(X, [1, 2]) do p(X, Y) ).")
    assert any("do-loop body" in r.message for r in caplog.records)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="clpkernel"):
        engine.load("good(Y) :- ( foreach(X, [1, 2]), param(Y) do p(X, Y) ).")
    assert not any("do-loop body" in r.message for r in caplog.records)


# ----------------------------------------------------------------------
# structs

STRUCT_SRC = ":- local struct(emp(name, age)).\n"


def test_struct_sugar_expands_to_positional_term(engine):
    engine.load(STRUCT_SRC)
    got = engine.once("E = emp{age: 33}")
    e = got["E"]
    assert isinstance(e, Struct) and e.name == "emp" and e.arity == 2
    assert isinstance(deref(e.args[0]), Var)
    assert deref(e.args[1]) == 33


def test_field_position_via_of(engine):
    engine.load(STRUCT_SRC)
    assert engine.once("I is age of emp")["I"] == 2
    assert engine.once("I is name of emp")["I"] == 1


def test_field_read_through_subscript(engine):
    engine.load(STRUCT_SRC)
    got = engine.once("E = emp(bob, 33), X is E[age of emp]")
    assert got["X"] == 33


def test_update_struct(engine):
    engine.load(STRUCT_SRC)
    got = engine.once("E = emp(bob, 33), update_struct(emp, [age: 34], E, E2)")
    e2 = got["E2"]
    assert deref(e2.args[0]) is Atom("bob")
    assert deref(e2.args[1]) == 34


def test_update_struct_compiled_in_clause_body(engine):
    engine.load(STRUCT_SRC +
                "birthday(E, E2) :- update_struct(emp, [age: A2], E, E2), "
                "A2 is E[age of emp] + 1.\n")
    got = engine.once("birthday(emp(bob, 33), E2)")
    assert deref(got["E2"].args[1]) == 34


def test_unknown_field_is_rejected(engine):
    engine.load(STRUCT_SRC)
    with pytest.raises(ExpansionError):
        engine.ask("E = emp{salary: 1}")
    with pytest.raises(ExpansionError):
        engine.ask("I is boss of emp")


def test_field_access_is_arity_independent():
    src = "age_of(E, A) :- E = emp{age: A}.\n"
    for decl in ("emp(name, age)", "emp(id, name, age, dept, salary)"):
        eng = make_engine()
        eng.load(":- local struct(%s).\n%s" % (decl, src))
        got = eng.once("age_of(emp{age: 7}, A)")
        assert got["A"] == 7


def test_struct_declarations_are_module_scoped(engine):
    engine.load(":- module(m1).\n:- local struct(point(x, y)).\n")
    assert engine.modules["m1"].lookup_struct("point") is not None
    assert engine.main.lookup_struct("point") is None
