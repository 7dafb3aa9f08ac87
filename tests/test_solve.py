"""The resolution engine: control constructs, bindings, modules."""

import gc
import io
import logging
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest

from clpkernel import clauses, ic, make_engine, search, solve
from clpkernel.clauses import Clause
from clpkernel.errors import (ExistenceError, FlounderingError, Halt,
                              InstantiationError, InternalError, RangeError,
                              ReaderError, TypeError_)
from clpkernel.expand import mk_conj
from clpkernel.solve import Engine
from clpkernel.store import Store
from clpkernel.susp import Scheduler
from clpkernel.terms import (Atom, Struct, Var, copy_term, deref, is_variant,
                             mk_list, proper_list)

ROOT = Path(__file__).resolve().parent.parent

PQ = "p(1).\np(2).\np(3).\n"


def sols(engine, text, name="X"):
    return [a[name] for a in engine.ask(text)]


# ----------------------------------------------------------------------
# basic resolution and backtracking

def test_facts_enumerate_in_order(engine):
    engine.load(PQ)
    assert sols(engine, "p(X)") == [1, 2, 3]


def test_conjunction_backtracks_left_to_right(engine):
    engine.load(PQ)
    got = engine.ask("p(X), p(Y)")
    assert [(a["X"], a["Y"]) for a in got[:4]] == [(1, 1), (1, 2), (1, 3), (2, 1)]
    assert len(got) == 9


def test_disjunction(engine):
    assert sols(engine, "( X = a ; X = b )") == [Atom("a"), Atom("b")]


def test_undefined_predicate_raises(engine):
    with pytest.raises(ExistenceError):
        engine.ask("no_such_thing(1)")


def test_unbound_and_non_callable_goals(engine):
    with pytest.raises(InstantiationError):
        engine.ask("call(X)")
    with pytest.raises(TypeError_):
        engine.ask("X = 3, call(X)")


# ----------------------------------------------------------------------
# cut

def test_cut_prunes_alternatives(engine):
    engine.load(PQ)
    assert sols(engine, "p(X), !") == [1]
    assert sols(engine, "( X = 1 ; X = 2 ), !") == [1]
    assert sols(engine, "X :: 1..3, indomain(X), !") == [1]


def test_cut_is_clause_local(engine):
    engine.load(PQ + "q(X) :- p(X), !.\nq(9).\n")
    assert sols(engine, "q(X)") == [1]
    engine.load("r(X) :- p(X).\nr(9).\n")
    # the cut inside q did not affect r's clause selection
    assert sols(engine, "r(X)") == [1, 2, 3, 9]


def test_cut_transparent_through_disjunction(engine):
    engine.load(PQ + "s(X) :- ( p(X), ! ; X = 9 ).\n"
                "t(X) :- ( true -> p(X), ! ; X = 0 ).\nt(9).\n")
    assert sols(engine, "s(X)") == [1]
    assert sols(engine, "t(X)") == [1]  # a cut in a then-branch, too


def test_call_makes_cut_local(engine):
    engine.load(PQ)
    assert sols(engine, "p(X), call(!)") == [1, 2, 3]
    assert sols(engine, "p(X), once(true)") == [1, 2, 3]
    assert sols(engine, "p(X), \\+ \\+ !") == [1, 2, 3]
    assert sols(engine, "p(X), main:!") == [1, 2, 3]


def test_once_and_negation_leave_the_choicepoint_stack_as_found(engine):
    engine.load(PQ)
    engine.add_builtin(engine.main, "height", 1, lambda eng, args, module:
                       eng.store.unify(args[0], len(eng.store.choicepoints)))
    for goal in ("once(p(X))", "\\+ p(4)", "\\+ \\+ p(X)", "not(p(4))"):
        got = engine.once("height(A), %s, height(B)" % goal)
        assert got is not None and got["A"] == got["B"], goal
    assert engine.ask("height(A), \\+ p(X), height(B)") == []
    assert engine.store.choicepoints == []


def test_cut_in_condition_is_local_to_the_condition(engine):
    engine.load(PQ + "t(X) :- ( p(X), ! -> true ; fail ).\nt(9).\n")
    assert sols(engine, "t(X)") == [1, 9]


# ----------------------------------------------------------------------
# if-then-else and negation

def test_ite_commits_to_first_condition_solution(engine):
    engine.load(PQ)
    assert sols(engine, "( p(X) -> R = X ; R = none )", "R") == [1]


def test_ite_else_branch(engine):
    engine.load(PQ + "u(1) :- ( fail -> true ).\nu(2).\n")
    assert sols(engine, "( fail -> R = 1 ; R = 2 )", "R") == [2]
    assert engine.ask("( fail -> R = 1 )") == []
    assert sols(engine, "u(X)") == [2]
    assert sols(engine, "( fail -> R = 1 ; ( fail -> R = 2 ; R = 3 ) )",
                "R") == [3]
    assert sols(engine, "( p(X), X > 5 -> R = X"
                        " ; ( p(Y), Y > 1 -> R = Y ; R = 0 ) )", "R") == [2]


def test_ite_then_branch_backtracks(engine):
    engine.load(PQ)
    assert sols(engine, "( true -> p(X) ; fail )") == [1, 2, 3]
    got = engine.ask("( p(C) -> member(X, [a, b, c]) ; X = none )")
    assert [(a["C"], a["X"].name) for a in got] == [(1, "a"), (1, "b"),
                                                    (1, "c")]


def test_ite_condition_bindings_visible_in_then(engine):
    got = engine.ask("( member(X, [7, 8]) -> Y = X ; Y = 0 )")
    assert [(a["X"], a["Y"]) for a in got] == [(7, 7)]


def test_negation_as_failure(engine):
    engine.load(PQ)
    assert engine.ask("\\+ fail") != []
    assert engine.ask("\\+ true") == []
    assert engine.ask("\\+ p(7)") != []
    assert engine.ask("\\+ p(2)") == []


def test_negation_leaves_no_bindings(engine):
    assert engine.ask("\\+ X = 1") == []  # the inner goal succeeds
    got = engine.once("X = 2, \\+ X = 1")
    assert got["X"] == 2


# ----------------------------------------------------------------------
# findall

def test_findall_collects_and_restores(engine):
    engine.load(PQ)
    got = engine.once("findall(X, p(X), L), X = after")
    assert [deref(x) for x in proper_list(got["L"])] == [1, 2, 3]
    assert got["X"] is Atom("after")


def test_findall_copies_the_template(engine):
    got = engine.once("findall(X - Y, member(X, [1, 2]), L)")
    items = [deref(x) for x in proper_list(got["L"])]
    assert [deref(i.args[0]) for i in items] == [1, 2]
    y1, y2 = (deref(i.args[1]) for i in items)
    assert isinstance(y1, Var) and isinstance(y2, Var) and y1 is not y2


def test_findall_empty(engine):
    got = engine.once("findall(X, fail, L)")
    assert deref(got["L"]) is Atom("[]")


def test_findall_flounders_on_delayed_goals(engine):
    with pytest.raises(FlounderingError) as e:
        engine.ask("findall(X, dif(X, a), L)")
    assert any("dif" in g for g in e.value.goals)


def test_findall_accepts_solutions_whose_suspensions_resolved(engine):
    got = engine.once("findall(X, (member(X, [a, b]), dif(X, a)), L)")
    assert [deref(x) for x in proper_list(got["L"])] == [Atom("b")]


def test_findall_cut_in_the_goal_is_local(engine):
    engine.load(PQ)
    got = engine.ask("member(Y, [a, b]), findall(X, (p(X), !), L)")
    assert [(a["Y"].name, engine.format_term(a["L"])) for a in got] == [
        ("a", "[1]"), ("b", "[1]")]


def test_nested_findall(engine):
    engine.load(PQ)
    got = engine.once("findall(Y-L, (member(Y, [a, b]),"
                      " findall(X, (p(X), X > 1), L)), R)")
    assert engine.format_term(got["R"]) == "[a - [2, 3], b - [2, 3]]"


def test_all_solutions_fail_when_the_output_does_not_unify(engine):
    engine.load(PQ)
    assert engine.ask("findall(X, p(X), [1, 2])") == []
    assert engine.ask("count_solutions(p(_), 2)") == []
    assert len(engine.ask("findall(X, p(X), [1, 2, 3]),"
                          " count_solutions(p(_), 3)")) == 1


@pytest.mark.parametrize("query, error", [
    ("findall(X, (p(X), call(_)), L)", InstantiationError),
    ("member(Y, [a, b]), findall(Y, (p(X), dif(X, _)), L)", FlounderingError),
    ("count_solutions((p(X), X > 1, call(_)), N)", InstantiationError),
    ("member(Y, [a, b]), count_solutions(dif(Y, _), N)", FlounderingError)])
def test_an_error_inside_all_solutions_leaves_the_store_empty(
        engine, query, error):
    engine.load(PQ)
    with pytest.raises(error):
        engine.ask(query)
    assert engine.store.choicepoints == [] and engine.store.trail == []


def test_all_solutions_run_in_the_callers_loop(engine, monkeypatch):
    """findall/3 and count_solutions/2 keep their collector on the
    choicepoint stack: a query enters `Engine.solve` once."""
    engine.load(PQ)
    calls = []
    solve_ = Engine.solve
    monkeypatch.setattr(Engine, "solve", lambda self, goal, module:
                        calls.append(1) or solve_(self, goal, module))
    for query in ("findall(X, p(X), L)", "count_solutions(p(_), 3)",
                  "findall(L, (p(X), findall(Y, p(Y), L)), R)",
                  "X :: 1..3, count_solutions(indomain(X), 3)"):
        calls.clear()
        assert engine.once(query) is not None, query
        assert len(calls) == 1, query


# ----------------------------------------------------------------------
# metacall

def test_call_with_extra_arguments(engine):
    assert sols(engine, "call(member, X, [4, 5])") == [4, 5]
    got = engine.once("G = member(X), call(G, [6])")
    assert got["X"] == 6


def test_dif_stays_delayed_then_decides(engine):
    got = engine.once("dif(X, a), X = b")
    assert got["X"] is Atom("b")
    assert got.delayed == []
    assert engine.ask("dif(X, a), X = a") == []
    got = engine.once("dif(X, a)")
    assert len(got.delayed) == 1 and "dif" in got.delayed[0]


def test_halt_escapes(engine):
    with pytest.raises(Halt) as e:
        engine.ask("halt(3)")
    assert e.value.code == 3
    with pytest.raises(Halt) as e:
        engine.ask("halt")
    assert e.value.code == 0


# ----------------------------------------------------------------------
# modules

MODS = """
:- module(m1).
:- export(pub/1).
pub(1).
priv(2).

:- module(m2).
pub(99).
"""


def test_module_visibility(engine):
    engine.load(MODS)
    # unexported and unimported predicates are invisible from main
    with pytest.raises(ExistenceError):
        engine.ask("pub(X)")
    engine.load(":- import(m1).")
    assert sols(engine, "pub(X)") == [1]
    with pytest.raises(ExistenceError):
        engine.ask("priv(X)")


def test_qualified_calls(engine):
    engine.load(MODS)
    assert sols(engine, "m1:pub(X)") == [1]
    assert sols(engine, "m1:priv(X)") == [2]  # runs in m1's own context
    assert sols(engine, "m2:pub(X)") == [99]
    assert sols(engine, "[m1, m2]:pub(X)") == []  # conjunction: 1 vs 99
    with pytest.raises(ExistenceError):
        engine.ask("nosuch:pub(X)")


def test_same_name_in_two_modules(engine):
    engine.load(MODS)
    assert engine.modules["m1"].lookup_pred("pub", 1) is not None
    assert engine.modules["m2"].lookup_pred("pub", 1) is not None
    assert engine.modules["m1"].lookup_pred("pub", 1) \
        is not engine.modules["m2"].lookup_pred("pub", 1)


def test_a_local_definition_after_an_imported_call_is_called_next(engine):
    engine.load(MODS + ":- module(main).\n:- import(m1).\n")
    assert sols(engine, "pub(X)") == [1]
    engine.load("pub(5).")
    assert sols(engine, "pub(X)") == [5]
    assert sols(engine, "m1:pub(X)") == [1]


def test_an_export_after_a_failed_lookup_resolves_the_next_call(engine):
    engine.load(MODS + ":- module(main).\n:- import(m1).\n")
    with pytest.raises(ExistenceError):
        engine.ask("priv(X)")
    engine.load(":- export(priv/1).", module=engine.modules["m1"])
    assert sols(engine, "priv(X)") == [2]


def test_scoped_operator_declarations(engine):
    engine.load(":- module(m3).\n:- local op(700, xfx, ===).\n"
                "check(A === B) :- A = B.\n")
    # usable when reading in m3, not visible from main
    assert engine.ask("check(foo === foo)", module=engine.modules["m3"]) != []
    with pytest.raises(ReaderError):
        engine.ask("X = (a === b)")


def test_load_error_names_the_line_its_clause_starts_on(engine):
    with pytest.raises(TypeError_, match="^<text>:2: "):
        engine.load("p :- X = 1, Y is foo.\n:- p.\n")
    with pytest.raises(TypeError_, match="^<text>:3: "):
        engine.load("q :-\n    true.\n:- X = 1,\n   Y is foo.\nr.\n")


def test_load_error_leaves_the_store_as_it_was(engine):
    st = engine.store
    before = len(st.choicepoints), len(st.trail)
    with pytest.raises(TypeError_):
        engine.load("p :- X = 1, Y is foo.\n:- p.\n")
    assert (len(st.choicepoints), len(st.trail)) == before


def test_directive_failure_warns(engine, caplog):
    with caplog.at_level(logging.WARNING, logger="clpkernel"):
        engine.load(":- fail.\n")
    assert any("directive failed" in r.getMessage() for r in caplog.records)


def test_clause_contiguity_warning(engine, caplog):
    with caplog.at_level(logging.WARNING, logger="clpkernel"):
        engine.load("a(1).\nb(1).\na(2).\n")
    assert any("not contiguous" in r.getMessage() for r in caplog.records)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="clpkernel"):
        engine.load(":- discontiguous(c/1).\nc(1).\nd(1).\nc(2).\n")
    assert not any("not contiguous" in r.getMessage() for r in caplog.records)



def test_a_demon_directive_keeps_a_woken_goal_suspended():
    out = io.StringIO()
    engine = make_engine(out=out)
    engine.load(":- demon(w/1).\nw(_) :- writeln(woke).\n"
                "v(_) :- writeln(once).\n")
    assert engine.main.preds[("w", 1)].demon
    assert not engine.main.preds[("v", 1)].demon
    wake_twice = ("suspend(%s(X), 3, X -> constrained), "
                  "notify_constrained(X), notify_constrained(X)")
    [a] = engine.ask(wake_twice % "w")
    assert a.delayed == ["w(_)"]  # a demon runs and stays
    [b] = engine.ask(wake_twice % "v")
    assert b.delayed == []
    assert out.getvalue() == "woke\nwoke\nonce\n"


def test_a_plain_op_directive_declares_an_operator_for_its_module(engine):
    engine.load(":- op(700, xfx, ===>).\n")
    assert engine.main.ops.infix_op("===>") == (700, "xfx")
    [a] = engine.ask("X = (a ===> b), X =.. L")
    assert engine.format_term(a["X"]) == "a ===> b"
    assert engine.format_term(a["L"]) == "[===>, a, b]"
    # it is not exported: a module that imports main does not see it
    other = engine.new_module("other", imports=(engine.kernel, engine.main))
    assert other.ops.infix_op("===>") is None


# ----------------------------------------------------------------------
# standard predicates living in the prelude

def test_member_append_length(engine):
    assert sols(engine, "member(X, [a, b, c])") == [Atom(n) for n in "abc"]
    got = engine.once("append([1, 2], [3], L)")
    assert [deref(x) for x in proper_list(got["L"])] == [1, 2, 3]
    assert sols(engine, "append(X, _, [1, 2])", "X")  # splits enumerate
    assert engine.once("length([a, b, c], N)")["N"] == 3
    got = engine.once("length(L, 2)")
    items = proper_list(got["L"])
    assert items is not None and len(items) == 2
    # and it terminates when asked to backtrack over a fixed length
    assert len(engine.ask("length(L, 2)")) == 1


# ----------------------------------------------------------------------
# the preludes: read when their modules are imported, and loaded by every
# engine from what was read

def _declared_state(engine):
    """Modules, predicates with their clause counts and flags, operator
    tables, aux_n and imports, as plain values."""
    return {name: ({key: (len(p.clauses), p.exported, p.demon, p.no_warn)
                    for key, p in m.preds.items()},
                   (m.ops.prefix, m.ops.infix, m.ops.postfix),
                   m.aux_n, [i.name for i in m.imports])
            for name, m in engine.modules.items()}


PRELUDE_QUERIES = (
    "member(X, [a, b, c])",
    "append(X, Y, [1, 2])",
    "length(L, 2)",
    "length([a, b], N)",
    "X :: 1..4, Y :: 2..3, geq(Y, X), labeling([X, Y])",
    "X :: 1..3, geq(X, 2)",
)


def _answers(engine, text):
    return [re.sub(r"_\d+", "_", ", ".join(
        "%s = %s" % (name, engine.format_term(value))
        for name, value in answer.bindings.items()))
        for answer in engine.ask(text)]


def test_prelude_replay_matches_a_full_load(monkeypatch):
    """An engine that loads each prelude's source through `Engine.load`
    ends up as one that loads what `read_prelude` read."""
    replayed = Engine()
    sources = {id(solve._KERNEL_PRELUDE): solve._KERNEL_SOURCE,
               id(ic._IC_PRELUDE): ic._IC_SOURCE,
               id(search._SEARCH_PRELUDE): search._SEARCH_SOURCE}
    loads = []

    def load_source(self, steps, module):
        loads.append(module.name)
        self.load(sources[id(steps)], module=module)
    monkeypatch.setattr(Engine, "_load_prelude", load_source)
    loaded = Engine()
    monkeypatch.undo()
    assert loads == ["kernel", "ic", "ic"]
    assert _declared_state(replayed) == _declared_state(loaded)
    for text in PRELUDE_QUERIES:
        assert _answers(replayed, text) == _answers(loaded, text), text
        assert _answers(replayed, text)


def test_prelude_changes_stay_in_their_engine():
    before = Engine()
    a = Engine()
    a.load(":- module(kernel).\n:- export(op(700, xfx, ~~~)).\n"
           "member(zzz, _).\n")
    after = Engine()
    assert sols(a, "member(X, [])") == [Atom("zzz")]
    assert a.ask("X = (p ~~~ q)") != []
    for other in (before, after):
        assert sols(other, "member(X, [])") == []
        assert len(other.kernel.preds[("member", 2)].clauses) == 2
        with pytest.raises(ReaderError):
            other.ask("X = (p ~~~ q)")


def test_no_engine_reads_the_preludes():
    """In a fresh interpreter, even the first engine reads no text: the
    preludes were read when their modules were imported."""
    code = (
        "import sys\n"
        "import clpkernel\n"
        "calls = []\n"
        "for mod in list(sys.modules.values()):\n"
        "    if mod.__name__.startswith('clpkernel') and "
        "hasattr(mod, 'tokenize'):\n"
        "        tokenize = mod.tokenize\n"
        "        mod.tokenize = lambda *a, f=tokenize: calls.append(a) or f(*a)\n"
        "engine = clpkernel.Engine()\n"
        "print(len(calls))\n"
        "engine.once('true')\n"
        "print(len(calls))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                          capture_output=True, check=True)
    assert done.stdout.split() == ["0", "1"]  # the query is read


def test_a_prelude_goal_directive_is_refused():
    with pytest.raises(InternalError, match="not a goal"):
        clauses.read_prelude(":- p.")
    with pytest.raises(InternalError, match="not a goal"):
        clauses.read_prelude(":- export(p/0).\np.\n:- writeln(p).\n")
    steps = clauses.read_prelude(":- export(p/0).\np :- q.\n")
    assert [type(s) for s in steps] == [Struct, tuple]
    assert steps[1][:2] == ("p", 0) and type(steps[1][2]) is Clause


def test_term_inspection(engine):
    got = engine.once("functor(f(a, b), N, A)")
    assert got["N"] is Atom("f") and got["A"] == 2
    got = engine.once("functor(T, g, 2)")
    t = got["T"]
    assert t.name == "g" and t.arity == 2
    assert engine.once("arg(2, f(a, b), X)")["X"] is Atom("b")
    got = engine.once("f(a, b) =.. L")
    assert [deref(x) for x in proper_list(got["L"])] == [Atom("f"), Atom("a"),
                                                         Atom("b")]
    got = engine.once("T =.. [h, 1, 2]")
    assert got["T"].name == "h"


def test_arg_fails_for_an_index_outside_the_arguments(ask):
    # the ISO examples, and a do-loop that steps a foreacharg past the end
    assert ask("arg(0, foo(a, b), foo)") == []
    assert ask("arg(3, foo(3, 4), N)") == []
    assert ask("arg(-1, f(a), X)") == []
    assert ask("( foreacharg(X, f(a)), count(I, 1, 3) do true )") == []
    # the errors stay, and sort/4's key still raises out of range
    with pytest.raises(TypeError_):
        ask("arg(a, f(a), X)")
    with pytest.raises(TypeError_):
        ask("arg(1, a, X)")
    with pytest.raises(RangeError):
        ask("sort(2, =<, [f(1)], L)")


def test_setarg_backtracks(engine):
    got = engine.once("T = f(a), ( setarg(1, T, b), arg(1, T, V1) ; true ), "
                      "arg(1, T, V)")
    assert got["V1"] is Atom("b")
    # after the disjunction's first branch the update is still in effect
    assert got["V"] is Atom("b")
    got = engine.ask("T = f(a), ( setarg(1, T, b), fail ; arg(1, T, V) )")
    assert got[0]["V"] is Atom("a")  # undone on backtracking


def test_answer_bindings_share_variables(engine):
    got = engine.once("X = f(Y)")
    assert got["X"].args[0] is got["Y"]
    got = engine.once("X :: 1..3, Y = g(X)")
    x = got["X"]
    assert deref(got["Y"]).args[0] is x
    assert len(x.attrs) == 1
    assert engine.format_term(got["Y"]) == "g(_{1..3})"


# ----------------------------------------------------------------------
# compiled clauses: the head is matched in place, the body built after

NREV = """
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
"""


def _random_term(rng, pool, depth=0):
    k = rng.randrange(9 if depth < 2 else 6)
    if k < 2:
        return rng.choice(pool)
    if k == 2:
        return rng.choice((Atom("a"), Atom("b"), Atom("[]")))
    if k == 3:
        return rng.choice((1, 2, 1.0))
    if k == 4:
        return rng.choice(("a", "s"))
    if k == 5:
        return rng.choice(pool + [Atom("a"), 2])
    name, arity = rng.choice((("f", 1), ("f", 2), ("g", 2), (".", 2)))
    return Struct(name, [_random_term(rng, pool, depth + 1)
                         for _ in range(arity)])


def _random_deep_term(rng, pool, depth=0):
    if depth < 4 and rng.random() < 0.6:
        name, arity = rng.choice((("f", 1), ("g", 2), (".", 2)))
        return Struct(name, [_random_deep_term(rng, pool, depth + 1)
                             for _ in range(arity)])
    return _random_term(rng, pool, 2)


def _instance_of(rng, t, pool):
    """A term shaped like t: each subterm of t is kept, or replaced by a
    variable of the pool or by another random term; t's own variables
    are replaced."""
    k = rng.random()
    if k < 0.2 or type(t) is Var:
        return rng.choice(pool)
    if k < 0.25:
        return _random_term(rng, pool, 1)
    if type(t) is Struct:
        return Struct(t.name, [_instance_of(rng, a, pool) for a in t.args])
    return t


def _reference_unify(a, b):
    """Unification with occurs check over a substitution: True, False on a
    clash, None when the occurs check stops it (a cyclic term would be
    made without it)."""
    subst = {}

    def walk(t):
        while type(t) is Var and t in subst:
            t = subst[t]
        return t

    def occurs(v, t):
        t = walk(t)
        return t is v or (type(t) is Struct
                          and any(occurs(v, x) for x in t.args))

    stack = [(a, b)]
    while stack:
        x, y = (walk(t) for t in stack.pop())
        if x is y:
            continue
        if type(x) is Var or type(y) is Var:
            if type(x) is not Var:
                x, y = y, x
            if occurs(x, y):
                return None
            subst[x] = y
        elif type(x) is Struct and type(y) is Struct:
            if x.name != y.name or len(x.args) != len(y.args):
                return False
            stack.extend(zip(x.args, y.args))
        elif type(x) is not type(y) or x != y:
            return False
    return True


def _compiled_against_copy_and_unify(rng, head_arg, goal_arg):
    """Differential check: a clause's generated function, matching its
    head against a goal and building its body, agrees with renaming the
    whole clause by copy_term and unifying the head with Store.unify; so
    does the code of a predicate of that one clause, which runs it inline,
    from the first argument it tested when the head's is not a variable.
    ``head_arg(rng, pool)`` and ``goal_arg(rng, head argument, pool)``
    make the arguments of 500 random heads and goals."""
    outcomes = {True: 0, False: 0}
    for _ in range(500):
        hvars = [Var(), Var(), Var()]
        gvars = [Var(), Var(), Var()]
        arity = rng.randrange(1, 4)
        head = Struct("p", [head_arg(rng, hvars) for _ in range(arity)])
        goal = Struct("p", [goal_arg(rng, a, gvars) for a in head.args])
        fresh = Var()
        body = Struct("b", hvars + [fresh, Struct("f", [fresh])])
        expected = _reference_unify(head, goal)
        if expected is None:
            continue
        store = Store()
        mark = store.push_choicepoint()
        renamed = copy_term(Struct(":-", [head, body]))
        ok_old = store.unify(renamed.args[0], goal)
        old = ok_old and copy_term(Struct("r", [goal, renamed.args[1]]))
        store.backtrack_to(mark)

        pred = solve.Pred("p", arity, None)
        pred.add(Clause(head, body))
        for run in (lambda: pred.clauses[0].compile()(
                        goal.args, None, store, None, 1, None),
                    lambda: clauses.pred_code(pred)(
                        goal.args, SimpleNamespace(store=store), None)):
            got = run()
            ok_new = got is not False
            new = ok_new and copy_term(Struct("r", [goal, got[0]]))
            assert not ok_new or got[1:] == (None, 1, None)
            store.backtrack_to(mark)
            assert ok_old == ok_new == expected, (head, goal)
            if ok_new:
                assert is_variant(old, new), (head, goal, old, new)
        store.drop_to(mark)
        assert store.trail == [] and store.choicepoints == []
        outcomes[ok_new] += 1
    return outcomes


def test_compiled_head_matches_as_copy_and_unify_do():
    outcomes = _compiled_against_copy_and_unify(
        Random(20261018), _random_term,
        lambda rng, _, pool: _random_term(rng, pool))
    assert outcomes[True] >= 100 and outcomes[False] >= 100, outcomes


def test_compiled_deep_heads_match_as_copy_and_unify_do():
    """Heads nested up to five levels, against goals shaped like them, so
    compound head terms with compound arguments meet unbound variables
    below matched compound terms."""
    outcomes = _compiled_against_copy_and_unify(
        Random(20261019), _random_deep_term, _instance_of)
    assert outcomes[True] >= 100 and outcomes[False] >= 100, outcomes


def test_repeated_head_variable_unifies_goal_arguments(engine):
    engine.load("same(X, X).")
    got = engine.once("same(f(A), f(b))")
    assert got["A"] is Atom("b")
    assert engine.ask("same(f(a), f(b))") == []
    # two fresh variables: the older one survives, as Store.unify keeps it
    goal, varmap = engine.parse_goal("same(A, B)")
    a, b = varmap["A"], varmap["B"]
    assert a.serial < b.serial
    for _ in engine.solutions(goal):
        assert a.ref is None and deref(b) is a
        break



def test_passing_a_variable_to_a_clause_wakes_nothing(engine):
    # a head variable takes the argument as it is: nothing is bound, so
    # neither the bound nor the constrained list of the argument wakes
    engine.load("p(_).\nq(Y) :- true.\n")
    got = engine.once("suspend(true, 3, X->constrained), p(X)")
    assert got.delayed == ["true"]
    got = engine.once("suspend(true, 3, X->bound), q(X)")
    assert got.delayed == ["true"]

def test_compiled_clause_runs_in_generator_mode(engine):
    engine.load(NREV)
    got = engine.ask("app(X, Y, [1, 2])")
    assert [(engine.format_term(a["X"]), engine.format_term(a["Y"]))
            for a in got] == [("[]", "[1, 2]"), ("[1]", "[2]"),
                              ("[1, 2]", "[]")]


def test_body_only_variable_is_fresh_on_every_call(engine):
    engine.load("mk(X) :- X = f(_).")
    goal, varmap = engine.parse_goal("mk(A), mk(B)")
    for _ in engine.solutions(goal):
        va = deref(deref(varmap["A"]).args[0])
        vb = deref(deref(varmap["B"]).args[0])
        assert type(va) is Var and type(vb) is Var and va is not vb
        break
    else:
        pytest.fail("mk(A), mk(B) failed")


def test_cut_inside_a_compiled_body(engine):
    engine.load("t(X) :- member(X, [1, 2, 3]), X > 1, !.\nt(9).\n")
    assert sols(engine, "t(X)") == [2]


def test_metacalled_loop_param_keeps_its_domain(engine):
    got = engine.once("Q :: 1..3, call((foreach(R, [1, 2]), param(Q) do "
                      "Q #\\= R))")
    assert got is not None and got["Q"] == 3
    # a variable local to the body is fresh in every iteration, with a
    # copy of the domain it had when the loop was expanded
    got = engine.once("X :: 1..5, call((foreach(E, [1, 2]) do "
                      "get_max(X, 5), X #\\= E))")
    assert got is not None and engine.format_term(got["X"]) == "_{1..5}"


def _unlisted_preds():
    gc.collect()
    return sum(type(o) is solve.Pred and type(o.name) is solve.PredName
               for o in gc.get_objects())


def test_metacalled_loops_add_no_predicate(engine):
    engine.load("r(0) :- !.\n"
                "r(N) :- G = (foreach(E, [1, 2]) do true), call(G),"
                " N1 is N - 1, r(N1).\n"
                "q(0) :- !.\n"
                "q(N) :- G = (for(I, 1, N), foreach(X, Xs), param(N) do"
                " X is I * N), call(G), length(Xs, N), N1 is N - 1, q(N1).\n"
                "t(S) :- G = (for(I, 1, 3), fromto(0, A, B, S) do B is A + I),"
                " call(G).\n")
    n, unlisted = len(engine.main.preds), _unlisted_preds()
    # neither the same loop again nor loops over other data add one
    assert engine.once("r(40), q(40), t(S1), t(S2)") is not None
    assert len(engine.main.preds) == n
    assert engine.main.aux_n == 0
    # and the predicates the loops ran through are freed
    assert _unlisted_preds() == unlisted
    got = engine.once("t(S1), t(S2)")
    assert (got["S1"], got["S2"]) == (6, 6)


def test_metacalled_loop_body_is_renamed_as_it_was_called(engine):
    # Y occurs in the data and the body: the body's Y is local, fresh in
    # every iteration, even after the data bound the outer Y
    got = engine.once("call((foreach(X, [Y, W]) do X = 1, Z = Y, var(Z)))")
    assert got is not None and (got["Y"], got["W"]) == (1, 1)


def test_clause_renaming_does_not_copy_terms(engine, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("copy_term called")
    monkeypatch.setattr(solve, "copy_term", boom)
    engine.load(NREV)
    goal, varmap = engine.parse_goal("nrev([1, 2, 3, 4], R)")
    got = [engine.format_term(varmap["R"]) for _ in engine.solutions(goal)]
    assert got == ["[4, 3, 2, 1]"]


def _pushes(engine, monkeypatch, query):
    """Choicepoints pushed while finding the first answer of a query."""
    pushes = []
    push = Store.push_choicepoint
    monkeypatch.setattr(Store, "push_choicepoint",
                        lambda self: pushes.append(1) or push(self))
    got = engine.once(query)
    monkeypatch.undo()
    return got, len(pushes)


def test_switch_tries_one_of_a_thousand_facts(engine, monkeypatch):
    engine.load("".join("f(%d, sq(%d)).\n" % (i, i * i) for i in range(1000)))
    engine.load("f(500.0, float).\nf(500_1, rational).\n")
    facts = engine.main.preds[("f", 2)].clauses
    _, base = _pushes(engine, monkeypatch, "true")
    got, pushed = _pushes(engine, monkeypatch, "f(500, X)")
    assert engine.format_term(got["X"]) == "sq(250000)"
    assert pushed == base  # only the query's own marks
    # a clause's function is generated on its first call: one was run
    assert [i for i, c in enumerate(facts) if c.fn is not None] == [500]
    # numbers of other types have keys of their own
    for query, value in [("f(500.0, X)", "float"), ("f(500_1, X)", "rational")]:
        got, pushed = _pushes(engine, monkeypatch, query)
        assert got["X"] is Atom(value) and pushed == base, query


def test_large_fact_tables_stay_cheap_to_call(engine):
    """A predicate with thousands of keys makes no code per clause: its
    first call and an enumeration of all its clauses stay cheap, and
    neither factory cache grows by more than a shape or two."""
    engine.load("".join("f(%d, g(%d)).\n" % (i, i) for i in range(5000)))
    engine.load("".join("h(k%d, %d).\n" % (i, i) for i in range(5000)))
    caches = clauses._FACTORIES, clauses._PREDS
    before = [len(cache) for cache in caches]
    for query, count in [("f(4321, X)", 1), ("h(k17, X)", 1),
                         ("f(I, X)", 5000)]:
        start = time.process_time()
        got = engine.ask(query)
        assert time.process_time() - start < 0.5, query
        assert len(got) == count, query
    assert engine.format_term(sols(engine, "f(4321, X)")[0]) == "g(4321)"
    assert sols(engine, "h(k17, X)") == [17]
    assert all(len(cache) - n <= 2 for cache, n in zip(caches, before))
    for name in "fh":
        code = engine.main.preds[(name, 2)].code.__code__
        assert len(code.co_code) < 4096, name  # inlines no clause


def test_switch_keeps_clause_order_over_variable_first_clauses(engine):
    engine.load("m(a, 1).\nm(_, 2).\nm(b, 3).\nm(a, 4).\nm(_, 5).\n"
                "m(f(_), 6).\nm(7, 7).\n")
    assert sols(engine, "m(a, X)") == [1, 2, 4, 5]
    assert sols(engine, "m(K, X)") == [1, 2, 3, 4, 5, 6, 7]
    assert sols(engine, "m(c, X)") == [2, 5]  # a key no clause has
    assert sols(engine, "m(f(z), X)") == [2, 5, 6]
    assert sols(engine, "m(7, X)") == [2, 5, 7]
    assert sols(engine, "m(7.0, X)") == [2, 5]  # an equal key, no match
    assert sols(engine, "K = a, m(K, X)") == [1, 2, 4, 5]


DISPATCH = """
d(a, 1).
d(3, 2).
d(_, 3).
d(12345678901234567890, 4).
d(3.0, 5).
d(3_1, 6).
d("s", 7).
d(_, 8).
d(f(x), 9).
d(f(x, y), 10).
d(1.0__2.0, 11).
"""

#: each goal's answers for d/2 above, in source order
DISPATCH_ANSWERS = [
    ("d(a, X)", [1, 3, 8]),
    ("d(3, X)", [2, 3, 8]),
    ("d(12345678901234567890, X)", [3, 4, 8]),
    ("d(12345678901234567891, X)", [3, 8]),
    ("d(3.0, X)", [3, 5, 8]),
    ("d(3_1, X)", [3, 6, 8]),
    ('d("s", X)', [3, 7, 8]),
    ("d(f(x), X)", [3, 8, 9]),
    ("d(f(z), X)", [3, 8]),
    ("d(f(x, y), X)", [3, 8, 10]),
    ("d(1.0__2.0, X)", [3, 8, 11]),
    ("d(1.0__3.0, X)", [3, 8]),
    ("d(b, X)", [3, 8]),
    ("d(g(x), X)", [3, 8]),
    ("K = f(x), d(K, X)", [3, 8, 9]),
    ("d(K, X)", list(range(1, 12))),
]


@pytest.mark.parametrize("chain", [9, 8], ids=["chain", "dict"])
def test_switch_on_every_key_kind(engine, monkeypatch, chain):
    """d/2 has nine first-argument keys: tested in a chain when that many
    fit one, read from a dict otherwise.  Either way each goal gets the
    answers of its key's clauses and of the variable-first ones, in source
    order, and a clause added between calls counts from the next call."""
    monkeypatch.setattr(clauses, "_CHAIN", chain)
    engine.load(DISPATCH)
    for query, expected in DISPATCH_ANSWERS:
        assert sols(engine, query) == expected, query
    code = engine.main.preds[("d", 2)].code
    assert (code.__code__.co_filename == "<pred>") == (chain == 9)
    engine.load("d(_, 12).")
    for query, expected in DISPATCH_ANSWERS:
        assert sols(engine, query) == expected + [12], query


def test_clause_added_during_a_call_is_tried_by_the_next_call(engine):
    added = iter(range(10, 20))

    def grow(eng, args, module):
        eng.add_clause(module, Struct("g", [next(added)]), Atom("true"))
        return True
    engine.add_builtin(engine.main, "grow", 0, grow)
    engine.load("g(1).\ng(2).\n")
    got = engine.once("findall(X, (g(X), grow), L), findall(Y, g(Y), M)")
    assert engine.format_term(got["L"]) == "[1, 2]"
    assert engine.format_term(got["M"]) == "[1, 2, 10, 11]"
    assert len(engine.ask("g(11)")) == 1


def test_generated_code_looks_up_the_store_at_call_time(engine, monkeypatch):
    """Clause functions outlive any patch of `Store` (prelude clauses are
    shared by every engine), so they call its methods as they are."""
    assert engine.once("member(X, [a])") is not None  # generated here
    calls = []
    for name in ("bind", "unify"):
        method = getattr(Store, name)
        monkeypatch.setattr(Store, name, lambda self, *args, _m=method, _n=name:
                            calls.append(_n) or _m(self, *args))
    assert engine.once("member(X, [a]), member(b, [Y])") is not None
    # the head [X|_] unifies the goal list's first element with X
    assert calls == ["unify", "bind", "unify", "bind"]


def test_clauses_of_one_shape_share_generated_code(engine, monkeypatch):
    engine.load("r(0) :- !.\n"
                "r(N) :- G = (foreach(E, [1, 2]) do true), call(G),"
                " N1 is N - 1, r(N1).\n")
    assert engine.once("r(3)") is not None
    made = []
    factory = clauses._factory
    monkeypatch.setattr(clauses, "_factory",
                        lambda shape: made.append(shape) or factory(shape))
    # each call of the loop adds two clauses of the shapes already made
    assert engine.once("r(40)") is not None
    assert made == []
    # constants are parameters, not part of the shape; an arity of 37
    # keeps this shape new to the process
    rest = ", 1" * 36
    engine.load("k(1%s).\nk(a%s).\nk(2.5%s).\n" % (rest, rest, rest))
    assert sols(engine, "k(X%s)" % rest) == [1, Atom("a"), 2.5]
    assert [shape[:3] for shape in made] == [(37, 0, "K")]


def test_head_constants_compare_as_unify_does(engine):
    engine.load('b(1.0__2.0, 1_3, "s", 2.5, 3, x).')
    assert len(engine.ask('b(1.0__2.0, 1_3, "s", 2.5, 3, x)')) == 1
    for goal in ('b(1.0__3.0, _, _, _, _, _)', 'b(_, 2_3, _, _, _, _)',
                 'b(_, _, "t", _, _, _)', 'b(_, _, _, 2, _, _)',
                 'b(_, _, _, _, 3.0, _)', 'b(_, _, _, _, _, y)',
                 'b(_, _, s, _, _, _)', 'b(_, _, _, _, _, "x")'):
        assert engine.ask(goal) == [], goal
    got = engine.once("X = 3, b(A, B, C, D, X, E)")
    assert [engine.format_term(got[v], quoted=True) for v in "ABCDE"] == \
        ["1.0__2.0", "1_3", '"s"', "2.5", "x"]


def test_large_clauses_load_and_run_at_the_default_recursion_limit(engine):
    """Clause code is generated flat, and its compiler walks with a
    stack: a head term nested 5000 deep, 300- and 10000-element lists in
    a head and a body, and a 1000-goal body."""
    assert sys.getrecursionlimit() == 1000
    deep = Atom("a")
    for _ in range(5000):
        deep = Struct("f", [deep])
    engine.add_clause(engine.main, Struct("deep", [deep]), Atom("true"))
    assert engine.ask("deep(X), deep(X), \\+ deep(f(b))") != []
    for n in (300, 10000):
        items = ", ".join(map(str, range(n)))
        engine.load("l%d([%s], L) :- L = [%s]." % (n, items, items))
        got = engine.once("l%d(A, B), l%d(A, C), A == B, B == C" % (n, n))
        assert got is not None
        assert [deref(x) for x in proper_list(got["A"])] == list(range(n))
    n0 = Var()
    goals, prev = [], n0
    for _ in range(1000):
        nxt = Var()
        goals.append(Struct("is", [nxt, Struct("+", [prev, 1])]))
        prev = nxt
    engine.add_clause(engine.main, Struct("many", [n0, prev]), mk_conj(goals))
    assert engine.once("many(0, N)")["N"] == 1000


def test_deterministic_recursion_pushes_no_choicepoints(engine, monkeypatch):
    """First-argument indexing leaves nrev one candidate clause per call,
    so only the query's own marks are pushed."""
    engine.load(NREV)
    pushes = []
    push = Store.push_choicepoint
    monkeypatch.setattr(Store, "push_choicepoint",
                        lambda self: pushes.append(1) or push(self))
    got = engine.once("nrev(%s, R)" % list(range(30)))
    assert engine.format_term(got["R"]) == str(list(range(29, -1, -1)))
    assert len(pushes) <= 2


def test_solving_writes_no_class_attribute(class_changes):
    """Clause renaming, ic posting, propagation and labeling through one
    engine leave every class of the package as it was imported."""
    engine = make_engine()
    engine.load(NREV)
    got = engine.once("nrev([1, 2, 3], R), [X, Y, Z] :: 1..3, "
                      "alldifferent([X, Y, Z]), X #< Y, labeling([X, Y, Z])")
    assert engine.format_term(got["R"]) == "[3, 2, 1]"
    assert [got[v] for v in "XYZ"] == [1, 2, 3]
    assert class_changes() == []


def test_backtracking_into_a_bare_mark_is_an_internal_error(engine):
    def leaky(eng, args, module):
        eng.store.push_choicepoint()  # neither dropped nor committed
        return True
    engine.add_builtin(engine.main, "leaky", 0, leaky)
    with pytest.raises(InternalError):
        engine.ask("leaky, fail")


def test_long_lists_are_copied_and_compared_in_a_loop(engine):
    """Answers, copy_term/2, findall/3 and term comparison on a list of
    100k elements: none of them recurses along the list."""
    n = 100000
    engine.add_builtin(engine.main, "big", 1, lambda eng, args, module:
                       eng.store.unify(args[0], mk_list(range(1, n + 1))))
    got = engine.once("big(L), copy_term(L, C), findall(L, true, [F]),"
                      " L == L, C == L, F == L, compare(O, L, C)")
    assert got["O"] is Atom("=")
    for name in "LCF":
        items = proper_list(got[name])
        assert len(items) == n and items[-1] == n
    assert engine.ask("big(L), big(M), M = [_|T], L == T") == []


def _count_inferences(monkeypatch, program, query):
    """Predicate calls of a query counted as the benchmark counts them:
    one per call of Engine._call_user or Engine._run_builtin."""
    calls = [0]

    def counting(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)
        return wrapper

    engine = Engine()
    engine.load(program)
    goal, _ = engine.parse_goal(query)
    monkeypatch.setattr(Engine, "_call_user", counting(Engine._call_user))
    monkeypatch.setattr(Engine, "_run_builtin",
                        counting(Engine._run_builtin))
    for _ in engine.solutions(goal):
        break
    monkeypatch.undo()
    return calls[0]


def test_inference_counts_the_benchmark_relies_on(monkeypatch):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    n = 10
    assert _count_inferences(
        monkeypatch, workloads.CORE_PROGRAM,
        "nrev(%s, R)" % list(range(1, n + 1))) == (n + 1) * (n + 2) // 2
    # woken demon runs count too: each is one call of Engine._run_builtin
    for program, query, count in [
            (workloads.QUEENS_PROGRAM, "count_queens(6, first_fail, C)", 998),
            (workloads.QUEENS_PROGRAM, "count_queens(6, input_order, C)", 998),
            (workloads.LINEAR_PROGRAM, "send_more(L)", 40),
            (workloads.LINEAR_PROGRAM, "magic(C)", 1142),
            (workloads.LINEAR_PROGRAM, "coins(40, C)", 193)]:
        assert _count_inferences(monkeypatch, program, query) == count, query
    # a metacall is one call more than its goal; \+ \+ is two
    xs = list(range(1, n + 1))
    for query, count in [("call(nrev(%s, R))" % xs, 67),
                         ("once(nrev(%s, R))" % xs, 67),
                         ("main:nrev(%s, R)" % xs, 67),
                         ("call(nrev, %s, R)" % xs, 67),
                         ("\\+ \\+ nrev(%s, R)" % xs, 68)]:
        assert _count_inferences(monkeypatch, workloads.CORE_PROGRAM,
                                 query) == count, query
    # the seed-1 pools, each query counted once up to its first answer
    for name, total in [("core", 81754), ("queens", 85706),
                        ("linear", 27623), ("wide", 242)]:
        w = workloads.WORKLOADS[name]
        assert sum(_count_inferences(monkeypatch, w.program, q.goal)
                   for q in w.make_pool(Random(1))) == total, name


def test_recursion_depth_floor():
    """Deterministic recursion 100k deep succeeds, each case in a fresh
    interpreter at the default recursion limit: count_to/2 (the
    benchmark's depth probe), length/2, a do-loop, and recursion through
    each metacall, findall/3 and count_solutions/2; labeling/2 labels a
    few thousand variables.  A change that adds a Python frame per call
    or per labeled variable fails here.  At most three interpreters run
    at once."""
    code = ("import sys\n"
            "from clpkernel import Engine\n"
            "assert sys.getrecursionlimit() == 1000\n"
            "e = Engine()\n"
            "e.load(sys.argv[1])\n"
            "got = e.once(sys.argv[2])\n"
            "assert got is not None\n"
            "assert got.bindings.get('N', 100000) == 100000\n")
    cases = [("count_to(N, N) :- !.\n"
              "count_to(I, N) :- I1 is I + 1, count_to(I1, N).",
              "count_to(0, 100000)"),
             ("", "length(_, 100000)"),
             ("", "length(L, 100000),"
                  " ( foreach(X, L), count(I, 1, N) do X = I )")]
    for call in ("call(r(N1))", "once(r(N1))", "\\+ \\+ r(N1)",
                 "main:r(N1)", "findall(x, r(N1), _)",
                 "count_solutions(r(N1), _)"):
        cases.append(("r(0) :- !.\nr(N) :- N1 is N - 1, %s." % call,
                      "r(100000)"))
    for strategy, n in (("input_order", 2000), ("first_fail", 1500)):
        cases.append(("", "length(L, %d), L :: 0..1, labeling(%s, L)"
                      % (n, strategy)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for batch in range(0, len(cases), 3):
        procs = [(goal, subprocess.Popen(
            [sys.executable, "-c", code, program, goal],
            stderr=subprocess.PIPE, text=True, env=env))
            for program, goal in cases[batch:batch + 3]]
        for goal, p in procs:
            _, err = p.communicate(timeout=300)
            assert p.returncode == 0, (goal, err[-2000:])


NREV = """
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
count_to(N, N) :- !.
count_to(I, N) :- I1 is I + 1, count_to(I1, N).
"""


@pytest.mark.parametrize("query", [
    "count_to(0, 100000)", "nrev(%s, R)" % list(range(100))],
    ids=["count_to", "nrev"])
def test_deterministic_recursion_keeps_the_trail_bounded(engine, query):
    """Bindings of variables made after the youngest choicepoint are not
    trailed, so deterministic recursion does not grow the trail."""
    engine.load(NREV)
    goal, _ = engine.parse_goal(query)
    sols = engine.solutions(goal)
    next(sols)
    assert len(engine.store.trail) < 100
    sols.close()


def test_a_call_pushes_a_choicepoint_only_for_a_second_candidate(
        engine, monkeypatch):
    """A call with one candidate clause, under first-argument indexing,
    pushes no choicepoint; a call with two pushes exactly one."""
    engine.load("one(a).\ntwo(a).\ntwo(b).\nzero :- true.\n")
    pushes = []
    push = Store.push_choicepoint

    def counting(store):
        pushes.append(1)
        return push(store)

    monkeypatch.setattr(Store, "push_choicepoint", counting)

    def pushed(query):
        goal, _ = engine.parse_goal(query)
        pushes.clear()
        for _ in engine.solutions(goal):
            return len(pushes) - 2  # the top level's mark and solve's base
        pytest.fail("%s failed" % query)

    for query in ("zero", "one(X)", "one(a)", "two(a)", "two(b)"):
        assert pushed(query) == 0, query
    assert pushed("two(X)") == 1
    assert pushed("two(_), one(_)") == 1


def test_a_clause_added_during_a_call_is_not_tried_by_it(engine):
    """With two candidates (a retry mark) and with one (none)."""
    def grow(eng, args, module):
        eng.add_clause(module, Struct(deref(args[0]).name, [9]), Atom("true"))
        return True

    engine.add_builtin(engine.main, "grow", 1, grow)
    engine.load("p(1).\np(2).\nq(1).\n")
    assert sols(engine, "p(X), grow(p)") == [1, 2]
    assert sols(engine, "q(X), grow(q)") == [1]
    assert sols(engine, "p(X)") == [1, 2, 9, 9]
    assert sols(engine, "q(X)") == [1, 9]


def test_pure_resolution_never_polls_the_queue(engine, monkeypatch):
    """With nothing woken, the loop never calls `drain`, which polls the
    queue."""
    calls = []
    pop = Scheduler.pop_runnable
    monkeypatch.setattr(Scheduler, "pop_runnable",
                        lambda self, limit: calls.append(1) or pop(self, limit))
    engine.load(NREV)
    got = engine.once("nrev(%s, R)" % list(range(30)))
    assert engine.format_term(got["R"]) == str(list(range(29, -1, -1)))
    assert calls == []
