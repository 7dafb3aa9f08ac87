"""The engine against the reference resolver in `refsolve`: seeded
stratified programs, each query's first answers compared as variants, in
order, and failure compared with failure."""

import random

import pytest

import refsolve
from refsolve import Var as RVar
from clpkernel import make_engine
from clpkernel.terms import Atom, Struct, Var, deref

#: answers compared per query
LIMIT = 6
PROGRAMS = 120


def engine_data(t, fresh):
    """An engine term as `refsolve` data, its variables mapped by
    ``fresh``."""
    t = deref(t)
    if type(t) is Var:
        return fresh.setdefault(t, RVar())
    if type(t) is Atom:
        return t.name
    if type(t) is Struct:
        return (t.name,) + tuple(engine_data(a, fresh) for a in t.args)
    return t


def query_vars(goal, out=None):
    """The variables of a `refsolve` goal, in order of first occurrence."""
    out = [] if out is None else out
    if type(goal) is RVar:
        if goal not in out:
            out.append(goal)
    elif type(goal) is tuple:
        for a in goal[1:]:
            query_vars(a, out)
    return out


def reference(program, goal):
    """The first answers of ``goal``: per answer, the canonical form of
    its query variables' values."""
    got = refsolve.Resolver(program.clauses).answers(
        goal, query_vars(goal), LIMIT)
    return [refsolve.canonical(values) for values in got]


def engine_answers(engine, goal):
    names = [v.name for v in query_vars(goal)]
    out = []
    for answer in engine.ask(refsolve.text(goal), limit=LIMIT):
        fresh = {}
        out.append(refsolve.canonical(
            [engine_data(answer[n], fresh) for n in names]))
    return out


def _solutions(clauses, goal, limit=10):
    program = refsolve.Program(clauses, [goal])
    return reference(program, goal)[:limit]


X, Y, Z = RVar("X"), RVar("Y"), RVar("Z")


def test_the_reference_cuts_to_its_clause():
    clauses = [(("m", X, (".", X, Y)), "true"),
               (("m", X, (".", Y, Z)), ("m", X, Z)),
               (("first", X), (",", ("m", X, refsolve.make_list(
                   ["a", "b", "c"])), "!")),
               (("first", "z"), "true")]
    assert _solutions(clauses, ("m", X, refsolve.make_list([1, 2]))) == [
        (1,), (2,)]
    assert _solutions(clauses, ("first", X)) == [("a",)]
    # a cut inside call/1, \+ or an if-then-else condition is local
    clauses.append((("local", X), (";", ("call", (",", ("m", X, (
        ".", 1, (".", 2, "[]"))), "!")), ("=", X, 3))))
    assert _solutions(clauses, ("local", X)) == [(1,), (3,)]
    clauses.append((("ite", X), (";", ("->", ("m", Y, (".", 1, (
        ".", 2, "[]"))), ("m", X, (".", Y, (".", 5, "[]")))),
        ("=", X, 9))))
    assert _solutions(clauses, ("ite", X)) == [(1,), (5,)]
    clauses.append((("all", X), ("findall", Y, (",", ("m", Y, (
        ".", 1, (".", 2, "[]"))), "!"), X)))
    assert _solutions(clauses, ("all", X)) == [((".", 1, "[]"),)]


def test_the_reference_answers_are_variants_of_shared_variables():
    clauses = [(("pair", X, X), "true")]
    assert _solutions(clauses, ("pair", X, Y)) == [
        (("$VAR", 0), ("$VAR", 0))]
    assert refsolve.canonical([X, Y]) != refsolve.canonical([X, X])


def test_a_cyclic_binding_is_inconclusive():
    with pytest.raises(refsolve.Inconclusive):
        refsolve.unify(X, ("f", X), {})


def test_the_programs_are_stratified_and_reuse_names():
    rng = random.Random(5)
    reused = 0
    for _ in range(20):
        program = refsolve.random_program(rng)
        sigs = list(dict.fromkeys(refsolve.indicator(h)
                                  for h, _ in program.clauses))
        assert len(sigs) == 5
        reused += len({name for name, _ in sigs}) < len(sigs)
    assert reused == 20


@pytest.mark.parametrize("seed", range(4))
def test_the_engine_agrees_with_the_reference_resolver(seed):
    rng = random.Random(1000 + seed)
    compared = answered = 0
    for _ in range(PROGRAMS // 4):
        program = refsolve.random_program(rng)
        engine = make_engine()
        engine.load(program.text)
        for goal in program.queries:
            try:
                want = reference(program, goal)
            except refsolve.Inconclusive:
                continue
            got = engine_answers(engine, goal)
            assert got == want, "%s?- %s." % (program.text,
                                              refsolve.text(goal))
            compared += 1
            answered += bool(want)
            assert engine.store.choicepoints == []
    # most queries are judged, and neither answers nor failures are rare
    assert compared >= 0.8 * 5 * (PROGRAMS // 4)
    assert 0.2 * compared < answered < 0.9 * compared
