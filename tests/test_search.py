"""Labeling search: indomain, labeling/1,2, count_solutions."""

import time
import tracemalloc
from random import Random

import pytest

from clpkernel import make_engine, search
from clpkernel.errors import DomainError, FlounderingError, TypeError_
from clpkernel.ic import (ensure_domain, exclude_value, get_domain,
                          impose_integrality, impose_max, impose_min)
from clpkernel.search import _dom_size, _finite_values, _pick
from clpkernel.solve import Engine, Module
from clpkernel.terms import Var, deref, proper_list

from brute import queens_brute


def as_ints(t):
    return [deref(x) for x in proper_list(t)]


def test_indomain_enumerates_ascending(ask):
    assert [a["X"] for a in ask("X :: 3..7, indomain(X)")] == [3, 4, 5, 6, 7]


def test_indomain_skips_holes(ask):
    got = [a["X"] for a in
           ask("X :: 1.0..9.0, X #\\= 4, X #\\= 5, indomain(X)")]
    assert got == [1, 2, 3, 6, 7, 8, 9]


def test_indomain_on_an_integer_is_a_noop(ask):
    assert len(ask("indomain(5)")) == 1


def test_indomain_rejects_other_values(engine):
    with pytest.raises(TypeError_):
        engine.once("indomain(2.5)")


def test_indomain_needs_finite_bounds(engine):
    with pytest.raises(DomainError):
        engine.once("X #>= 1, indomain(X)")


def test_indomain_undoes_rejected_values(ask):
    got = ask("X :: 1..3, indomain(X), X #>= 3")
    assert [a["X"] for a in got] == [3]


def test_labeling_input_order_is_lexicographic(ask):
    got = [(a["X"], a["Y"]) for a in
           ask("X :: 1..2, Y :: 1..2, labeling([X, Y])")]
    assert got == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_labeling_interleaves_with_propagation(ask):
    got = [(a["X"], a["Y"]) for a in
           ask("X :: 1..3, Y :: 1..3, X #< Y, labeling([X, Y])")]
    assert got == [(1, 2), (1, 3), (2, 3)]


def test_labeling_accepts_ground_members(ask):
    assert len(ask("labeling([1, 2, 3])")) == 1
    got = ask("X :: 1..2, labeling([1, X, 2])")
    assert [a["X"] for a in got] == [1, 2]


def test_labeling2_strategies_agree_on_the_solution_set(ask):
    q = "X :: 1..3, Y :: 1..2, labeling(%s, [X, Y])"
    in_order = [(a["X"], a["Y"]) for a in ask(q % "input_order")]
    ff = [(a["X"], a["Y"]) for a in ask(q % "first_fail")]
    assert in_order == [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]
    # first_fail grabs Y (two values) before X (three), so Y varies slowest
    assert ff == [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)]
    assert set(ff) == set(in_order)
    assert [(a["X"], a["Y"]) for a in ask(q % "ff")] == ff


def test_labeling2_bad_arguments(engine):
    with pytest.raises(DomainError):
        engine.once("X :: 1..2, labeling(cleverest_first, [X])")
    with pytest.raises(TypeError_):
        engine.once("X :: 1..2, labeling(7, [X])")
    with pytest.raises(TypeError_):
        engine.once("X :: 1..2, labeling(ff, foo)")


@pytest.mark.parametrize("goal", [
    "indomain(3.0)", "X :: 1..2, labeling([X, 3.0])",
    "X :: 1..2, labeling(input_order, [X, 3.0])",
    "X :: 1..2, labeling(first_fail, [3.0, X])", "labeling(first_fail, [a])",
    "labeling(ff, [f(_)])", "labeling(input_order, [1, 1_1])"])
def test_labeling_items_follow_one_rule(engine, goal):
    """An int item is labelled already; any other item that is not a
    variable is indomain/1's type error, from labeling/1 and /2 alike."""
    with pytest.raises(TypeError_, match="indomain: not an integer"):
        engine.once(goal)


def test_labeling2_checks_its_items_once_when_called(engine, monkeypatch):
    checked = []
    check = search._labelled

    def counted(x):
        checked.append(x)
        return check(x)

    monkeypatch.setattr(search, "_labelled", counted)
    assert len(engine.ask("X :: 1..3, Y :: 1..3, labeling(ff, [X, 2, Y])")) \
        == 9
    assert len(checked) == 3


def test_labeling_empty_list(ask):
    assert len(ask("labeling([])")) == 1
    assert len(ask("labeling(ff, [])")) == 1


def test_count_solutions_counts_without_binding(first):
    a = first("count_solutions(member(X, [a, b, c]), N)")
    assert a["N"] == 3
    assert isinstance(deref(a["X"]), Var)


def test_count_solutions_restores_domains(first):
    a = first("X :: 1..5, count_solutions((X #>= 2, indomain(X)), N), "
              "get_bounds(X, L, H)")
    assert a["N"] == 4
    assert (a["L"], a["H"]) == (1, 5)


def test_count_solutions_refuses_delayed_goals(engine):
    with pytest.raises(FlounderingError) as e:
        engine.once("count_solutions(dif(X, a), N)")
    assert any("dif" in g for g in e.value.goals)
    with pytest.raises(FlounderingError):
        engine.once("X :: 0..3, Y :: 0..3, count_solutions(X + Y #= 4, N)")


QUEENS_SRC = """
queens(N, Qs) :-
    length(Qs, N),
    Qs :: 1..N,
    ( fromto(Qs, [Q|Rest], Rest, []) do
        ( foreach(R, Rest), count(D, 1, _), param(Q) do
            Q #\\= R,
            Q + D #\\= R,
            Q - D #\\= R
        )
    ),
    alldifferent(Qs),
    labeling(Qs).
"""


def test_queens_matches_exhaustive_search(engine, ask):
    engine.load(QUEENS_SRC)
    for n in (4, 5):
        got = [tuple(as_ints(a["Qs"])) for a in ask("queens(%d, Qs)" % n)]
        assert got == sorted(got)
        assert got == queens_brute(n)


def test_builtins_return_a_bool_or_a_pair(engine, monkeypatch):
    """The builtin protocol: a result is a bool or a (goal, module) pair,
    so labeling and all-solutions keep their alternatives on the
    choicepoint stack, woken or not."""
    results = []
    run = Engine._run_builtin

    def recording(self, pred, args, module):
        results.append(run(self, pred, args, module))
        return results[-1]
    monkeypatch.setattr(Engine, "_run_builtin", recording)
    engine.load(QUEENS_SRC)
    got = engine.once(
        "count_solutions(queens(6, _), C),"
        " findall(X-Y, (X :: 1..2, Y :: 1..2, labeling(first_fail, [X, Y])),"
        " L), Z :: 1..3, suspend(indomain(Z), 3, W -> inst), W = a")
    assert got["C"] == 4 and got["Z"] == 1
    assert engine.format_term(got["L"]) == "[1 - 1, 1 - 2, 2 - 1, 2 - 2]"
    assert any(type(r) is tuple for r in results)
    for r in results:
        assert type(r) is bool or (
            type(r) is tuple and len(r) == 2 and type(r[1]) is Module), r


# ----------------------------------------------------------------------
# wide domains are never built

def test_wide_domain_labels_and_prints_without_building_it(engine):
    tracemalloc.start()
    try:
        got = engine.ask("X :: 1..2000000, X #\\= 2, X #\\= 3, "
                         "X #\\= 1000000, indomain(X)", limit=4)
        shown = engine.once("X :: 1..2000000, X #\\= 5, X #\\= 6, "
                            "X #\\= 1999999")
        text = engine.format_term(shown["X"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [a["X"] for a in got] == [1, 4, 5, 6]
    assert text == "_{[1..4, 7..1999998, 2000000]}"
    assert peak < 1 << 20


def test_first_fail_over_a_wide_and_a_narrow_variable(ask):
    got = ask("X :: 1..2000000, X #\\= 2, Y :: 1..3, Y #\\= 2, "
              "labeling(first_fail, [X, Y])", limit=4)
    # Y has two values left, so it is labelled first
    assert [(a["X"], a["Y"]) for a in got] == [(1, 1), (3, 1), (4, 1), (5, 1)]


def test_finite_values_agree_with_the_domain_size():
    rng = Random(5)
    for _ in range(200):
        e = make_engine()
        x = Var()
        lo = rng.randint(-4, 4)
        hi = lo + rng.randint(1, 20)
        ensure_domain(e, x)
        impose_integrality(e, x)
        impose_min(e, x, lo)
        impose_max(e, x, hi)
        # at least two values stay, so x stays a variable
        gone = rng.sample(range(lo, hi + 1), rng.randint(0, hi - lo - 1))
        for v in gone:
            assert exclude_value(e, x, v)
        values = _finite_values(get_domain(x))
        expected = [v for v in range(lo, hi + 1) if v not in gone]
        assert list(values) == expected
        assert len(values) == _dom_size(x) == len(expected)


def test_first_fail_picks_the_first_smallest_domain():
    """The scan starts at the first free item and stops at a domain of
    size 2, and still picks what a scan of every item by size picks."""
    rng = Random(2604)
    for _ in range(300):
        e = make_engine()
        items, sizes = [], []
        for _ in range(rng.randint(1, 12)):
            if rng.random() < 0.3:
                items.append(rng.randint(0, 9))  # already labeled
                continue
            x = Var()
            lo = rng.randint(-5, 5)
            hi = lo + rng.randint(1, 6)
            ensure_domain(e, x)
            impose_integrality(e, x)
            impose_min(e, x, lo)
            impose_max(e, x, hi)
            inner = list(range(lo + 1, hi))
            for v in rng.sample(inner, rng.randint(0, len(inner))):
                assert exclude_value(e, x, v)
            items.append(x)
        free = [i for i, t in enumerate(items) if type(deref(t)) is Var]
        # the old rule: the first of the smallest, by counting values
        size = {i: len(list(_finite_values(get_domain(items[i]))))
                for i in free}
        start = rng.randint(0, free[0] if free else len(items))
        picked = _pick(items, start, True)
        if not free:
            assert picked is None
            continue
        best = min(free, key=lambda i: (size[i], i))
        assert picked == (items[best], free[0])


def test_first_fail_over_two_value_domains_is_linear():
    """Every pick stops at the first free variable, whose domain has the
    least size; over wider domains a pick still scans every free one."""
    def cpu(method):
        e = make_engine()
        t = time.process_time()
        assert e.once("length(L, 3000), L :: 0..1, labeling(%s, L)"
                      % method) is not None
        return time.process_time() - t

    # best of two each, against the machine's own drift
    assert min(cpu("first_fail") for _ in range(2)) < \
        3 * min(cpu("input_order") for _ in range(2))
