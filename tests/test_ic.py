"""Interval domains and the linear constraint solver."""

import gc
import math
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from clpkernel import ic, make_engine
from clpkernel.attvar import get_attr, init_attr
from clpkernel.errors import (DomainError, EngineError, InstantiationError,
                              RangeError, TypeError_, UncertaintyError,
                              UnsupportedError)
from clpkernel.ic import (Domain, ensure_domain, exclude_value, format_domain,
                          get_domain, impose_integrality, impose_max,
                          impose_min)
from clpkernel.linear import normalize_relation
from clpkernel.susp import EXECUTED, SCHEDULED, SUSPENDED
from clpkernel.terms import (Atom, Breal, Struct, Var, deref, mk_list,
                             proper_list)

from brute import feasible_points

ROOT = Path(__file__).resolve().parent.parent


def hx(s):
    return float.fromhex(s)


# ----------------------------------------------------------------------
# the domain record itself

def test_format_domain_texts():
    assert format_domain(Domain(1, 5, integral=True)) == "{1..5}"
    assert format_domain(Domain(3, 3, integral=True)) == "{3..3}"
    assert format_domain(Domain(0.5, 2.5)) == "{0.5..2.5}"
    assert format_domain(Domain(-math.inf, math.inf)) == "{-1.0Inf..1.0Inf}"
    # holes split an integer domain into segments
    assert (format_domain(Domain(1, 10, integral=True, holes=frozenset({4})))
            == "{[1..3, 5..10]}")
    assert (format_domain(Domain(2, 9, integral=True,
                                 holes=frozenset({3, 4, 7})))
            == "{[2, 5..6, 8..9]}")


def test_format_domain_walks_holes():
    # adjacent holes leave no empty run between them
    assert (format_domain(Domain(1, 10, integral=True,
                                 holes=frozenset({4, 5, 6})))
            == "{[1..3, 7..10]}")
    # holes next to the bounds leave single values at the ends
    assert (format_domain(Domain(1, 10, integral=True,
                                 holes=frozenset({2, 9})))
            == "{[1, 3..8, 10]}")
    assert (format_domain(Domain(1, 3, integral=True, holes=frozenset({2})))
            == "{[1, 3]}")
    # every other value gone
    assert (format_domain(Domain(0, 20, integral=True,
                                 holes=frozenset(range(1, 20, 2))))
            == "{[%s]}" % ", ".join(str(v) for v in range(0, 21, 2)))


def _scanned_domain_text(lo, hi, holes):
    """The domain text found by scanning every value of lo..hi."""
    runs = []
    for v in range(lo, hi + 1):
        if v in holes:
            continue
        if runs and runs[-1][1] == v - 1:
            runs[-1][1] = v
        else:
            runs.append([v, v])
    return "{[%s]}" % ", ".join(str(a) if a == b else "%d..%d" % (a, b)
                                for a, b in runs)


def test_format_domain_matches_a_scan_on_random_domains():
    rng = Random(3)
    for _ in range(300):
        lo = rng.randint(-5, 5)
        hi = lo + rng.randint(2, 25)
        holes = frozenset(rng.sample(range(lo + 1, hi),
                                     rng.randint(1, hi - lo - 1)))
        d = Domain(lo, hi, integral=True, holes=holes)
        assert format_domain(d) == _scanned_domain_text(lo, hi, holes)


def test_impose_min_integral_rounds_up():
    e = make_engine()
    x = Var()
    d = ensure_domain(e, x)
    assert impose_integrality(e, x)
    assert impose_min(e, x, Fraction(7, 2))
    assert d.lo == 4
    assert impose_max(e, x, 9.2)
    assert d.hi == 9
    # tightening past the other end fails without touching the domain
    assert not impose_min(e, x, 10)
    assert (d.lo, d.hi) == (4, 9)


def test_impose_bounds_skip_holes():
    e = make_engine()
    x = Var()
    d = ensure_domain(e, x)
    impose_integrality(e, x)
    impose_min(e, x, 1)
    impose_max(e, x, 9)
    assert exclude_value(e, x, 7)
    assert d.holes == frozenset({7})
    # floor(7.5) = 7 sits in a hole, so the bound slides to 6
    assert impose_max(e, x, Fraction(15, 2))
    assert d.hi == 6
    assert d.holes == frozenset()


def test_continuous_bounds_round_outward():
    e = make_engine()
    x = Var()
    d = ensure_domain(e, x)
    assert impose_min(e, x, Fraction(1, 3))
    assert d.lo == hx("0x1.5555555555555p-2")
    y = Var()
    dy = ensure_domain(e, y)
    assert impose_max(e, y, Fraction(1, 3))
    assert dy.hi == hx("0x1.5555555555556p-2")
    # both floats bracket the exact rational
    assert d.lo < Fraction(1, 3) < dy.hi


def test_a_bound_that_rounds_back_changes_and_wakes_nothing():
    # 1/3 lies above the stored bound but rounds down onto it again: a
    # demon that woke on such a non-change could wake itself forever
    e = make_engine()
    x = Var()
    d = ensure_domain(e, x)
    assert impose_min(e, x, Fraction(1, 3))
    s = e.make_suspension(Struct("true", []), 3)
    e.attach_to_list(s, d, "w_min")
    e.attach_suspension(s, x, "constrained")
    e.store.push_choicepoint()
    trail = len(e.store.trail)
    assert impose_min(e, x, Fraction(1, 3))
    assert len(e.store.trail) == trail
    assert s.state == "suspended"


def test_exclude_value_variants():
    e = make_engine()
    x = Var()
    ensure_domain(e, x)
    impose_integrality(e, x)
    impose_min(e, x, 1)
    impose_max(e, x, 9)
    d = get_domain(x)
    assert exclude_value(e, x, 5)
    assert d.holes == frozenset({5})
    # excluding an endpoint moves the bound instead of punching a hole
    assert exclude_value(e, x, 1)
    assert d.lo == 2
    assert exclude_value(e, x, 9)
    assert d.hi == 8
    # values that cannot be in an integer domain anyway are no-ops
    assert exclude_value(e, x, 20)
    assert exclude_value(e, x, 2.5)
    assert exclude_value(e, x, math.inf)
    assert d.holes == frozenset({5})


def test_exclude_from_continuous_raises():
    e = make_engine()
    x = Var()
    ensure_domain(e, x)
    with pytest.raises(TypeError_):
        exclude_value(e, x, 1)


def test_singleton_domain_instantiates():
    e = make_engine()
    x = Var()
    ensure_domain(e, x)
    impose_integrality(e, x)
    impose_min(e, x, 3)
    assert isinstance(deref(x), Var)
    impose_max(e, x, 3)
    assert deref(x) == 3
    # with the variable gone, further imposes test the value
    assert impose_min(e, x, 2)
    assert not impose_min(e, x, 4)
    assert not exclude_value(e, x, 3)
    assert exclude_value(e, x, 7)


# ----------------------------------------------------------------------
# every domain change against a model of the value set

class _Model:
    """The values of a domain: the ints of a finite set when integral,
    else the reals of lo..hi (exact halves, so the float bounds are too)."""

    def __init__(self, integral, lo, hi, ints):
        self.integral, self.lo, self.hi, self.ints = integral, lo, hi, ints

    @staticmethod
    def real(lo, hi):
        if lo > hi:
            return None
        return _Model(False, lo, hi,
                      frozenset(range(math.ceil(lo), math.floor(hi) + 1)))

    @staticmethod
    def of_ints(values):
        values = frozenset(values)
        if not values:
            return None
        return _Model(True, min(values), max(values), values)

    def single(self):
        return self.lo == self.hi


def _model_step(m, op, arg):
    """The model after one operation, or None when it empties."""
    if op == "min":
        if m.integral:
            return _Model.of_ints(v for v in m.ints if v >= arg)
        return _Model.real(max(m.lo, arg), m.hi)
    if op == "max":
        if m.integral:
            return _Model.of_ints(v for v in m.ints if v <= arg)
        return _Model.real(m.lo, min(m.hi, arg))
    if op == "exclude":
        return _Model.of_ints(m.ints - {arg})
    if op == "list":
        return _Model.of_ints(m.ints & set(arg))
    if op == "integral":
        return _Model.of_ints(m.ints)
    if op == "range":
        lo, hi = arg
        if type(lo) is int and type(hi) is int:
            m = _Model.of_ints(m.ints)
        m = _model_step(m, "min", lo)
        return m and _model_step(m, "max", hi)
    if op == "fresh":
        return m
    # aliasing with another model
    if not (m.integral or arg.integral):
        return _Model.real(max(m.lo, arg.lo), min(m.hi, arg.hi))
    return _Model.of_ints(m.ints & arg.ints)


def _model_events(old, new):
    """The ic lists a change from old to new wakes: all four when one
    value is left; else min and max for a moved bound, hole for a value
    of old removed strictly inside the new bounds, type for integrality."""
    if new.single():
        return {"min", "max", "hole", "type"}
    events = set()
    if new.lo > old.lo:
        events.add("min")
    if new.hi < old.hi:
        events.add("max")
    if new.integral and not old.integral:
        events.add("type")
    if new.integral and any(new.lo < v < new.hi and v not in new.ints
                            for v in old.ints):
        events.add("hole")
    return events


def _check_against_model(x, m, where):
    v = deref(x)
    if m.single():
        assert type(v) is not Var and v == m.lo, where
        return
    d = get_domain(v)
    if not m.integral:
        assert not d.integral and not d.holes, where
        assert (d.lo, d.hi) == (m.lo, m.hi), where
        return
    assert d.integral, where
    assert type(d.lo) is int and type(d.hi) is int, where
    assert all(d.lo < h < d.hi for h in d.holes), where
    assert d.lo not in d.holes and d.hi not in d.holes, where
    assert set(range(d.lo, d.hi + 1)) - d.holes == m.ints, where


def _texts(xs):
    out = []
    for x in xs:
        v = deref(x)
        if type(v) is not Var:
            out.append(v)
        else:
            d = get_domain(v)
            out.append((id(v), None if d is None else format_domain(d)))
    return out


def _random_bound(rng, integral):
    """An int, a half as a Fraction or a float, or an infinity."""
    if rng.random() < 0.1:
        return rng.choice((-math.inf, math.inf))
    b = Fraction(rng.randint(-2, 26), 2)
    if integral and rng.random() < 0.5:
        return int(b)
    return float(b) if rng.random() < 0.5 else b


def _post_model(eng, rng, v):
    """Give the variable v a random domain of two or more values; return
    its model."""
    if rng.random() < 0.3:
        lo = Fraction(rng.randint(0, 10), 2)
        hi = lo + Fraction(rng.randint(1, 12), 2)
        assert impose_min(eng, v, lo) and impose_max(eng, v, hi)
        return _Model.real(lo, hi)
    lo = rng.randint(0, 6)
    values = set(range(lo, lo + rng.randint(2, 8)))
    inside = sorted(values)[1:-1]
    holes = rng.sample(inside, rng.randint(0, min(2, len(inside))))
    if rng.random() < 0.3:  # one post of the list on the fresh variable
        values.difference_update(holes)
        assert ic.bi_domain(eng, [v, mk_list(sorted(values))], eng.main)
        return _Model.of_ints(values)
    assert impose_integrality(eng, v)
    assert impose_min(eng, v, lo) and impose_max(eng, v, max(values))
    for w in holes:
        values.discard(w)
        assert exclude_value(eng, v, w)
    return _Model.of_ints(values)


def test_every_domain_change_matches_a_model_of_its_values():
    """Random sequences of impose_min, impose_max, exclude_value, X :: [...],
    X :: Lo..Hi, impose_integrality and aliasing over small domains, with
    infinite bounds among the bounds, and aliasing with variables that
    have no domain, older and younger than x.  After each step
    the domain holds the model's values in its normal form, and probes on
    ic:min, ic:max, ic:hole and ic:type fire exactly for the events the
    model saw.  Backtracking over the steps restores every domain text."""
    rng = Random(20261018)
    lists = {"min": "w_min", "max": "w_max", "hole": "w_hole",
             "type": "w_type"}
    for trial in range(300):
        eng = make_engine()
        fired = set()

        def probe(engine, args, module, fired=fired):
            fired.add(deref(args[0]).name)
            return True

        eng.add_builtin(eng.main, "probe", 1, probe).demon = True
        # the older variable survives aliasing: spares on both sides of x
        older = [Var(), Var(), Var()]
        x = Var()
        spares = older[:2] + [Var(), Var()]
        fresh = [older[2], Var()]
        every = [x] + spares + fresh
        m = _post_model(eng, rng, x)
        d = get_domain(x)
        for event, slot in lists.items():
            s = eng.make_suspension(Struct("probe", [Atom(event)]), 3)
            eng.attach_to_list(s, d, slot)
        marks = []
        where = ["trial %d" % trial]
        for _step in range(rng.randint(1, 8)):
            marks.append((eng.store.push_choicepoint(), _texts(every)))
            ops = ["min", "max", "list", "integral", "range"]
            if m.integral:
                ops.append("exclude")
            if spares:
                ops.append("alias")
            if fresh:
                ops.append("fresh")
            op = rng.choice(ops)
            if op == "min":
                arg = _random_bound(rng, m.integral)
                ok = impose_min(eng, x, arg)
            elif op == "max":
                arg = _random_bound(rng, m.integral)
                ok = impose_max(eng, x, arg)
            elif op == "exclude":
                arg = rng.randint(-1, 13)
                ok = exclude_value(eng, x, arg)
            elif op == "list":
                arg = sorted(rng.sample(range(-1, 14), rng.randint(1, 6)))
                ok = ic.bi_domain(eng, [x, mk_list(arg)], eng.main)
            elif op == "integral":
                arg = None
                ok = impose_integrality(eng, x)
            elif op == "range":
                arg = (_random_bound(rng, rng.random() < 0.5),
                       _random_bound(rng, rng.random() < 0.5))
                ok = ic.bi_domain(eng, [x, Struct("..", list(arg))], eng.main)
            elif op == "fresh":
                arg = None
                ok = eng.store.unify(x, fresh.pop(rng.randrange(len(fresh))))
            else:
                y = spares.pop(rng.randrange(len(spares)))
                arg = _post_model(eng, rng, y)
                ok = eng.store.unify(x, y)
            where.append((op, arg if op != "alias" else
                          (arg.integral, arg.lo, arg.hi, sorted(arg.ints))))
            new = _model_step(m, op, arg)
            if new is None:
                assert not ok, where
                break
            assert ok and eng.drain(), where
            _check_against_model(x, new, where)
            assert fired == _model_events(m, new), where
            fired.clear()
            m = new
            if m.single():
                break
        for mark, texts in reversed(marks):
            eng.store.drop_to(mark)
            assert _texts(every) == texts, where


# ----------------------------------------------------------------------
# posting domains from goals

def test_domain_posting_display(first, fmt):
    a = first("X :: 1..5")
    assert fmt(a["X"]) == "_{1..5}"
    b = first("X :: [1, 3, 5, 6]")
    assert fmt(b["X"]) == "_{[1, 3, 5..6]}"
    c = first("X :: 0.5..2.5")
    assert fmt(c["X"]) == "_{0.5..2.5}"


def test_breal_endpoints_widen_the_domain(first, fmt):
    a = first("X :: 0.99__1.01..2.0")
    assert fmt(a["X"]) == "_{0.99..2.0}"


def test_domain_posting_over_lists_and_arrays(engine, first):
    a = first("[X, Y] :: 1..3")
    for n in "XY":
        d = get_domain(deref(a[n]))
        assert (d.lo, d.hi, d.integral) == (1, 3, True)
    b = first("dim(M, [2]), M :: 1..4")
    m = deref(b["M"])
    assert m.name == "[]" and m.arity == 2
    for cell in m.args:
        d = get_domain(deref(cell))
        assert (d.lo, d.hi) == (1, 4)


def test_enumerated_domain_updates_holes_once(engine, monkeypatch):
    calls = Counter()

    def counted(*args, _fn=ic._update):
        calls["_update"] += 1
        return _fn(*args)
    monkeypatch.setattr(ic, "_update", counted)
    store = engine.store
    x = Var()  # older than the choicepoint, so attaching is trailed
    store.push_choicepoint()
    trail_before = len(store.trail)
    assert ic.bi_domain(engine, [x, mk_list([1, 20000])], engine.main)
    # the attach, and no entry per missing value
    assert len(store.trail) - trail_before == 1
    assert calls["_update"] == 1
    assert format_domain(get_domain(x)) == "{[1, 20000]}"
    assert len(get_domain(x).holes) == 19998


@pytest.mark.parametrize("goal, text", [
    ("length(L, 20000), (true ; true), L :: 0..1000000", "_{0..1000000}"),
    ("length(L, 20000), (true ; true), L :: [1, 5, 9]", "_{[1, 5, 9]}")],
    ids=["interval", "enumerated"])
def test_a_fresh_domain_costs_one_trail_entry(engine, goal, text):
    """A variable without a domain gets one born with its bounds, type and
    holes: attaching it is the variable's only trail entry.  The
    disjunction leaves a choicepoint younger than the variables, so each
    attach is trailed."""
    goal, names = engine.parse_goal(goal)
    sols = engine.solutions(goal)
    next(sols)
    assert len(engine.store.trail) <= 20002
    items = proper_list(names["L"])
    assert len(items) == 20000
    assert {engine.format_term(v) for v in items} == {text}
    sols.close()


def test_a_domain_per_variable_stays_small(engine):
    """Each variable of ``length(L, 20000), (true ; true), L ::
    0..1000000`` costs under 750 bytes, its domain, variable and trail
    entry included (1,065 with a stamp dict on each)."""
    goal, _ = engine.parse_goal(
        "length(L, 20000), (true ; true), L :: 0..1000000")
    gc.collect()
    tracemalloc.start()
    try:
        sols = engine.solutions(goal)
        next(sols)
        used, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    sols.close()
    assert used / 20000 < 750


def test_a_list_of_fixed_length_leaves_no_choicepoint(engine):
    """length/2 with an integer length is deterministic, so the list's
    variables are younger than the top choicepoint and their new domains
    are not trailed: ``length(L, 20000), L :: 0..1000000`` leaves the
    choicepoints of ``true`` and two bind entries (20,002 entries when
    length/2 left a choicepoint)."""
    sols = engine.solutions(engine.parse_goal("true")[0])
    next(sols)
    base = len(engine.store.choicepoints)
    sols.close()
    goal, _ = engine.parse_goal("length(L, 20000), L :: 0..1000000")
    sols = engine.solutions(goal)
    next(sols)
    assert len(engine.store.choicepoints) == base
    assert [e[0] for e in engine.store.trail] == ["bind", "bind"]
    sols.close()


def test_a_deterministic_loop_of_posts_leaves_no_value_entry(engine):
    """Each step's owners are made after the youngest choicepoint, so
    none of their writes is trailed: ``loop(20000)`` leaves no ``val``
    entry and under 100 entries in all (it left 100,000 ``val`` and
    20,000 ``undo`` entries with an undo closure per suspension)."""
    engine.load("loop(0) :- !.\n"
                "loop(N) :- X :: 1..10, Y :: 1..10, X #\\= Y, X = 5, Y = 6,"
                " N1 is N - 1, loop(N1).\n")
    goal, _ = engine.parse_goal("loop(20000)")
    sols = engine.solutions(goal)
    next(sols)
    trail = engine.store.trail
    assert not [e for e in trail if e[0] == "val"]
    assert len(trail) < 100
    sols.close()


def test_an_enumerated_domain_past_the_span_bound_raises_at_once(engine):
    """The span an enumerated domain leaves within its bounds is bounded,
    so a list with a 5001-digit integer raises `RangeError` before it
    makes a hole, and a list spanning three million values answers."""
    start = time.process_time()
    with pytest.raises(RangeError):
        engine.once("X :: [1, %s]" % ("9" * 5001))
    assert time.process_time() - start < 1.0
    got = engine.once("X :: [1, 3000000], get_bounds(X, L, H)")
    assert (got["L"], got["H"]) == (1, 3000000)
    assert engine.once("X :: 0..10, X :: [1, %s]" % ("9" * 5001)) is not None


def test_infinite_bounds_make_a_domain(first, fmt):
    a = first("X :: -1.0Inf..1.0Inf")
    assert fmt(a["X"]) == "_{-1.0Inf..1.0Inf}"
    b = first("impose_min(X, -1.0Inf), get_bounds(X, L, H)")
    assert (b["L"], b["H"]) == (-math.inf, math.inf)
    c = first("impose_max(X, 1.0Inf), X :: -1.0Inf..5")
    assert fmt(c["X"]) == "_{-1.0Inf..5.0}"
    assert first("impose_min(X, 1.0Inf)") is None
    assert first("impose_max(X, -1.0Inf)") is None


@pytest.mark.parametrize("goal, wakes", [
    ("X :: 1..5", True), ("impose_integrality(X)", True),
    ("X :: [2, 4]", True), ("impose_max(X, 3)", True),
    ("X :: -1.0Inf..1.0Inf", False), ("impose_min(X, -1.0Inf)", False)])
def test_a_fresh_domain_wakes_the_constrained_list(engine, goal, wakes):
    """A variable's first domain wakes its constrained list exactly when
    the domain says more than -1.0Inf..1.0Inf."""
    calls = []
    engine.add_builtin(engine.main, "probe", 0,
                       lambda e, args, module: calls.append(1) or True)
    assert engine.once("suspend(probe, 3, X -> constrained), " + goal)
    assert bool(calls) == wakes


def test_enumerated_domain_within_a_narrower_one(ask, first, fmt):
    assert fmt(first("X :: 0..5, X :: [1, 3, 7]")["X"]) == "_{[1, 3]}"
    # the bounds move past values the list leaves out
    assert first("X :: 2..5, X :: [1, 3, 7]")["X"] == 3
    assert fmt(first("X :: 2..6, X :: [1, 3, 4, 6, 9]")["X"]) == "_{[3..4, 6]}"
    assert ask("X :: 4..6, X :: [1, 3, 7]") == []
    # on a number the list is a membership test
    assert len(ask("3 :: [1, 3, 7]")) == 1
    assert ask("2 :: [1, 3, 7]") == []


def test_singleton_range_binds_immediately(first):
    a = first("X :: 3..3")
    assert a["X"] == 3


# ----------------------------------------------------------------------
# arithmetic relations

def test_relations_narrow_bounds(first, fmt):
    assert fmt(first("X :: 1..9, X #>= 5")["X"]) == "_{5..9}"
    assert fmt(first("X :: 1..5, X #> 3")["X"]) == "_{4..5}"
    assert fmt(first("X :: 1..5, X #< 3")["X"]) == "_{1..2}"
    assert fmt(first("X :: 1..5, X #=< 2")["X"]) == "_{1..2}"


def test_relations_impose_integrality(first, fmt):
    a = first("X :: 0.0..3.5, X #=< 9")
    assert fmt(a["X"]) == "_{0..3}"


def test_single_variable_constraint_needs_no_suspension(first, fmt):
    a = first("X :: 1..5, X #>= 3")
    assert fmt(a["X"]) == "_{3..5}"
    assert a.delayed == []


def test_eq_propagates_both_ways(first, fmt):
    a = first("X :: 0..10, Y :: 0..10, X + Y #= 4")
    assert fmt(a["X"]) == "_{0..4}"
    assert fmt(a["Y"]) == "_{0..4}"
    assert a.delayed == ["_{0..4} + _{0..4} + -4 #= 0"]


def test_eq_with_coefficients(first, fmt):
    # 2X + 3Y = 6 over 0..10 squeezes to X =< 3, Y =< 2
    a = first("X :: 0..10, Y :: 0..10, 2 * X + 3 * Y #= 6")
    assert fmt(a["X"]) == "_{0..3}"
    assert fmt(a["Y"]) == "_{0..2}"


def test_rational_coefficients_keep_exact_fractions(engine, fmt):
    goal, varmap = engine.parse_goal("X :: 0..10, Y :: 0..10, X/2 + Y #= 3")
    for _ in engine.solutions(goal):
        assert fmt(varmap["X"]) == "_{0..6}"
        assert fmt(varmap["Y"]) == "_{0..3}"
        [s] = engine.pending()
        rel, const, pairs = s.payload
        assert s.run is ic._propagate_bounds
        assert rel == "="
        assert const == -3 and type(const) is int
        assert [c for c, _ in pairs] == [Fraction(1, 2), 1]
        assert type(pairs[1][0]) is int
        break
    else:
        pytest.fail("X/2 + Y #= 3 failed")
    sols = [(a["X"], a["Y"])
            for a in engine.ask("X :: 0..10, Y :: 0..10, X/2 + Y #= 3, "
                                "labeling([X, Y])")]
    assert sols == [(0, 3), (2, 2), (4, 1), (6, 0)]


def test_integer_constraint_rounds_a_continuous_bound_outward(first):
    # 3X - 1 =< 0 with integer coefficients over a continuous X: the
    # bound 1/3 is rounded up to the next float, never floored to 0
    third_up = hx("0x1.5555555555556p-2")
    a = first("X :: 0.0..1.0, ic_lin_con(=<, -1, [3*X]), get_max(X, H)")
    assert a["H"] == third_up
    assert Fraction(a["H"]) > Fraction(1, 3)
    assert isinstance(get_domain(a["X"]).hi, float)
    # the same bound from the propagator, with an integral partner
    b = first("X :: 0.0..1.0, Y :: 0..5, ic_lin_con(=<, -1, [3*X, 3*Y]), "
              "get_max(X, H)")
    assert b["H"] == third_up
    assert b["Y"] == 0


@pytest.mark.parametrize("goal, error", [
    ("ic_lin_con(a, foo, [X])", DomainError),
    ('ic_lin_con(a, "str", 1)', DomainError),
    ("ic_lin_con(a, 0, [X, Y])", DomainError),
    ("ic_lin_con(foo, 0, [1*X])", DomainError),
    ("ic_lin_con(R, 0, [1*X])", InstantiationError),
    ('ic_lin_con("=<", 0, [1*X])', TypeError_),
    ("ic_lin_con(=<, foo, [X])", TypeError_),
    ('ic_lin_con(=<, "str", 1)', TypeError_),
    ("ic_lin_con(=<, 1.0__2.0, [1*X])", TypeError_),
    ("ic_lin_con(=<, C, [1*X])", InstantiationError),
    ("ic_lin_con(=<, 0, 1)", TypeError_),
    ("ic_lin_con(=<, 0, [1*X|T])", InstantiationError),
    ("ic_lin_con(=<, 0, [X, Y])", InstantiationError),
    ("ic_lin_con(=<, 0, [f(1, 2, 3)])", TypeError_),
    ("ic_lin_con(=<, 0, [a*X])", TypeError_),
    ("ic_lin_con(=<, 0, [C*X])", InstantiationError),
])
def test_ic_lin_con_checks_its_arguments(ask, goal, error):
    """A direct call of the demon's predicate with a bad relation,
    constant, list or item raises the matching EngineError."""
    with pytest.raises(error):
        ask(goal)


def test_neq_punches_holes_until_instantiation(first, fmt):
    a = first("X :: 1..5, X #\\= 3")
    assert fmt(a["X"]) == "_{[1..2, 4..5]}"
    b = first("X :: 1..3, X #\\= 2, X #\\= 1")
    assert b["X"] == 3


def test_neq_on_a_continuous_variable_stays_delayed(ask, first):
    # no hole can be punched in a continuous domain: the constraint waits
    a = first("X :: 0.0..1.0, Y :: 0..1, ic_lin_con(\\=, 0, [1*X, 1*Y]), "
              "Y = 0")
    assert a["Y"] == 0
    assert len(a.delayed) == 1
    b = first("X :: 0.0..1.0, ic_lin_con(\\=, 0, [2*X])")
    assert len(b.delayed) == 1
    # and decides once the variable is bound
    assert ask("X :: 0.0..1.0, ic_lin_con(\\=, 0, [2*X]), X = 0.0") == []
    assert ask("X :: 0.0..1.0, Y :: 0..1, ic_lin_con(\\=, 0, [1*X, 1*Y]), "
               "Y = 0, X = 0") == []
    c = first("X :: 0.0..1.0, ic_lin_con(\\=, 0, [2*X]), X = 0.5")
    assert c is not None and c.delayed == []
    # a continuous domain that is only the excluded point fails at once
    e = make_engine()
    x = Var()
    init_attr(x, "ic", Domain(0.5, 0.5))
    for const, ok in [(Fraction(-1, 2), False), (Fraction(-1, 4), True)]:
        s = e.make_suspension(ic._lin_goal, ic.LIN_PRIORITY,
                              run=ic._propagate_neq)
        s.payload = ("\\=", const, [(1, x)])
        assert ic._propagate_neq(e, s, e.main) is ok
        assert s.state == SUSPENDED



def test_neq_punches_its_hole_once_the_domain_becomes_integral(first, fmt):
    # the constraint waits on the type list too, not only on binding
    a = first("X :: 0.0..3.0, ic_lin_con(\\=, -1, [1*X]), "
              "impose_integrality(X)")
    assert fmt(a["X"]) == "_{[0, 2..3]}"
    assert a.delayed == []
    b = first("X :: 0.0..1.0, Y :: 0..1, ic_lin_con(\\=, 0, [1*X, 1*Y]), "
              "Y = 0, impose_integrality(X)")
    assert b["X"] == 1 and b.delayed == []


@pytest.mark.parametrize("rel, word", [
    ("=<", "inequality"), ("=", "equality"), ("\\=", "disequality")])
def test_a_ground_constraint_over_a_straddling_breal_is_undecidable(
        engine, rel, word):
    # -0.5 + 0.4__0.6 lies in -0.1..0.1, which holds 0 and points either side
    with pytest.raises(UncertaintyError,
                       match="^cannot decide %s over bounded reals$" % word):
        engine.once("ic_lin_con(%s, -0.5, [1*0.4__0.6])" % rel)


@pytest.mark.parametrize("goal, holds", [
    ("ic_lin_con(=<, 0, [1*0.4__0.6])", False),
    ("ic_lin_con(=, 0, [1*0.4__0.6])", False),
    ("ic_lin_con(\\=, 0, [1*0.4__0.6])", True),
    ("ic_lin_con(=<, -1, [1*0.4__0.6])", True),
])
def test_a_ground_constraint_over_a_breal_off_zero_is_decided(
        ask, goal, holds):
    got = ask(goal)
    assert len(got) == holds
    assert all(a.delayed == [] for a in got)


def test_a_disequality_decides_a_bound_breal_once_nothing_is_free(
        ask, engine):
    # the run that sees the breal has no variable left: it decides on the
    # interval of the sum, or cannot
    post = "X :: -1.0..1.0, ic_lin_con(\\=, 0, [1*X, 1*Y]), Y = 0"
    [a] = ask(post + ", X = 0.4__0.6")
    assert a.delayed == []
    with pytest.raises(UncertaintyError,
                       match="^cannot decide disequality over bounded reals$"):
        engine.once(post + ", X = -0.1__0.1")

@pytest.mark.parametrize("query", [
    "X :: 1..3, Y :: 1..3, X #\\= Y, X = Y",
    "X #\\= Y, X = Y",
    "X + 1 #\\= Y + 1, X = Y",
    "alldifferent([X, Y]), X = Y",
])
def test_disequality_wakes_on_aliasing(ask, query):
    assert ask(query) == []


def test_aliasing_sums_the_coefficients_of_a_disequality(first, fmt):
    a = first("[X, Y] :: 1..3, X #\\= Y + 1, X = Y")
    assert a["X"] is a["Y"] and a.delayed == []
    b = first("[X, Y, Z] :: 0..5, X + Y + Z #\\= 4, X = Y, Z = 2")
    assert fmt(b["X"]) == "_{[0, 2..5]}" and b.delayed == []
    c = first("[X, Y] :: 0..5, 2 * X #\\= Y + 1, X = Y")
    assert fmt(c["X"]) == "_{[0, 2..5]}" and c.delayed == []


def test_aliasing_keeps_a_hole_at_the_merged_bound(ask, first, fmt):
    a = first("X :: 2..3, Y :: 2..5, Y #\\= 3, X = Y")
    assert a["X"] == 2
    assert ask("X :: 2..3, Y :: 2..5, Y #\\= 3, X = Y, X = 3") == []


def test_entailed_constraint_leaves_nothing_delayed(first):
    a = first("X :: 0..10, Y :: 0..10, X + Y #=< 100")
    assert a.delayed == []


def test_unsatisfiable_relation_fails(ask):
    assert ask("X :: 1..3, X #> 5") == []
    assert ask("X :: 1..2, Y :: 1..2, X + Y #= 9") == []


def test_nonlinear_terms_are_rejected(engine):
    with pytest.raises(UnsupportedError):
        engine.once("X :: 1..5, Y :: 1..5, X * Y #= 6")


# ----------------------------------------------------------------------
# linearization

#: relation -> (rel, sign, extra): ``L name R`` means
#: ``sign * (L - R) + extra  rel  0``
_REL_MEANING = {"#=": ("=", 1, 0), "#\\=": ("\\=", 1, 0),
                "#=<": ("=<", 1, 0), "#>=": ("=<", -1, 0),
                "#<": ("=<", 1, 1), "#>": ("=<", -1, 1)}


def _random_linear_tree(rng, xs, depth):
    """A random linear term over xs: sums, differences, negations, and
    products and quotients by int or Fraction constants; variables repeat,
    and ``E - E`` subterms cancel."""
    r = rng.random()
    if depth == 0 or r < 0.2:
        if rng.random() < 0.6:
            return rng.choice(xs)
        if rng.random() < 0.7:
            return rng.randint(-5, 5)
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    sub = _random_linear_tree(rng, xs, depth - 1)
    if r < 0.35:
        return Struct(rng.choice("+-"), [sub])
    if r < 0.5:
        return Struct("-", [sub, sub])  # cancels
    if r < 0.65:
        k = rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-3, 3), 2)])
        return Struct("*", [k, sub] if rng.random() < 0.5 else [sub, k])
    if r < 0.75:
        k = rng.choice([rng.choice([-3, -2, -1, 1, 2, 3]),
                        Fraction(rng.choice([-3, -1, 1, 5]), 2)])
        return Struct("/", [sub, k])
    return Struct(rng.choice("+-"),
                  [sub, _random_linear_tree(rng, xs, depth - 1)])


def _tree_value(t, point):
    """The exact value of a linear tree with each variable at point[id]."""
    t = deref(t)
    if type(t) is Var:
        return point[id(t)]
    if type(t) is not Struct:
        return Fraction(t)
    vals = [_tree_value(a, point) for a in t.args]
    if len(vals) == 1:
        return -vals[0] if t.name == "-" else vals[0]
    a, b = vals
    if t.name == "+":
        return a + b
    if t.name == "-":
        return a - b
    return a * b if t.name == "*" else a / b


def _first_occurrences(t, out):
    t = deref(t)
    if type(t) is Var:
        if all(v is not t for v in out):
            out.append(t)
    elif type(t) is Struct:
        for a in t.args:
            _first_occurrences(a, out)
    return out


def _is_canonical(q):
    return type(q) is int or (type(q) is Fraction and q.denominator != 1)


def test_linearization_matches_the_value_of_random_trees():
    """const + sum(c * v) is sign * (L - R) + extra at random integer
    points; the pairs are the variables with a nonzero coefficient, in
    the order of first occurrence in L then R; integral numbers are
    ints."""
    rng = Random(20261019)
    for _ in range(400):
        xs = [Var() for _i in range(rng.randint(1, 4))]
        lhs = _random_linear_tree(rng, xs, rng.randint(0, 5))
        rhs = _random_linear_tree(rng, xs, rng.randint(0, 3))
        relname = rng.choice(sorted(_REL_MEANING))
        want_rel, sign, extra = _REL_MEANING[relname]
        rel, const, pairs = normalize_relation(relname, lhs, rhs)
        assert rel == want_rel

        def value(point):
            return sign * (_tree_value(lhs, point)
                           - _tree_value(rhs, point)) + extra

        zero = {id(v): 0 for v in xs}
        assert const == value(zero)
        coeff = {}
        for v in xs:
            unit = dict(zero)
            unit[id(v)] = 1
            coeff[id(v)] = value(unit) - const
        order = _first_occurrences(rhs, _first_occurrences(lhs, []))
        assert [v for _, v in pairs] == [v for v in order if coeff[id(v)]]
        assert all(c == coeff[id(v)] and c != 0 for c, v in pairs)
        assert _is_canonical(const) and all(_is_canonical(c)
                                            for c, _ in pairs)
        for _p in range(3):
            point = {id(v): rng.randint(-9, 9) for v in xs}
            assert const + sum(c * point[id(v)] for c, v in pairs) \
                == value(point)


_X, _Y = Var(), Var()


@pytest.mark.parametrize("term, error", [
    (Struct("*", [_X, _Y]), UnsupportedError),
    (Struct("*", [Struct("-", [_X, _X]), _Y]), UnsupportedError),
    (Struct("/", [_X, _Y]), UnsupportedError),
    (Struct("/", [_X, 0]), UnsupportedError),
    (Struct("/", [_X, Struct("-", [2, 2])]), UnsupportedError),
    (Struct("+", [_X, math.inf]), DomainError),
    (Struct("*", [_X, -math.inf]), DomainError),
    (Struct("-", [_X, math.nan]), DomainError),
    (Struct("+", [_X, Breal(1.0, 2.0)]), UnsupportedError),
    (Struct("+", [_X, Atom("foo")]), TypeError_),
    (Struct("+", [_X, Struct("f", [1])]), UnsupportedError),
])
def test_linearization_errors(term, error):
    with pytest.raises(error):
        normalize_relation("#=", term, 0)
    with pytest.raises(error):
        normalize_relation("#=", 1, term)


def test_linearization_of_general_products_and_quotients():
    x, y = Var(), Var()
    # a product or quotient whose number is itself a term
    assert normalize_relation("#=", Struct("*", [Struct("+", [1, 1]), x]),
                              Struct("/", [y, Struct("-", [5, 3])])) \
        == ("=", 0, [(2, x), (Fraction(-1, 2), y)])
    assert normalize_relation("#=<", Struct("*", [x, 2.5]), 1.5) \
        == ("=<", Fraction(-3, 2), [(Fraction(5, 2), x)])
    # subscripts are evaluated
    arr = Struct("[]", [x, y])
    assert normalize_relation(
        "#>=", Struct("subscript", [arr, mk_list([2])]), 3) \
        == ("=<", 3, [(-1, y)])


def test_linearization_of_long_sums():
    xs = [Var() for _ in range(100000)]
    left = xs[0]
    for x in xs[1:]:
        left = Struct("+", [left, x])
    rel, const, pairs = normalize_relation("#=", left, 7)
    assert (rel, const, len(pairs)) == ("=", -7, len(xs))
    assert all(c == 1 and v is x for (c, v), x in zip(pairs, xs))
    right = 0
    for x in reversed(xs):
        right = Struct("-", [x, right])
    rel, const, pairs = normalize_relation("#=", 0, right)
    assert [c for c, _ in pairs[:4]] == [-1, 1, -1, 1]
    assert all(v is x for (_, v), x in zip(pairs, xs))


def test_a_constraint_over_a_long_sum_runs(engine):
    engine.load("""
        mk(0, 0, []) :- !.
        mk(N, E+X, [X|Xs]) :- N1 is N-1, mk(N1, E, Xs).
        t(N, F) :- mk(N, E, Xs), Xs :: 0..1, E #= N, Xs = [F|_].
    """)
    a = engine.once("t(5000, F)")
    assert a["F"] == 1 and a.delayed == []
    # the answer's copy of the long sum
    a = engine.once("mk(1000, E, Xs), Xs :: 0..1, E #= 1000")
    e = a["E"]
    for _ in range(1000):
        assert e.name == "+" and e.args[1] == 1
        e = e.args[0]
    assert e == 0 and a.delayed == []


# ----------------------------------------------------------------------
# posting a linear constraint

def test_posting_makes_a_continuous_domain_integral(first, fmt):
    a = first("X :: 0.5..2.5, Y :: 0..5, X #\\= Y")
    assert fmt(a["X"]) == "_{1..2}"
    assert fmt(a["Y"]) == "_{0..5}"


def _in_first_solution(engine, text, check):
    goal, varmap = engine.parse_goal(text)
    for _ in engine.solutions(goal):
        check(varmap)
        break
    else:
        pytest.fail(text + " failed")


def test_posting_over_plain_variables_gives_integral_domains(engine):
    def check(vs):
        for name in "XY":
            d = get_domain(vs[name])
            assert d is not None and d.integral
    _in_first_solution(engine, "X #\\= Y", check)


def test_the_first_constraint_makes_the_suspend_record(engine):
    def check(vs):
        x, y, z = (deref(vs[n]) for n in "XYZ")
        assert list(x.attrs) == ["ic", "suspend"]
        rec = get_attr(x, "suspend")
        [s, t] = engine.pending()
        assert rec.bound == (s, t)
        assert get_attr(y, "suspend").bound == (s,)
        assert get_attr(z, "suspend").bound == (t,)
    _in_first_solution(engine, "X #\\= Y, X #\\= Z + 1", check)


def test_backtracking_restores_bounds(first):
    a = first("X :: 1..9, ( X #>= 5, fail ; true ), get_bounds(X, L, H)")
    assert (a["L"], a["H"]) == (1, 9)


# ----------------------------------------------------------------------
# what a domain variable may be bound to

def test_instantiation_checks_membership(ask, first):
    assert first("X :: 1..5, X = 3")["X"] == 3
    assert ask("X :: 1..5, X = 7") == []
    assert ask("X :: 1..5, X = 2.5") == []
    assert first("X :: 0.5..2.5, X = 1")["X"] == 1


def test_breal_inside_continuous_domain_is_fine(first, fmt):
    a = first("X :: 0.5..2.5, X = 0.75__1.25")
    assert fmt(a["X"]) == "0.75__1.25"


def test_breal_outside_domain_fails(ask):
    assert ask("X :: 0.5..2.5, X = 3.5__4.0") == []


def test_breal_straddling_a_bound_is_undecidable(engine):
    with pytest.raises(UncertaintyError) as e:
        engine.once("X :: 0.5..2.5, X = 2.0__3.0")
    assert "partially overlaps" in str(e.value)


def _outcome(engine, query):
    """"answer", "fail", or the class name of the EngineError raised."""
    try:
        return "fail" if engine.once(query) is None else "answer"
    except EngineError as e:
        return type(e).__name__


@pytest.mark.parametrize("goal, outcome", [
    ("3 :: 1..5", "answer"), ("3.0 :: 1.0..5.0", "answer"),
    ("2.0__3.0 :: 1.0..5.0", "answer"), ("6.0__7.0 :: 1.0..5.0", "fail"),
    ("X :: 1..5, X = 3.0", "fail"),
    # an integral set holds only ints
    ("3.0 :: 1..5", "fail"), ("1_1 :: 1..5", "fail"),
    ("3.0__3.0 :: 1..5", "fail"), ("impose_integrality(3.0)", "fail"),
    # no domain holds an infinity
    ("1.0Inf :: -1.0Inf..1.0Inf", "fail"), ("impose_min(1.0Inf, 0)", "fail"),
    ("X :: -1.0Inf..1.0Inf, X = 1.0Inf", "fail"),
    # a bounded real that straddles a continuous set is undecided
    ("0.5__1.5 :: 1.0..2.0", "UncertaintyError"),
    ("X :: 1.0..2.0, X = 0.5__1.5", "UncertaintyError"),
    ("set_var_bounds(0.5__1.5, 1, 2)", "UncertaintyError"),
    ("set_var_bounds(1.5, 1, 2)", "answer"),
    # exclude(V, Q) fails on a number that the set {Q} holds
    ("exclude(3, 3)", "fail"), ("exclude(3.0, 3)", "fail"),
    ("exclude(3.0__3.0, 3)", "fail"), ("exclude(4, 3)", "answer"),
    ("exclude(0.0__1.0, 3)", "answer"),
    ("exclude(2.0__4.0, 3)", "UncertaintyError"),
    ("ic_lin_con(\\=, -3, [1*(2.0__4.0)])", "UncertaintyError")])
def test_a_number_meets_a_domain_by_one_rule(engine, goal, outcome):
    assert _outcome(engine, goal) == outcome


#: what the order test draws.  Values: ints, floats (-0.0 and the
#: infinities among them), rationals (3_1 among them), and bounded reals
#: that are a point, or lie inside, partly over or outside the sets below
ORDER_VALUES = ["-1", "0", "3", "9", "10", "0.0", "-0.0", "3.0", "2.5",
                "1.0Inf", "-1.0Inf", "3_1", "5_2", "1_3", "3.0__3.0",
                "2.0__3.0", "0.0__0.5", "8.5__9.5", "-0.5__0.5",
                "20.0__21.0"]
ORDER_BOUNDS = ["0", "3", "9", "2.5", "3.0", "7_2", "1.0Inf", "-1.0Inf"]
ORDER_SPECS = ["1..5", "0..3", "3..12", "-1..0", "0.0..9.0", "2.5..3.5",
               "-0.5..0.25", "-1.0Inf..1.0Inf", "0..1.0Inf", "-1.0Inf..3.0",
               "[1, 3, 5]", "[0, 9, 10]"]
ORDER_PREFIXES = ["", "X :: 0..9", "X :: 0.0..9.0"]


def _draw_order_case(rng):
    """(kind, prefix, goal, value) of one query of the order test."""
    kind = rng.choice(["::", "impose_min", "impose_max",
                       "impose_integrality", "set_var_bounds", "exclude"])
    prefix = rng.choice(ORDER_PREFIXES)
    if kind == "::":
        goal = "X :: " + rng.choice(ORDER_SPECS)
    elif kind == "impose_integrality":
        goal = "impose_integrality(X)"
    elif kind == "set_var_bounds":
        # set_var_bounds/3 needs a domain; its bounds are finite, in order
        prefix = rng.choice(ORDER_PREFIXES[1:])
        lo, hi = sorted(rng.sample(ORDER_BOUNDS[:6], 2),
                        key=lambda t: Fraction(t.replace("_", "/")))
        goal = "set_var_bounds(X, %s, %s)" % (lo, hi)
    elif kind == "exclude":
        # exclude/2 needs an integer domain
        prefix = ORDER_PREFIXES[1]
        goal = "exclude(X, %s)" % rng.choice(["-1", "0", "3", "9", "3.0",
                                              "7_2"])
    else:
        goal = "%s(X, %s)" % (kind, rng.choice(ORDER_BOUNDS))
    return kind, prefix, goal, rng.choice(ORDER_VALUES)


def test_a_number_gets_the_same_answer_before_and_after_its_domain(engine):
    """``P, G, X = V`` and ``X = V, P, G`` end alike: in an answer, a
    failure or the same EngineError, for a domain goal G of each kind
    after a prefix P.  Two cases are judged apart.  A bounded real that
    straddles P's continuous set raises UncertaintyError at P when bound
    first, while the narrower set of P and G may miss it when it is bound
    last, so there neither order may answer.  And where P and G leave one
    value in a continuous set, the variable is bound to that float
    before it meets V, so no domain decides V (the xfail test below)."""
    rng = Random(33)
    kinds = Counter()
    point = 0
    for _ in range(2000):
        kind, prefix, goal, value = _draw_order_case(rng)
        narrowing = prefix + ", " + goal if prefix else goal
        before = _outcome(engine, "X = %s, %s" % (value, narrowing))
        after = _outcome(engine, "%s, X = %s" % (narrowing, value))
        case = (narrowing, value, before, after)
        narrowed = engine.once(narrowing)
        if narrowed is not None and type(narrowed["X"]) is float:
            point += 1
        elif before == "UncertaintyError" and prefix and _outcome(
                engine, "X = %s, %s" % (value, prefix)) == before:
            assert after in ("fail", "UncertaintyError"), case
        else:
            assert before == after, case
            kinds[kind] += 1
    assert len(kinds) == 6 and min(kinds.values()) >= 250, kinds
    assert point < 100


@pytest.mark.xfail(strict=True, reason="a continuous domain narrowed to one "
                   "value binds its variable to that float, which an int "
                   "or a rational of the same value does not unify with")
def test_a_continuous_domain_narrowed_to_a_point_still_admits_its_value(ask):
    assert ask("X = 0, X :: 0.0..9.0, impose_max(X, 0)") != []
    assert ask("X :: 0.0..9.0, impose_max(X, 0), X = 0") != []


def test_nested_domain_targets_are_walked_on_a_stack(engine):
    """``::`` reaches a variable under 100,000 nested lists or arrays at
    the default recursion limit."""
    assert sys.getrecursionlimit() == 1000
    engine.load("nest(0, _, Y, Y) :- !.\n"
                "nest(N, K, Y, T) :- wrap(K, T1, T), N1 is N - 1,"
                " nest(N1, K, Y, T1).\n"
                "wrap(list, T, [T]).\n"
                "wrap(array, T, A) :- A =.. ['[]', T].\n")
    for kind in ("list", "array"):
        a = engine.once("nest(100000, %s, Y, X), X :: 1..3, "
                        "get_bounds(Y, L, H)" % kind)
        assert (a["L"], a["H"]) == (1, 3), kind


def test_aliasing_merges_domains(ask, first, fmt):
    a = first("X :: 1..5, Y :: 3..8, X = Y")
    assert fmt(a["X"]) == "_{3..5}"
    assert fmt(a["Y"]) == "_{3..5}"
    assert ask("X :: 1..2, Y :: 5..6, X = Y") == []


def test_aliasing_keeps_holes_from_both_sides(first, fmt):
    a = first("X :: 1..5, X #\\= 3, Y :: 2..9, Y #\\= 7, X = Y")
    assert fmt(a["X"]) == "_{[2, 4..5]}"


# ----------------------------------------------------------------------
# alldifferent

def test_alldifferent_ground_duplicates_fail(ask):
    assert ask("alldifferent([1, 2, 1])") == []
    assert ask("X :: 1..5, alldifferent([X, X])") == []


def test_alldifferent_excludes_ground_values(first, fmt):
    a = first("X :: 1..3, alldifferent([X, 2])")
    assert fmt(a["X"]) == "_{[1, 3]}"


def test_alldifferent_reacts_to_instantiation(first, fmt):
    a = first("X :: 1..3, Y :: 1..3, alldifferent([X, Y]), X = 2")
    assert fmt(a["Y"]) == "_{[1, 3]}"


def test_alldifferent_is_not_pigeonhole_complete(ask, first):
    # forward checking alone leaves the inconsistency to the search
    a = first("X :: 1..2, Y :: 1..2, Z :: 1..2, alldifferent([X, Y, Z])")
    assert a.delayed == ["alldifferent([_{1..2}, _{1..2}, _{1..2}])"]
    assert ask("X :: 1..2, Y :: 1..2, Z :: 1..2, "
               "alldifferent([X, Y, Z]), labeling([X, Y, Z])") == []


# ----------------------------------------------------------------------
# the user-level geq/2 from the library prelude

def test_geq_propagates_and_stays_suspended(first):
    a = first("X :: 1..5, Y :: 2..6, geq(X, Y)")
    assert a.delayed == ["geq(_{2..5}, _{2..5})"]


def test_geq_dies_once_entailed(first):
    a = first("X :: 1..5, Y :: 2..6, geq(X, Y), X #>= 5")
    assert a["X"] == 5
    assert a.delayed == []


# ----------------------------------------------------------------------
# reading bounds back

def test_bounds_builtins(first):
    a = first("X :: 2..7, get_min(X, L), get_max(X, H), get_bounds(X, L2, H2)")
    assert (a["L"], a["H"]) == (2, 7)
    assert (a["L2"], a["H2"]) == (2, 7)
    # both bounds are read before either is unified, as ECLiPSe reads them
    b = first("X :: 2..7, get_bounds(X, X, H)")
    assert (b["X"], b["H"]) == (2, 7)


def test_bounds_builtins_on_numbers(first):
    # a number's bounds are its own value, of its own type; a bounded
    # real's are its endpoints
    for number, lo, hi in [("4", 4, 4), ("0.25", 0.25, 0.25),
                           ("1_3", Fraction(1, 3), Fraction(1, 3)),
                           ("0.5__1.0", 0.5, 1.0)]:
        a = first("get_bounds(%s, L, H), get_min(%s, L), get_max(%s, H)"
                  % (number, number, number))
        assert (a["L"], a["H"]) == (lo, hi), number
        assert (type(a["L"]), type(a["H"])) == (type(lo), type(hi)), number


def test_bounds_need_a_domain(engine):
    with pytest.raises(InstantiationError):
        engine.once("get_min(X, L)")


@pytest.mark.parametrize("goal", ["get_min(foo, L)",
                                  "get_var_bounds(foo, L, H)"])
def test_bounds_of_a_non_number_are_a_type_error(engine, goal):
    with pytest.raises(TypeError_):
        engine.once(goal)


def test_var_bounds_round_outward(first):
    a = first("get_var_bounds(1_10, L, H)")
    assert (a["L"], a["H"]) == (0.09999999999999999, 0.1)
    for goal in ["Y :: 0.0..1.0, geq(1_3, Y), Y = 1_3",
                 "X :: 0.0..1.0, geq(X, 1_10), X = 1_10",
                 "X :: 0.0..1.0, set_var_bounds(X, 1_10, 1), X = 1_10"]:
        assert first(goal) is not None, goal
    # a bound too large for a float is compared exactly
    b = first("X :: 0..10, set_var_bounds(X, 0, 10**400)")
    assert format_domain(get_domain(b["X"])) == "{0..10}"
    c = first("get_var_bounds(X, L, H)")
    assert (c["L"], c["H"]) == (-math.inf, math.inf)


def test_get_min_reports_rounded_continuous_bound(first):
    a = first("X :: 0.0..1.0, impose_min(X, 1_3), get_min(X, L)")
    assert a["L"] == hx("0x1.5555555555555p-2")


# ----------------------------------------------------------------------
# the bounds builtins against exact arithmetic

def _solve(*goals):
    """A new engine that has run the conjunction of the goal terms, or
    None when it fails."""
    eng = make_engine()
    goal = goals[-1]
    for g in reversed(goals[:-1]):
        goal = Struct(",", [g, goal])
    return eng if eng.run_goal_once(goal, eng.main) else None


def _exact_term(q):
    """A rational as the engine holds it: an int when integral."""
    return int(q) if q.denominator == 1 else q


def _random_number(rng, span):
    """An int, float, rational or bounded real within about -span..span."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-span, span)
    if kind == 2:
        den = rng.randint(2, 10 ** rng.randint(1, 6))
        return _exact_term(Fraction(rng.randint(-span * den, span * den), den))
    fspan = min(span, 1e300)
    if kind == 1:
        return rng.uniform(-fspan, fspan)
    return Breal(*sorted(rng.uniform(-fspan, fspan) for _ in range(2)))


def _random_domain(rng, x, span):
    """A goal that gives x a random integral or continuous domain."""
    if rng.random() < 0.5:
        lo = rng.randint(-span, span)
        hi = lo + rng.randint(1, span)
    else:
        lo = rng.uniform(-span, span)
        hi = lo + rng.uniform(0.5, span)
    return Struct("::", [x, Struct("..", [lo, hi])])


def _nearest_floats(lo_f, hi_f, lo, hi):
    """lo_f is the largest float at most lo and hi_f the smallest at least
    hi (Python compares ints, Fractions and floats exactly)."""
    assert type(lo_f) is float and type(hi_f) is float
    assert lo_f <= lo and hi <= hi_f
    assert math.nextafter(lo_f, math.inf) > lo
    assert math.nextafter(hi_f, -math.inf) < hi


def test_get_var_bounds_gives_the_nearest_enclosing_floats():
    rng = Random(7741)
    for _ in range(400):
        lo_v, hi_v = Var(), Var()
        if rng.random() < 0.6:
            t = _random_number(rng, rng.choice([10, 10 ** 20, 10 ** 400]))
            assert _solve(Struct("get_var_bounds", [t, lo_v, hi_v]))
            lo, hi = (t.lo, t.hi) if type(t) is Breal else (t, t)
        else:
            t = Var()
            post = _random_domain(rng, t, rng.choice([10, 10 ** 20]))
            q = _exact_term(Fraction(rng.randint(-10 ** 6, 10 ** 6),
                                     rng.randint(1, 999)))
            eng = _solve(post, Struct("impose_min", [t, q]),
                         Struct("get_var_bounds", [t, lo_v, hi_v]))
            if eng is None or type(deref(t)) is not Var:
                continue
            lo, hi = get_domain(t).lo, get_domain(t).hi
        _nearest_floats(deref(lo_v), deref(hi_v), lo, hi)


def test_set_var_bounds_narrows_as_impose_min_and_max():
    rng = Random(5290)
    for _ in range(300):
        lo, hi = _random_number(rng, 12), _random_number(rng, 12)
        seed = rng.random()
        x, y = Var(), Var()
        a = _solve(_random_domain(Random(seed), x, 10),
                   Struct("set_var_bounds", [x, lo, hi]))
        b = _solve(_random_domain(Random(seed), y, 10),
                   Struct("impose_min", [y, lo.lo if type(lo) is Breal
                                         else lo]),
                   Struct("impose_max", [y, hi.hi if type(hi) is Breal
                                         else hi]))
        assert (a is None) == (b is None), (lo, hi)
        if a is not None:
            assert a.format_term(x) == b.format_term(y), (lo, hi)


def _random_rational(rng, lo, hi):
    den = rng.randint(1, 60)
    return _exact_term(Fraction(rng.randint(math.ceil(lo * den),
                                            math.floor(hi * den)), den))


def test_geq_keeps_every_rational_solution():
    """geq(X, C), geq(C, X) and geq(X, Y) over domains within 0..10 keep
    every rational (integral domains: int) sample that satisfies them."""
    rng = Random(3168)
    for _ in range(120):
        integral = rng.random() < 0.3
        c = _random_rational(rng, -1, 11)
        form = rng.randrange(3)
        for _s in range(4):
            xs = rng.randint(0, 10) if integral else _random_rational(rng, 0, 10)
            if not integral and form < 2 and 0 <= c <= 10 \
                    and rng.random() < 0.5:
                xs = c  # the bound itself, which rounding must not cut
            ys = rng.randint(0, 10) if integral else _random_rational(rng, 0, 10)
            if not [xs >= c, c >= xs, xs >= ys][form]:
                continue
            x, y = Var(), Var()
            dom = Struct("..", [0, 10] if integral else [0.0, 10.0])
            args = [[x, c], [c, x], [x, y]][form]
            got = _solve(Struct("::", [x, dom]), Struct("::", [y, dom]),
                         Struct("geq", args), Struct("=", [x, xs]),
                         Struct("=", [y, ys]))
            assert got is not None, (args, xs, ys)


# ----------------------------------------------------------------------
# propagation never loses a solution

def _answer_values(ans, name):
    v = deref(ans[name])
    if isinstance(v, Var):
        d = get_domain(v)
        return set(range(d.lo, d.hi + 1)) - set(d.holes or ())
    return {v}


def test_propagation_sound_against_enumeration():
    rng = Random(20240813)
    names = ["A", "B", "C"]
    for _ in range(40):
        n = rng.randint(2, 3)
        doms = []
        for _i in range(n):
            lo = rng.randint(0, 4)
            doms.append((lo, lo + rng.randint(0, 4)))
        cons = []
        con_txt = []
        for _c in range(rng.randint(1, 2)):
            rel = rng.choice(["#=", "#=<", "#\\="])
            pairs = [(i, rng.choice([-2, -1, 1, 2]))
                     for i in range(n) if rng.random() < 0.8]
            if not pairs:
                pairs = [(0, 1)]
            k = rng.randint(-6, 6)
            txt = ""
            for i, c in pairs:
                if txt:
                    txt += " + " if c > 0 else " - "
                    txt += "%d * %s" % (abs(c), names[i])
                else:
                    txt = "%d * %s" % (c, names[i])
            txt += (" + %d" % k) if k >= 0 else (" - %d" % -k)
            con_txt.append("%s %s 0" % (txt, rel))
            cons.append(({"#=": "=", "#=<": "=<", "#\\=": "\\="}[rel],
                         k, pairs))
        query = ", ".join("%s :: %d..%d" % (names[i], lo, hi)
                          for i, (lo, hi) in enumerate(doms))
        query += ", " + ", ".join(con_txt)

        eng = make_engine()
        ans = eng.once(query)
        pts = feasible_points([set(range(lo, hi + 1)) for lo, hi in doms],
                              cons)
        if ans is None:
            assert pts == [], query
        else:
            for i in range(n):
                need = {p[i] for p in pts}
                assert need <= _answer_values(ans, names[i]), query


# ----------------------------------------------------------------------
# the woken path: binding and aliasing after the constraints are posted

def _lin_text(const, coeffs, names):
    txt = " + ".join("%d * %s" % (c, names[i]) for i, c in coeffs)
    return txt.replace("+ -", "- ") + (" + %d" % const if const >= 0
                                       else " - %d" % -const)


def _live_values(v):
    v = deref(v)
    if type(v) is not Var:
        return {v}
    d = get_domain(v)
    return set(range(d.lo, d.hi + 1)) - set(d.holes)


def _state_text(xs):
    """Each variable's binding or domain text, and which ones are aliased."""
    out = []
    for x in xs:
        x = deref(x)
        if type(x) is Var:
            alias = next(i for i, y in enumerate(xs) if deref(y) is x)
            out.append((alias, format_domain(get_domain(x))))
        else:
            out.append(x)
    return out


def _neq_forward_checked(con, xs):
    """A disequality left with at most one distinct free variable (aliases
    sum their coefficients) must hold for every value still possible."""
    _, const, coeffs = con
    total, free = const, {}
    for i, c in coeffs:
        x = deref(xs[i])
        if type(x) is Var:
            k, c0 = free.get(id(x), (x, 0))
            free[id(x)] = (x, c0 + c)
        else:
            total += c * x
    free = [(x, c) for x, c in free.values() if c != 0]
    if not free:
        return total != 0
    if len(free) == 1:
        x, c = free[0]
        return all(total + c * val != 0 for val in _live_values(x))
    return True


def test_woken_propagation_sound_against_enumeration():
    """Random #\\= and #= networks over 2-4 variables, then one binding or
    aliasing at a time.  After each step a failure means no feasible point
    is left, every domain keeps the feasible points' projection, every
    disequality with one free variable is forward checked, and a ground
    state fails exactly when it is infeasible.  Backtracking over the
    steps restores every domain text."""
    rng = Random(20261020)
    names = ["A", "B", "C", "D"]
    for _ in range(150):
        n = rng.randint(2, 4)
        doms = []
        for _i in range(n):
            lo = rng.randint(0, 3)
            doms.append(list(range(lo, lo + rng.randint(1, 4) + 1)))
        cons = []
        for _c in range(rng.randint(1, 3)):
            k = rng.randint(2, min(n, 3))
            idxs = sorted(rng.sample(range(n), k))
            coeffs = [(i, rng.choice([-3, -2, -1, 1, 2, 3])) for i in idxs]
            rel = "\\=" if rng.random() < 0.7 else "="
            cons.append((rel, rng.randint(-6, 6), coeffs))
        query = ", ".join("%s :: %d..%d" % (names[i], d[0], d[-1])
                          for i, d in enumerate(doms))
        for rel, const, coeffs in cons:
            query += ", %s #%s 0" % (_lin_text(const, coeffs, names), rel)

        eng = make_engine()
        goal, varmap = eng.parse_goal(query)
        posted = eng.run_goal_once(goal, eng.main)
        if not posted:
            assert feasible_points(doms, cons) == [], query
            continue
        xs = [varmap[names[i]] for i in range(n)]
        steps, marks = [], []
        for _s in range(rng.randint(1, 4)):
            i = rng.randrange(n)
            j = rng.randrange(n)
            if i != j and rng.random() < 0.4:
                step = ("=", 0, [(i, 1), (j, -1)])
                other = xs[j]
            else:
                val = rng.choice(sorted(_live_values(xs[i]))
                                 if rng.random() < 0.8 else doms[i])
                step = ("=", -val, [(i, 1)])
                other = val
            marks.append((eng.store.push_choicepoint(), _state_text(xs)))
            steps.append(step)
            ok = eng.store.unify(xs[i], other) and eng.drain()
            pts = feasible_points(doms, cons + steps)
            where = "%s; steps %s" % (query, steps)
            if not ok:
                assert pts == [], where
                break
            for k in range(n):
                assert {p[k] for p in pts} <= _live_values(xs[k]), where
            for con in cons:
                if con[0] == "\\=":
                    assert _neq_forward_checked(con, xs), where
            if all(type(deref(x)) is not Var for x in xs):
                assert pts != [], where
                assert eng.pending() == [], where
                break
        for mark, text in reversed(marks):
            eng.store.drop_to(mark)
            assert _state_text(xs) == text, query


# ----------------------------------------------------------------------
# the two-variable disequality kernel: c1*X + c2*Y + k #\= 0

_KERNEL_CASES = ("plain", "alias_before", "alias_after", "ground_x",
                 "ground_both", "float_x", "continuous")


def _kernel_solutions(eng, query, names):
    """The (X, Y) values of every answer of ``query, labeling(names)``."""
    got = eng.ask("%s, labeling([%s])" % (query, ", ".join(names)))
    assert eng.store.choicepoints == []
    return sorted(tuple(deref(a[n]) for n in "XY") for a in got)


def _kernel_forward_check(eng, query, a, b, c, rng):
    """Post, then bind one side to a value it still has: the other side's
    values lose exactly the forced one and the demon is gone."""
    goal, varmap = eng.parse_goal(query)
    assert eng.run_goal_once(goal, eng.main), query
    x, y = varmap["X"], varmap["Y"]
    [s] = eng.pending()
    assert s.run is ic._neq2
    (cb, bound, other), ca = rng.choice([((a, x, y), b), ((b, y, x), a)])
    before = _live_values(other)
    val = rng.choice(sorted(_live_values(bound)))
    rest = c + cb * val
    forced = {-rest // ca} if rest % ca == 0 else set()
    mark = eng.store.push_choicepoint()
    ok = eng.store.unify(bound, val) and eng.drain()
    where = "%s; bound to %d" % (query, val)
    assert ok == bool(before - forced), where
    if ok:
        assert _live_values(other) == before - forced, where
        assert eng.pending() == [], where
    eng.store.drop_to(mark)
    assert _live_values(other) == before, where


def test_two_variable_disequality_kernel_against_enumeration():
    """Random ``a*X + b*Y + c #\\= 0`` with coefficients of both signs,
    not only +-1, over small integral domains, in seven cases: both sides
    free; X = Y before or after posting; X an int, or both ints, or X a
    float when ic_lin_con/3 posts it; and X continuous, which takes the
    general path until X becomes integral.  Every answer set equals the
    brute-force one, and after a binding the other side loses exactly the
    forced value."""
    rng = Random(20261024)
    seen = Counter()
    for _ in range(240):
        case = rng.choice(_KERNEL_CASES)
        seen[case] += 1
        a, b = (rng.choice([-3, -2, -1, 1, 2, 3]) for _ in "ab")
        c = rng.randint(-9, 9)
        doms = []
        for _i in "XY":
            lo = rng.randint(-2, 3)
            doms.append(list(range(lo, lo + rng.randint(1, 5) + 1)))
        decl = "X :: %d .. %d, Y :: %d .. %d" % (
            doms[0][0], doms[0][-1], doms[1][0], doms[1][-1])
        cons = [("\\=", c, [(0, a), (1, b)])]
        post = "ic_lin_con(\\=, %d, [%d*X, %d*Y])" % (c, a, b)
        text = "%s #\\= 0" % _lin_text(c, [(0, a), (1, b)], "XY")
        eng = make_engine()
        if case == "continuous":
            _kernel_continuous(eng, a, b, c, doms[1], rng)
            continue
        if case == "plain":
            query = "%s, %s" % (decl, text)
            _kernel_forward_check(eng, query, a, b, c, rng)
        elif case == "alias_before":
            query = "%s, X = Y, %s" % (decl, text)
            cons.append(("=", 0, [(0, 1), (1, -1)]))
        elif case == "alias_after":
            query = "%s, %s, X = Y" % (decl, text)
            cons.append(("=", 0, [(0, 1), (1, -1)]))
            _kernel_alias_check(eng, "%s, %s" % (decl, text), a + b, c)
        elif case == "ground_x":
            v = rng.choice(doms[0])
            query = "%s, X = %d, %s" % (decl, v, post)
            doms[0] = [v]
        elif case == "ground_both":
            doms = [[rng.choice(doms[0])], [rng.choice(doms[1])]]
            query = "X = %d, Y = %d, %s" % (doms[0][0], doms[1][0], post)
        else:  # float_x
            v = rng.choice([1.0, 2.0, 0.5, -1.5])
            query = "Y :: %d .. %d, X = %r, %s" % (doms[1][0], doms[1][-1],
                                                   v, post)
            doms[0] = [v]
        want = sorted(feasible_points(doms, cons))
        labeled = "Y" if case == "float_x" else "XY"
        assert _kernel_solutions(eng, query, labeled) == want, query
    assert set(seen) == set(_KERNEL_CASES)


def _kernel_alias_check(eng, query, ab, c):
    """Post, then alias X and Y: the demon sums the coefficients, so the
    merged domain loses exactly the value ``ab*X + c`` forbids."""
    goal, varmap = eng.parse_goal(query)
    assert eng.run_goal_once(goal, eng.main), query
    x, y = varmap["X"], varmap["Y"]
    [s] = eng.pending()
    assert s.run is ic._neq2
    both = _live_values(x) & _live_values(y)
    if ab:
        forced = {-c // ab} if c % ab == 0 else set()
    else:
        forced = both if c == 0 else set()
    mark = eng.store.push_choicepoint()
    ok = eng.store.unify(x, y) and eng.drain()
    assert ok == bool(both - forced), query
    if ok:
        assert _live_values(x) == both - forced, query
    eng.store.drop_to(mark)


def _kernel_continuous(eng, a, b, c, ys, rng):
    """X continuous: binding Y leaves X's domain and the demon as they
    are; X becoming integral then loses exactly the forced value."""
    query = ("X :: 0.0..4.0, Y :: %d .. %d, ic_lin_con(\\=, %d, [%d*X, %d*Y])"
             % (ys[0], ys[-1], c, a, b))
    goal, varmap = eng.parse_goal(query)
    assert eng.run_goal_once(goal, eng.main), query
    x, y = varmap["X"], varmap["Y"]
    val = rng.choice(ys)
    assert eng.store.unify(y, val) and eng.drain(), query
    assert format_domain(get_domain(x)) == "{0.0..4.0}", query
    assert len(eng.pending()) == 1, query
    rest = c + b * val
    forced = {-rest // a} if rest % a == 0 else set()
    assert impose_integrality(eng, x) and eng.drain(), query
    assert _live_values(x) == set(range(5)) - forced, query
    assert eng.pending() == [], query


# ----------------------------------------------------------------------
# bounds propagation against a reference fixpoint in exact arithmetic

def _bounds_fixpoint(doms, cons):
    """The textbook bounds rule iterated to its fixpoint, in Fractions.
    doms: [lo, hi, integral] per variable (+-inf floats for missing
    bounds); cons: (rel, const, [(c, i)]) meaning const + sum(c*x_i) REL 0
    with REL =< or =.  Each variable is bounded by the slack the other
    terms leave; integral bounds round inward.  Returns the (lo, hi) of
    each variable, or None when a domain empties."""
    lo = [d[0] for d in doms]
    hi = [d[1] for d in doms]
    for _ in range(10000):
        changed = False
        for rel, const, terms in cons:
            for k, (c, i) in enumerate(terms):
                rest = [(c2, j) for m, (c2, j) in enumerate(terms) if m != k]
                rmin = const + sum(min(c2 * lo[j], c2 * hi[j]) for c2, j in rest)
                rmax = const + sum(max(c2 * lo[j], c2 * hi[j]) for c2, j in rest)
                new_lo, new_hi = lo[i], hi[i]
                if not math.isinf(rmin):       # c*x =< -rmin
                    q = Fraction(-rmin) / c
                    if c > 0:
                        new_hi = min(new_hi, q)
                    else:
                        new_lo = max(new_lo, q)
                if rel == "=" and not math.isinf(rmax):   # c*x >= -rmax
                    q = Fraction(-rmax) / c
                    if c > 0:
                        new_lo = max(new_lo, q)
                    else:
                        new_hi = min(new_hi, q)
                if doms[i][2]:
                    if not math.isinf(new_lo):
                        new_lo = math.ceil(new_lo)
                    if not math.isinf(new_hi):
                        new_hi = math.floor(new_hi)
                if new_lo > new_hi:
                    return None
                if (new_lo, new_hi) != (lo[i], hi[i]):
                    lo[i], hi[i] = new_lo, new_hi
                    changed = True
        if not changed:
            return list(zip(lo, hi))
    raise AssertionError("the reference fixpoint did not converge")


def _number_text(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 \
        else "%d_%d" % (q.numerator, q.denominator)


def _random_bounds_problem(rng, continuous):
    """Domain goals, the reference domains and a point inside them, for
    two or three variables.  One variable at most is bounded on one side
    only, so that the integral reference fixpoint is finite."""
    n = rng.randint(2, 3)
    one_sided = rng.randrange(n) if rng.random() < 0.5 else None
    goals, doms, point = [], [], []
    for i in range(n):
        x = "X%d" % i
        if i == one_sided:
            k = rng.randint(-4, 4)
            up = rng.random() < 0.5
            integral = not (continuous and rng.random() < 0.5)
            if integral:
                goals.append("%s %s %d" % (x, "#=<" if up else "#>=", k))
            else:
                # a domain without integrality, from the narrowing builtins
                goals.append("impose_%s(%s, %d)"
                             % ("max" if up else "min", x, k))
            doms.append([-math.inf, k, integral] if up
                        else [k, math.inf, integral])
            point.append(k + rng.randint(0, 3) * (-1 if up else 1))
        elif continuous and rng.random() < 0.7:
            a = rng.randint(-8, 8) / 2
            b = a + rng.randint(1, 12) / 2
            goals.append("%s :: %r .. %r" % (x, a, b))
            doms.append([Fraction(a), Fraction(b), False])
            point.append(Fraction(a) + (Fraction(b) - Fraction(a))
                         * Fraction(rng.randint(0, 4), 4))
        else:
            a = rng.randint(-5, 5)
            b = a + rng.randint(1, 8)
            goals.append("%s :: %d .. %d" % (x, a, b))
            doms.append([a, b, True])
            point.append(rng.randint(a, b))
    return goals, doms, point


def _random_linear(rng, point, rational):
    """const + sum(c*x_i) REL 0 over two or more of the variables; most
    constraints hold at point, the others have a random constant."""
    idxs = sorted(rng.sample(range(len(point)), rng.randint(2, len(point))))
    terms = [(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                       rng.choice([1, 2, 3]) if rational else 1), i)
             for i in idxs]
    rel = rng.choice(["=<", "="])
    if rng.random() < 0.25:
        const = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3]))
    else:
        const = -sum(c * point[i] for c, i in terms)
        if rel == "=<":
            const -= Fraction(rng.randint(0, 6), rng.choice([1, 2]))
    return rel, const, terms


def test_bounds_propagation_matches_a_reference_fixpoint():
    """Random #= and #=< problems with rational coefficients and
    constants, continuous domains and one-sided infinite bounds.  Over
    integral domains with integer coefficients the answer's bounds equal
    the reference fixpoint (and a failure means it is empty); otherwise
    they contain it.  A problem with a continuous domain posts one
    constraint, through ic_lin_con (#= would make its domains
    integral), so that the exact reference terminates."""
    rng = Random(20261019)
    exact_checked = contained_checked = 0
    for _ in range(300):
        continuous = rng.random() < 0.4
        rational = rng.random() < 0.5
        goals, doms, point = _random_bounds_problem(rng, continuous)
        n = len(point)
        cons = [_random_linear(rng, point, rational)
                for _c in range(1 if continuous else rng.randint(1, 3))]
        for rel, const, terms in cons:
            if continuous:
                goals.append("ic_lin_con(%s, %s, [%s])" % (
                    rel, _number_text(const), ", ".join(
                        "%s*X%d" % (_number_text(c), i) for c, i in terms)))
            else:
                lhs = " + ".join("%s * X%d" % (_number_text(c), i)
                                 for c, i in terms)
                goals.append("%s + %s #%s 0" % (lhs, _number_text(const), rel))
        query = ", ".join(goals).replace("+ -", "- ")
        integral = all(d[2] for d in doms)
        exact = integral and all(c.denominator == 1
                                 for _, _, ts in cons for c, _ in ts)
        want = _bounds_fixpoint(doms, cons)
        ans = make_engine().once(query)
        if ans is None:
            assert want is None, query
            continue
        if exact:
            assert want is not None, query
        got = [ic.exact_bounds(ans["X%d" % i]) for i in range(n)]
        if exact:
            assert got == want, query
            exact_checked += 1
        elif want is not None:
            for (glo, ghi), (wlo, whi) in zip(got, want):
                assert glo <= wlo and whi <= ghi, (query, got, want)
            contained_checked += 1
    assert exact_checked > 50 and contained_checked > 100


# ----------------------------------------------------------------------
# the one-read pass: a narrowing is made only where a bound tightens

def _domain_state(x):
    x = deref(x)
    if type(x) is not Var:
        return x
    d = get_domain(x)
    return d.lo, d.hi, d.holes, d.integral


def test_every_narrowing_of_the_bounds_pass_tightens_or_fails(monkeypatch):
    """Over the benchmark's linear programs, every write (`ic._update`)
    that _propagate_bounds makes changes the domain or fails."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    in_pass = [0]
    calls = []
    update = ic._update

    def passing(fn):
        def wrapper(*args):
            in_pass[0] += 1
            try:
                return fn(*args)
            finally:
                in_pass[0] -= 1
        return wrapper

    def narrowing(engine, x, *args):
        if not in_pass[0]:
            return update(engine, x, *args)
        before = _domain_state(x)
        ok = update(engine, x, *args)
        calls.append((before, args[1:3], ok, _domain_state(x)))
        return ok

    monkeypatch.setattr(ic, "_propagate_bounds",
                        passing(ic._propagate_bounds))
    monkeypatch.setattr(ic, "_update", narrowing)
    engine = make_engine()
    engine.load(workloads.LINEAR_PROGRAM)
    assert engine.once("coins(40, C)")["C"] == 31
    assert engine.once("send_more(L)") is not None
    assert len(calls) > 50
    idle = [c for c in calls if c[2] and c[0] == c[3]]
    assert idle == []


def test_a_pass_that_binds_a_variable_narrows_it_no_further(monkeypatch):
    """A narrowing can bind a variable that the same pass reads again:
    3*X + Y #= 6 reads X in 1..5 and Y in 1..2 (or 1..3); its =< side
    lowers X's maximum to 1, which binds X, and its = side then needs
    X >= 2 (or X >= 1), which fails (or holds) without a write.  After
    X = Y, X + Y + 3*Z #= 11 holds two pairs over X; the first binds it
    and the second is left alone."""
    writes = []
    update = ic._update

    def recording(engine, x, *args):
        free = type(deref(x)) is Var
        ok = update(engine, x, *args)
        writes.append((free, ok, deref(x)))
        return ok

    monkeypatch.setattr(ic, "_update", recording)
    assert make_engine().once("X :: 1..5, Y :: 1..2, 3*X + Y #= 6") is None
    # the pass's last write bound X to 1; none wrote to it once bound
    assert writes[-1] == (True, True, 1)
    assert all(free for free, _, _ in writes)
    a = make_engine().once("X :: 1..5, Y :: 1..3, 3*X + Y #= 6")
    assert (a["X"], a["Y"], a.delayed) == (1, 3, [])
    a = make_engine().once("X :: 2..5, Y :: 3..4, Z :: 1..6, "
                           "X + Y + 3*Z #= 11, X = Y")
    assert (a["X"], a["Y"], a["Z"], a.delayed) == (4, 4, 1, [])
    assert all(free for free, _, _ in writes)


# ----------------------------------------------------------------------
# a seeded oracle for the domain writer and the disequality kill

_LISTS = ("min", "max", "hole", "type", "constrained")


def _domain(e, x, lo, hi):
    """x :: lo..hi."""
    return impose_integrality(e, x) and impose_min(e, x, lo) \
        and impose_max(e, x, hi)


def _marked_var(e, lo, hi, holes, runs):
    """A variable over lo..hi less holes, with a marker demon on each of
    its four ic lists and its constrained list that records its list's
    name in ``runs`` when it runs."""
    x = Var()
    assert _domain(e, x, lo, hi)
    for h in holes:
        assert exclude_value(e, x, h)
    for name in _LISTS:
        def run(engine, s, module, name=name):
            runs.append(name)
            return True
        s = e.make_suspension(lambda s: Atom("marker"), 7, run=run)
        e.attach_suspension(s, x, name,
                            "suspend" if name == "constrained" else "ic")
    return x


def _exclusion_case(rng):
    """(lo, hi, holes, the value excluded), the value at a chosen place."""
    lo = rng.randint(-3, 3)
    place = rng.choice(["inside", "lo", "hi", "hole", "outside", "one"])
    if place == "one":  # two values left: excluding one leaves one
        hi = lo + rng.randint(1, 5)
        return lo, hi, set(range(lo + 1, hi)), rng.choice([lo, hi])
    hi = lo + rng.randint(2, 8)
    inner = list(range(lo + 1, hi))
    holes = set(rng.sample(inner, rng.randint(0, len(inner) - 1)))
    free = [v for v in inner if v not in holes]
    v = {"inside": rng.choice(free), "lo": lo, "hi": hi,
         "hole": rng.choice(sorted(holes)) if holes else lo - 1,
         "outside": rng.choice([lo - rng.randint(1, 3),
                                hi + rng.randint(1, 3)])}[place]
    return lo, hi, holes, v


def _expected_wakes(lo, hi, holes, v):
    """The lists that wake by the event rule of `ic._update`: all of them
    when one value is left, else min, max and hole for a raised lower
    bound, a lowered upper bound and a value gone strictly inside, then
    constrained when anything changed."""
    before = set(range(lo, hi + 1)) - holes
    after = before - {v}
    if after == before:
        return after, []
    if len(after) == 1:
        return after, list(_LISTS)
    woke = []
    if min(after) > lo:
        woke.append("min")
    if max(after) < hi:
        woke.append("max")
    if min(after) < v < max(after):
        woke.append("hole")
    return after, woke + ["constrained"]


def _values(x):
    x = deref(x)
    if type(x) is int:
        return {x}
    d = get_domain(x)
    return set(range(d.lo, d.hi + 1)) - d.holes


@pytest.mark.parametrize("through", ["exclude_value", "#\\="])
def test_domain_writer_agrees_with_brute_force_and_the_event_rule(through):
    rng = Random(2603)
    for _ in range(400):
        lo, hi, holes, v = _exclusion_case(rng)
        e = make_engine()
        runs = []
        x = _marked_var(e, lo, hi, holes, runs)
        assert e.drain() and runs == []
        if through == "exclude_value":
            assert exclude_value(e, x, v)
        else:
            # post X #\= Z, then give Z its value: the demon excludes it
            z = Var()
            post = e.ic.preds["#\\=", 2].builtin
            assert post(e, [x, z], e.main)
            assert e.store.unify(z, v)
        assert e.drain()
        values, woke = _expected_wakes(lo, hi, holes, v)
        assert _values(x) == values, (lo, hi, holes, v)
        assert (type(deref(x)) is int) == (len(values) == 1)
        assert runs == woke, (lo, hi, holes, v)


def test_a_disequality_killed_in_its_scheduling_segment_trails_no_kill():
    e = make_engine()
    st = e.store
    x, y = Var(), Var()
    for v in (x, y):
        assert _domain(e, v, 1, 5)
    assert e.ic.preds["#\\=", 2].builtin(e, [x, y], e.main)
    s = list(e.suspensions.values())[-1]

    def state_entries(since):
        return [t for t in st.trail[since:] if t[0] == "val" and t[1] is s]

    m = st.push_choicepoint()
    n = len(st.trail)
    assert st.unify(x, 3) and e.drain()
    # the one entry is the one the scheduling made, not the kill's
    assert state_entries(n) == [("val", s, "state", SUSPENDED)]
    assert s.state == EXECUTED and _values(y) == {1, 2, 4, 5}
    st.backtrack_to(m)
    assert s.state == SUSPENDED and _values(y) == {1, 2, 3, 4, 5}
    assert st.unify(x, 4) and e.drain()  # revived, it fires again
    assert s.state == EXECUTED and _values(y) == {1, 2, 3, 5}
    st.backtrack_to(m)

    # scheduled below a younger choicepoint, popped and killed above it:
    # the kill is trailed, and backtracking to that choicepoint queues
    # the demon again
    assert st.unify(x, 2)
    m2 = st.push_choicepoint()
    n = len(st.trail)
    assert e.drain()
    assert state_entries(n) == [("val", s, "state", SUSPENDED)]
    assert s.state == EXECUTED and _values(y) == {1, 3, 4, 5}
    st.backtrack_to(m2)
    assert s.state == SCHEDULED and _values(y) == {1, 2, 3, 4, 5}
    assert e.drain()
    assert s.state == EXECUTED and _values(y) == {1, 3, 4, 5}
    st.drop_to(m)


def test_a_single_value_left_binds_whatever_the_write():
    """`ic._update` binds when lo == hi, also when its arguments only add
    holes and leave the bounds where they are."""
    e = make_engine()
    for holes in ({5}, {0, 9}):
        x = Var()
        d = Domain(3, 3, integral=True)
        init_attr(x, "ic", d)
        assert ic._update(e, x, d, d.lo, d.hi, frozenset(holes), True)
        assert deref(x) == 3


# ----------------------------------------------------------------------
# demons write through ic._update with the domain they read

def test_demon_runs_narrow_without_the_term_entry_points(monkeypatch):
    """While the benchmark's linear and queens programs run, no woken or
    posted demon run calls impose_min, impose_max or exclude_value: each
    narrows through `ic._update`, with the domain it already read."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    in_run = [0]
    entered = Counter()

    def running(fn):
        def wrapper(*args):
            in_run[0] += 1
            try:
                return fn(*args)
            finally:
                in_run[0] -= 1
        return wrapper

    def entry(fn):
        def wrapper(*args):
            if in_run[0]:
                entered[fn.__name__] += 1
            return fn(*args)
        return wrapper

    for name in ("_propagate_bounds", "_propagate_neq", "_neq2",
                 "_alldiff_check"):
        monkeypatch.setattr(ic, name, running(getattr(ic, name)))
    for name in ("impose_min", "impose_max", "exclude_value"):
        monkeypatch.setattr(ic, name, entry(getattr(ic, name)))
    engine = make_engine()
    engine.load(workloads.LINEAR_PROGRAM + workloads.QUEENS_PROGRAM)
    assert engine.once("coins(40, C)")["C"] == 31
    assert engine.once("magic(C)")["C"] == 8
    assert engine.once("send_more(L)") is not None
    assert engine.once("count_queens(6, first_fail, C)")["C"] == 4
    assert entered == Counter()


@pytest.mark.parametrize("query, var, text", [
    ("X :: 1..3, alldifferent([X, 1, 2, 3])", None, None),
    ("X :: 1..4, alldifferent([X, Y, Z]), Y = 2.0, Z = 3", "X", "_{[1, 4]}"),
    ("X :: 1..3, alldifferent([X, Y]), Y = 1_2", "X", "_{1..3}"),
    ("X :: 0..5, Y :: 0..5, Z :: 0..5, X + Y + Z #\\= 7, Y = 1, Z = 2",
     "X", "_{[0..3, 5]}"),
    # the quotient 5/2 is not integral: nothing to exclude
    ("X :: 0..5, Y :: 0..5, Z :: 0..5, 2*X + Y + Z #\\= 8, Y = 1, Z = 2",
     "X", "_{0..5}"),
])
def test_demon_exclusions(first, fmt, query, var, text):
    a = first(query)
    if var is None:
        assert a is None
    else:
        assert fmt(a[var]) == text
