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


# ----------------------------------------------------------------------
# a seeded differential test of do-loops against a Python model
#
# A loop stops at the first step where every iterator can stop: the base
# clause's head matches, and its cut drops the recursive clause.  Where
# one cannot stop, every iterator steps and the body runs; a step or a
# body goal that fails fails the loop.  Each generated loop has a guard,
# an accumulator G (a ``fromto`` with a variable end) whose body test
# ``G1 =< P`` bounds its steps by the parameter P, so every loop ends.

class _Seq:
    """A list walked by ``foreach`` or by ``fromto(L, [H|T], T, [])``, or
    a Peano numeral walked by ``fromto(Z, s(Y), Y, z)``: the known items,
    and whether the tail is ``[]``/``z`` or unbound."""

    def __init__(self, role, name, items, open_tail):
        self.role, self.name = role, name
        self.items, self.open_tail = list(items), open_tail

    def source(self):
        """The binding of the input, or None for an unbound one."""
        if not self.items and self.open_tail:
            return None
        if self.role == "peano":
            return "%s = %s" % (self.name, _peano(len(self.items),
                                                  "T" + self.name
                                                  if self.open_tail else "z"))
        tail = "|T%s" % self.name if self.open_tail else ""
        return "%s = [%s%s]" % (self.name, ", ".join(map(str, self.items)),
                                tail)

    def iterator(self, k):
        if self.role == "foreach":
            return "foreach(X%d, %s)" % (k, self.name)
        if self.role == "walk":
            return "fromto(%s, [H%d|R%d], R%d, [])" % (self.name, k, k, k)
        return "fromto(%s, s(Y%d), Y%d, z)" % (self.name, k, k)

    def body(self, k):
        """Fill an element that the walk made up with the step number."""
        elem = {"foreach": "X%d", "walk": "H%d"}.get(self.role)
        return None if elem is None else \
            "( var(%s) -> %s = G1 ; true )" % (elem % k, elem % k)


def _peano(n, end="z"):
    return "s(" * n + end + ")" * n


def _loop_case(rng):
    """(loop goal text, input bindings, the walks, the other iterators):
    ``others`` maps "count", "down" and "end" to the count's end, the
    countdown's start and the variable end, None for an unbound end, for
    those that the loop has."""
    seqs = []
    for k in range(rng.randint(1, 2)):
        role = rng.choice(["foreach", "walk", "peano"])
        shape = rng.choice(["proper", "partial", "unbound"])
        n = rng.randint(0, 4) if shape != "unbound" else 0
        items = [rng.randint(0, 9) for _ in range(n)]
        seqs.append(_Seq(role, "L%d" % k, items, shape != "proper"))
    iters = ["fromto(0, G0, G1, S)", "param(P)"]
    body = ["G1 is G0 + 1", "G1 =< P"]
    setup = [s.source() for s in seqs]
    for k, s in enumerate(seqs):
        iters.append(s.iterator(k))
        body.append(s.body(k))
    others = {}
    if rng.random() < 0.5:
        others["count"] = n = rng.choice([None, rng.randint(0, 4)])
        iters.append("count(I, 1, N)")
        setup.append(None if n is None else "N = %d" % n)
    if rng.random() < 0.5:
        others["down"] = n = rng.randint(0, 4)
        iters.append("fromto(%d, D0, D1, 0)" % n)
        body += ["D0 > 0", "D1 is D0 - 1"]
    if rng.random() < 0.5:
        others["end"] = n = rng.choice([None, rng.randint(0, 4)])
        iters.append("fromto(0, J0, J1, E)")
        body.append("J1 is J0 + 1")
        setup.append(None if n is None else "E = %d" % n)
    rng.shuffle(iters)
    loop = "( %s do %s )" % (", ".join(iters),
                             ", ".join(b for b in body if b is not None))
    return loop, [s for s in setup if s is not None], seqs, others


def _model(seqs, others, p):
    """The bindings the loop leaves, as text, or None when it fails."""
    made = [[] for _ in seqs]      # the elements each walk made up
    pos = [0] * len(seqs)
    step = 0
    count, end = others.get("count"), others.get("end")
    down = others.get("down")
    while True:
        if (all(pos[k] == len(s.items) for k, s in enumerate(seqs))
                and count in (None, step) and end in (None, step)
                and down in (None, step)):
            break
        for k, s in enumerate(seqs):
            if pos[k] < len(s.items):
                pos[k] += 1
            elif s.open_tail:
                made[k].append(step + 1)
            else:
                return None
        step += 1
        if step > p or (down is not None and step > down):
            return None  # G1 =< P fails, or D0 > 0
    out = {"S": str(step)}
    if "count" in others and count is None:
        out["N"] = str(step)
    if "end" in others and end is None:
        out["E"] = str(step)
    for k, s in enumerate(seqs):
        if s.role == "peano":
            out[s.name] = _peano(len(s.items) + len(made[k]))
        else:
            out[s.name] = "[%s]" % ", ".join(map(str, s.items + made[k]))
    return out


def _answers(engine, goal, names):
    return [{n: engine.format_term(a[n]) for n in names}
            for a in engine.ask(goal)]


def test_do_loops_agree_with_a_model():
    rng = random.Random(2602)
    engine = make_engine()
    for case in range(300):
        loop, setup, seqs, others = _loop_case(rng)
        ps = sorted(rng.sample(range(0, 8), 3))
        expected = [a for a in (_model(seqs, others, p) for p in ps)
                    if a is not None]
        names = list(expected[0]) if expected else []
        members = "member(P, %s)" % plist(ps)
        # called: expanded as it runs
        goal = ", ".join([members] + setup + [loop])
        got = _answers(engine, goal, names)
        assert got == expected, goal
        # in a program clause: expanded as it loads
        head = "loop_%d(P, S, N, E, %s)" % (
            case, ", ".join(s.name for s in seqs))
        engine.load("%s :- %s." % (head, loop))
        goal = ", ".join([members] + setup + [head])
        assert _answers(engine, goal, names) == expected, goal


def test_a_constant_end_loop_pushes_no_choicepoint_per_step(
        engine, monkeypatch):
    from clpkernel.store import Store
    pushed = []
    push = Store.push_choicepoint

    def counted(self):
        pushed.append(1)
        return push(self)

    engine.load("walk(L, S) :- ( foreach(X, L), fromto(0, A0, A, S) "
                "do A is A0 + X ).\n"
                "down(N) :- ( fromto(N, I0, I, 0) do I is I0 - 1 ).")
    xs = list(range(1000))
    monkeypatch.setattr(Store, "push_choicepoint", counted)
    assert engine.once("walk(%s, S)" % plist(xs))["S"] == sum(xs)
    assert engine.once("down(1000)") is not None
    # a few per query: its base mark, the call of each, and the last step,
    # where the end could also be the current value
    assert len(pushed) < 10
