"""The error contract, judged by seeded calls of every builtin.

Every failure must reach the user as an `EngineError`: a builtin called
with any arguments answers, fails, or raises one, never a raw Python
exception.  Each builtin of every module an `Engine()` makes, and each
goal macro, which a call expands as it runs, is called with arguments
drawn from a fixed pool of terms, after a prefix that gives one variable
a domain and another a suspension, so the posting paths of the solvers
see constrained and suspended variables too.  After
each query the store must hold no choicepoint and the engine must run at
the main resolvent's priority, as the ``ask`` fixture requires.
"""

import io
import time
from random import Random

from clpkernel import make_engine
from clpkernel.errors import EngineError
from clpkernel.susp import MAIN_PRIORITY

#: a positive int of more digits than CPython converts to and from text
#: by default (4300)
BIG = "9" * 5001

#: argument texts: atoms, ints, a 20-digit int, ints past 4300 digits,
#: floats, the infinities, rationals (one of them integral), bounded
#: reals (one of them a point), a string, unbound, constrained (C) and
#: suspended (S) variables, partial and proper lists, compounds, and
#: terms that get past the first checks of some builtins (a relation, a
#: linear list, a domain, a labeling strategy, a waking condition).
#: ``{}`` is the argument's position: the arguments of a call share no
#: variable but C and S, and no compound holds those, so no call can bind
#: a variable to a term that contains it (printing such a cyclic answer
#: would not terminate).
POOL = ["a", "[]", "'hello world'", "0", "3", "-7", "12345678901234567890",
        BIG, "-" + BIG, "2.5", "-0.0", "1.0e10", "1.0Inf", "-1.0Inf", "1_3",
        "-2_5", "3_1", "0.5__1.5", "3.0__3.0", '"abc"', "X{}", "Y{}", "C",
        "S", "[a|T{}]", "[1, 2]", "[X{}, 3]", "f(X{}, b)", "1 + Y{}",
        "g(Y{}, [Z{}])", "'=<'", "[2*X{}, -1*Y{}]", "0..9", "first_fail",
        "X{} -> inst"]

PREFIX = "C :: 1..5, suspend(true, 3, S -> inst), "

#: the struct of the update_struct/4 example, declared in every engine
#: that the calls run in
STRUCT = ":- local struct(emp(name, age)).\n"

#: builtins left out, with the reason
EXCLUDED = {
    ("halt", 0): "ends the process",
    ("halt", 1): "ends the process",
}

#: argument texts left out for one argument of one builtin, with the
#: reason
EXCLUDED_ARGS = {
    ("functor", 3, 2, "12345678901234567890"):
        "builds a term with that many arguments: no answer in bounded "
        "memory",
    ("functor", 3, 2, BIG):
        "builds a term with that many arguments: no answer in bounded "
        "memory",
}

#: a call of each of these builtins that gets past its argument checks:
#: half the calls of a builtin listed here replace one argument of it by
#: a pool term, so its later checks see wrong arguments too
EXAMPLES = {
    ("ic_lin_con", 3): ["'=<'", "0", "[2*X{}, -1*Y{}]"],
    ("::", 2): ["X{}", "0..9"],
    ("#=", 2): ["X{}", "2 * Y{} + 1"],
    ("labeling", 2): ["first_fail", "[C]"],
    ("suspend", 3): ["f(X{})", "3", "Y{} -> inst"],
    ("make_suspension", 3): ["f(X{})", "3", "Y{}"],
    ("exclude", 2): ["C", "3"],
    ("get_bounds", 3): ["C", "L{}", "H{}"],
    ("set_var_bounds", 3): ["C", "2", "4"],
    ("get_var_bounds", 3): ["C", "L{}", "H{}"],
    ("sort", 4): ["0", "'=<'", "[f(X{}, b)]", "Y{}"],
    ("setarg", 3): ["1", "f(X{}, b)", "a"],
    ("arg", 3): ["1", "f(X{}, b)", "Y{}"],
    ("functor", 3): ["X{}", "f", "2"],
    ("=..", 2): ["X{}", "[f, a]"],
    ("dim", 2): ["X{}", "[2, 3]"],
    ("subscript", 3): ["f(a, b)", "[1]", "X{}"],
    ("loop_for_setup", 6): ["1", "5", "1", "A{}", "B{}", "D{}"],
    ("findall", 3): ["Q", "member(Q, [a, b])", "L{}"],
    ("count_solutions", 2): ["member(Q, [a, b])", "N{}"],
    ("is", 2): ["X{}", "1 + 2"],
    ("compare", 3): ["O{}", "a", "b"],
    ("do", 2): ["foreach(X{}, [a, b])", "true"],
    ("update_struct", 4): ["emp", "[age: 3]", "X{}", "Y{}"],
}

CALLS_PER_BUILTIN = 250


def builtins_of(engine):
    """(name, arity) of every builtin, in a fixed order.  Every one is
    exported, so the main module, which imports them all, calls it."""
    return sorted((name, arity)
                  for m in engine.modules.values()
                  for (name, arity), p in m.preds.items()
                  if p.builtin is not None)


def macros_of(engine):
    """(name, arity) of every goal macro, in a fixed order."""
    return sorted(k for m in engine.modules.values() for k in m.goal_macros)


def judge_engine(**kwargs):
    engine = make_engine(**kwargs)
    engine.load(STRUCT)
    return engine


def quoted(name):
    return "'%s'" % name.replace("\\", "\\\\").replace("'", "\\'")


def random_goal(rng, name, arity):
    """A call with every argument from the pool, or the builtin's example
    with one argument from the pool."""
    args = EXAMPLES.get((name, arity)) if rng.random() < 0.5 else None
    wild = rng.randrange(arity) if args else None
    args = list(args or [None] * arity)
    for i in range(arity):
        if args[i] is None or i == wild:
            args[i] = rng.choice(POOL)
            while (name, arity, i, args[i]) in EXCLUDED_ARGS:
                args[i] = rng.choice(POOL)
        args[i] = args[i].replace("{}", str(i))
    if not args:
        return quoted(name)
    return "%s(%s)" % (quoted(name), ", ".join(args))


def test_every_builtin_is_called():
    engine = judge_engine()
    called = [b for b in builtins_of(engine) if b not in EXCLUDED]
    assert len(called) > 70
    macros = macros_of(engine)
    called += macros
    assert set(builtins_of(engine)) >= set(EXCLUDED)
    assert set(called) >= set(EXAMPLES)
    for name, arity in EXAMPLES:
        # each example gets past the builtin's checks
        args = [a.replace("{}", str(i))
                for i, a in enumerate(EXAMPLES[name, arity])]
        assert engine.ask(PREFIX + "%s(%s)" % (quoted(name), ", ".join(args)))
    for name, arity in called:
        if (name, arity) in macros:
            assert engine.main.lookup_goal_macro(name, arity) is not None
        else:
            assert engine.main.lookup_pred(name, arity).builtin is not None
        # the quoting reads back as the builtin's name
        goal, _ = engine.parse_goal(random_goal(Random(0), name, arity))
        assert goal.name == name


def test_builtins_answer_fail_or_raise_an_engine_error():
    """Each answer is also formatted: printing it must not raise either."""
    rng = Random(20261019)
    broken = []
    outcomes = {"answered": 0, "failed": 0, "raised": 0}
    t0 = time.process_time()
    made = make_engine()
    for name, arity in builtins_of(made) + macros_of(made):
        if (name, arity) in EXCLUDED:
            continue
        engine = judge_engine(out=io.StringIO())
        for _ in range(CALLS_PER_BUILTIN):
            query = PREFIX + random_goal(rng, name, arity)
            try:
                got = engine.ask(query, limit=2)
                for answer in got:
                    for value in answer.bindings.values():
                        engine.format_term(value)
            except EngineError:
                outcomes["raised"] += 1
            except Exception as e:  # the breach this test is for
                broken.append("%s: %s: %s" % (query, type(e).__name__, e))
            else:
                outcomes["answered" if got else "failed"] += 1
            assert engine.store.choicepoints == [], query
            assert engine.running_priority == MAIN_PRIORITY, query
    assert broken == []
    assert min(outcomes.values()) > 100, outcomes
    assert time.process_time() - t0 < 10
