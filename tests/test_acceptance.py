"""End-to-end checks, one per headline capability.

Each test prints a single PASS/FAIL line so a full run reads as a
checklist.  Oracles live in brute.py and are deliberately dumb.
"""

import math
import time
from fractions import Fraction
from random import Random

import pytest

from clpkernel import make_engine
from clpkernel.arith import (breal_add, breal_div, breal_from_exact,
                             breal_mul, breal_pow, breal_sub)
from clpkernel.errors import FlounderingError
from clpkernel.expand import ExpandContext, expand_body
from clpkernel.ic import get_domain
from clpkernel.terms import (Atom, Breal, Struct, Var, deref, is_variant,
                             proper_list)

from brute import feasible_points, queens_brute


def as_ints(t):
    return [deref(x) for x in proper_list(t)]


def report(n, label, problems):
    print("criterion %d (%s): %s" % (n, label,
                                     "PASS" if not problems else "FAIL"))
    assert not problems, problems[:10]


# ----------------------------------------------------------------------
# 1. N-queens, the whole stack at once

QUEENS_ARRAY = """
queens_array(N, Board) :-
    dim(Board, [N]),
    Board :: 1..N,
    ( for(I,1,N), param(Board,N) do
        ( for(J,I+1,N), param(Board,I) do
            Board[I] #\\= Board[J],
            Board[I] #\\= Board[J]+J-I,
            Board[I] #\\= Board[J]+I-J
        )
    ).

queens_list(N, L) :-
    queens_array(N, Board),
    ( foreacharg(Q, Board), foreach(Q, L) do true ),
    labeling(L).
"""


def test_criterion_1_queens_end_to_end(engine, ask):
    engine.load(QUEENS_ARRAY)
    problems = []
    t0 = time.monotonic()
    sols8 = [tuple(as_ints(a["L"])) for a in ask("queens_list(8, L)")]
    elapsed = time.monotonic() - t0
    if len(sols8) != 92:
        problems.append("N=8 gave %d solutions, wanted 92" % len(sols8))
    if sols8 != queens_brute(8):
        problems.append("N=8 solutions differ from brute force")
    if elapsed >= 10.0:
        problems.append("N=8 enumeration took %.1fs" % elapsed)
    sols4 = [tuple(as_ints(a["L"])) for a in ask("queens_list(4, L)")]
    if len(sols4) != 2 or sols4 != queens_brute(4):
        problems.append("N=4 gave %r" % (sols4,))
    report(1, "queens end-to-end, N=8 in %.2fs" % elapsed, problems)


# ----------------------------------------------------------------------
# 2. propagation never loses a solution, and reaches a fixpoint

def _random_instance(rng, coeffs):
    nv = rng.randint(1, 4)
    names = ["A", "B", "C", "D"][:nv]
    doms = []
    for _ in range(nv):
        lo = rng.randint(-4, 4)
        doms.append((lo, lo + rng.randint(0, 8)))
    cons = []
    con_txt = []
    for _ in range(rng.randint(1, 4)):
        rel = rng.choice(["#=", "#=<", "#>=", "#\\="])
        pairs = [(i, rng.choice(coeffs))
                 for i in range(nv) if rng.random() < 0.75]
        if not pairs:
            pairs = [(rng.randrange(nv), 1)]
        k = rng.randint(-8, 8)
        txt = ""
        for i, c in pairs:
            if txt:
                txt += " + %d * %s" % (c, names[i]) if c > 0 \
                    else " - %d * %s" % (-c, names[i])
            else:
                txt = "%d * %s" % (c, names[i])
        txt += " + %d" % k if k >= 0 else " - %d" % -k
        con_txt.append("%s %s 0" % (txt, rel))
        if rel == "#>=":
            cons.append(("=<", -k, [(i, -c) for i, c in pairs]))
        else:
            cons.append(({"#=": "=", "#=<": "=<", "#\\=": "\\="}[rel],
                         k, pairs))
    # spaces around .. keep a negative bound from lexing as "..-"
    dom_txt = ", ".join("%s :: %d .. %d" % (names[i], lo, hi)
                        for i, (lo, hi) in enumerate(doms))
    return names, doms, cons, dom_txt, ", ".join(con_txt)


def _domain_values(ans, name):
    v = deref(ans[name])
    if isinstance(v, Var):
        d = get_domain(v)
        return set(range(d.lo, d.hi + 1)) - set(d.holes or ())
    return {v}


def test_criterion_2_propagation_soundness_and_fixpoint():
    rng = Random(8261845)
    eng = make_engine()
    problems = []
    for case in range(500):
        _check_instance(eng, case, _random_instance(rng, (-3, -2, -1, 1, 2, 3)),
                        problems)
    report(2, "propagation soundness + fixpoint, 500 instances", problems)


def _check_instance(eng, case, instance, problems):
    """Post one random instance; note lost values and a missed fixpoint.
    Returns the feasible points and the narrowed domains (None when the
    posting failed)."""
    names, doms, cons, dom_txt, con_txt = instance
    query = dom_txt + ", " + con_txt
    ans = eng.once(query)
    pts = feasible_points([set(range(lo, hi + 1)) for lo, hi in doms], cons)
    if ans is None:
        if pts:
            problems.append("case %d: failed but %d assignments exist: %s"
                            % (case, len(pts), query))
        return pts, None
    narrowed = {}
    for i, name in enumerate(names):
        vals = _domain_values(ans, name)
        narrowed[name] = vals
        if not {p[i] for p in pts} <= vals:
            problems.append("case %d: %s lost values: %s"
                            % (case, name, query))
    # fixpoint: posting the already-narrowed domains with the same
    # constraints must not narrow anything further
    redo = ", ".join("%s :: [%s]" %
                     (n, ", ".join(str(v) for v in sorted(narrowed[n])))
                     for n in names)
    redo += ", " + con_txt
    ans2 = eng.once(redo)
    if ans2 is None:
        problems.append("case %d: re-posting failed: %s" % (case, redo))
        return pts, narrowed
    for name in names:
        if _domain_values(ans2, name) != narrowed[name]:
            problems.append("case %d: not a fixpoint for %s: %s"
                            % (case, name, redo))
    return pts, narrowed


def test_integer_propagation_with_coefficients_that_do_not_divide():
    # |c| up to 7 over bounds up to 12: most bound divisions have a
    # remainder.  Rounded outward, a bound stays unsupported; rounded
    # inward too far, or a #\= quotient that does not divide taken as
    # an integer, values are lost.
    rng = Random(5140723)
    coeffs = [c for c in range(-7, 8) if c != 0]
    eng = make_engine()
    problems = []
    for case in range(300):
        instance = _random_instance(rng, coeffs)
        names, _doms, cons, dom_txt, con_txt = instance
        pts, narrowed = _check_instance(eng, case, instance, problems)
        if narrowed is None:
            continue
        bounds = [(min(narrowed[n]), max(narrowed[n])) for n in names]
        for bad in _unsupported_bounds(bounds, cons):
            problems.append("case %d: unsupported bound %r: %s"
                            % (case, bad, con_txt))
        # labeling wakes #\= with one variable left, the case where the
        # forbidden value is a quotient
        labeled = "%s, %s, labeling([%s])" % (dom_txt, con_txt,
                                              ", ".join(names))
        sols = {tuple(deref(a[n]) for n in names) for a in eng.ask(labeled)}
        if sols != set(pts):
            problems.append("case %d: labeling found %d of %d solutions: %s"
                            % (case, len(sols & set(pts)), len(pts), labeled))
    assert not problems, problems[:10]


def _unsupported_bounds(bounds, cons):
    """Bounds that no real point of the other variables' boxes supports
    in some =< or = constraint: bounds propagation must remove them."""
    out = []
    for rel, const, pairs in cons:
        if rel == "\\=":
            continue
        lows = [min(c * bounds[i][0], c * bounds[i][1]) for i, c in pairs]
        highs = [max(c * bounds[i][0], c * bounds[i][1]) for i, c in pairs]
        for j, (i, c) in enumerate(pairs):
            others_min = sum(lows) - lows[j]
            others_max = sum(highs) - highs[j]
            for b in bounds[i]:
                if const + c * b + others_min > 0 or (
                        rel == "=" and const + c * b + others_max < 0):
                    out.append((i, b, rel, const, pairs))
    return out


# ----------------------------------------------------------------------
# 3. trailing restores state exactly, one value entry per location

def _sig(t):
    t = deref(t)
    if isinstance(t, Var):
        return ("var", id(t))
    if isinstance(t, Struct):
        return (t.name,) + tuple(_sig(a) for a in t.args)
    if isinstance(t, Atom):
        return ("atom", t.name)
    return ("val", type(t).__name__, t)


def test_criterion_3_trail_restoration():
    rng = Random(4471)
    problems = []
    for trial in range(50):
        eng = make_engine()
        st = eng.store
        pool = [Var() for _ in range(8)]
        cells = [Struct("c", [Atom("z"), Atom("z")]) for _ in range(4)]
        undo_log = []

        def snapshot():
            return [_sig(v) for v in pool] + [_sig(c) for c in cells]

        def run_level(depth):
            before = snapshot()
            tlen = len(st.trail)
            my_undos = 0
            mark = st.push_choicepoint()
            for _ in range(rng.randint(3, 12)):
                r = rng.random()
                if r < 0.35:
                    v = deref(rng.choice(pool))
                    if isinstance(v, Var):
                        # only embed still-unbound variables: bind times
                        # then order the reference graph, so no cycles
                        free = [w for w in pool
                                if isinstance(deref(w), Var)
                                and deref(w) is not v]
                        choices = [rng.randint(0, 9), Atom("a")]
                        if free:
                            choices.append(Struct("f", [rng.choice(free)]))
                        st.bind(v, rng.choice(choices))
                elif r < 0.55:
                    # hammer one location several times: still one entry
                    c = rng.choice(cells)
                    i = rng.randint(1, 2)
                    for _h in range(rng.randint(1, 3)):
                        st.set_arg(i, c, rng.randint(0, 99))
                elif r < 0.8:
                    st.set_arg(rng.randint(1, 2), rng.choice(cells),
                               rng.randint(0, 99))
                else:
                    st.register_undo(lambda: undo_log.append(1))
                    my_undos += 1
            locs = [(id(e[1]), e[2]) for e in st.trail[tlen:]
                    if e[0] == "val"]
            if len(locs) != len(set(locs)):
                problems.append("trial %d: duplicate value entries" % trial)
            if rng.random() < 0.6 and depth < 3:
                run_level(depth + 1)
            # nested levels ran their own undos already; this backtrack
            # must run exactly the ones registered at this level
            pre_bt = len(undo_log)
            st.backtrack_to(mark)
            if snapshot() != before:
                problems.append("trial %d: state not restored" % trial)
            if len(st.trail) != tlen:
                problems.append("trial %d: trail not unwound" % trial)
            if len(undo_log) - pre_bt != my_undos:
                problems.append("trial %d: undo closures ran %d/%d times"
                                % (trial, len(undo_log) - pre_bt, my_undos))

        run_level(0)
    report(3, "randomized trail restoration, 50 trials", problems)


# ----------------------------------------------------------------------
# 4. the scheduler: priority order, demons, waking precision

def test_criterion_4_scheduler_order_and_demons():
    problems = []
    eng = make_engine()
    runs = []

    def probe(e, args, module):
        runs.append(deref(args[0]).name)
        return True

    eng.add_builtin(eng.main, "probe", 1, probe)
    rng = Random(662)
    susps = []
    for i in range(40):
        p = rng.randint(1, 12)
        tag = "t%02d" % i
        susps.append((p, tag,
                      eng.make_suspension(Struct("probe", [Atom(tag)]), p)))
    shuffled = susps[:]
    rng.shuffle(shuffled)
    for start in range(0, len(shuffled), 7):
        eng.sched.schedule([s for (_, _, s) in shuffled[start:start + 7]])
    if not eng.drain():
        problems.append("drain failed")
    expected = [tag for _, tag, _ in
                sorted(shuffled, key=lambda x: x[0])]  # stable: FIFO ties
    if runs != expected:
        problems.append("execution order %r != %r" % (runs, expected))
    eng.sched.schedule([s for (_, _, s) in susps])
    eng.drain()
    if len(runs) != 40:
        problems.append("a non-demon ran more than once")

    demon_runs = []

    def dprobe(e, args, module):
        demon_runs.append(1)
        return True

    pred = eng.add_builtin(eng.main, "dprobe", 0, dprobe)
    pred.demon = True
    s = eng.make_suspension(Atom("dprobe"), 4)
    for _ in range(5):
        eng.sched.schedule([s])
        eng.drain()
    if len(demon_runs) != 5:
        problems.append("demon fired %d times, wanted 5" % len(demon_runs))
    eng.kill_suspension(s)
    eng.sched.schedule([s])
    eng.drain()
    if len(demon_runs) != 5:
        problems.append("killed demon fired again")
    report(4, "scheduler priorities and demons", problems)


WAKING_EVENTS = [
    ("instantiate", "X :: 1..9", "X = 3",
     {"inst": 1, "bound": 1, "constrained": 1,
      "ic:min": 1, "ic:max": 1, "ic:hole": 1, "ic:type": 1}),
    ("alias", "X :: 1..9, Y :: 1..9", "X = Y",
     {"inst": 0, "bound": 1, "constrained": 1,
      "ic:min": 0, "ic:max": 0, "ic:hole": 0, "ic:type": 0}),
    ("raise min", "X :: 1..9", "X #>= 2",
     {"inst": 0, "bound": 0, "constrained": 1,
      "ic:min": 1, "ic:max": 0, "ic:hole": 0, "ic:type": 0}),
    ("lower max", "X :: 1..9", "X #=< 8",
     {"inst": 0, "bound": 0, "constrained": 1,
      "ic:min": 0, "ic:max": 1, "ic:hole": 0, "ic:type": 0}),
    ("punch hole", "X :: 1..9", "exclude(X, 5)",
     {"inst": 0, "bound": 0, "constrained": 1,
      "ic:min": 0, "ic:max": 0, "ic:hole": 1, "ic:type": 0}),
    ("impose type", "X :: 1.0..9.0", "impose_integrality(X)",
     {"inst": 0, "bound": 0, "constrained": 1,
      "ic:min": 0, "ic:max": 0, "ic:hole": 0, "ic:type": 1}),
    # aliasing wakes each side's lists for the events of its own domain:
    # here X's domain does not change ...
    ("alias, X inside Y", "X :: 6..9, Y :: 1..9", "X = Y",
     {"inst": 0, "bound": 1, "constrained": 1,
      "ic:min": 0, "ic:max": 0, "ic:hole": 0, "ic:type": 0}),
    # ... here its bound moves past a hole, which is then gone, but no
    # value inside the new bounds is removed ...
    ("alias, raise min over a hole", "X :: 1..9, exclude(X, 5), Y :: 6..9",
     "X = Y",
     {"inst": 0, "bound": 1, "constrained": 1,
      "ic:min": 1, "ic:max": 0, "ic:hole": 0, "ic:type": 0}),
    # ... and here X is the younger variable, whose lists join Y's
    ("alias, younger X inside Y", "Y :: 1..9, X :: 6..9", "X = Y",
     {"inst": 0, "bound": 1, "constrained": 1,
      "ic:min": 0, "ic:max": 0, "ic:hole": 0, "ic:type": 0}),
    # an aliasing that leaves one value instantiates both sides, whichever
    # is the older
    ("alias to one value", "X :: 1..2, Y :: 2..3", "X = Y",
     {"inst": 1, "bound": 1, "constrained": 1,
      "ic:min": 1, "ic:max": 1, "ic:hole": 1, "ic:type": 1}),
    ("alias to one value, younger X", "Y :: 2..3, X :: 1..2", "X = Y",
     {"inst": 1, "bound": 1, "constrained": 1,
      "ic:min": 1, "ic:max": 1, "ic:hole": 1, "ic:type": 1}),
]


def test_criterion_4_waking_precision_matrix():
    problems = []
    for event, setup, fire, expect in WAKING_EVENTS:
        # the generic lists are the suspend attribute's: the qualified
        # names must fire exactly as the short ones
        qualified = {"suspend:" + c: want for c, want in expect.items()
                     if ":" not in c}
        for cond, want in list(expect.items()) + list(qualified.items()):
            eng = make_engine()
            calls = []

            def probe(e, args, module, calls=calls):
                calls.append(1)
                return True

            eng.add_builtin(eng.main, "probe", 1, probe)
            got = eng.once("%s, suspend(probe(hit), 3, [X -> %s]), %s"
                           % (setup, cond, fire))
            if got is None:
                problems.append("%s/%s: query failed" % (event, cond))
            elif bool(calls) != bool(want):
                problems.append("%s wakes %s: got %s, wanted %s"
                                % (event, cond, bool(calls), bool(want)))
    report(4, "waking precision matrix", problems)


# ----------------------------------------------------------------------
# 5. every loop iterator behaves like the recursion it abbreviates

RECURSIONS = """
sum_rec([], A, A).
sum_rec([X|T], A0, A) :- A1 is A0 + X, sum_rec(T, A1, A).

dbl_rec([], []).
dbl_rec([X|T], [Y|T2]) :- Y is 2 * X, dbl_rec(T, T2).

addk_rec([], _, []).
addk_rec([X|T], K, [Y|T2]) :- Y is X + K, addk_rec(T, K, T2).

ne7_rec([]).
ne7_rec([X|T]) :- X \\= 7, ne7_rec(T).

args_rec(S, L) :- functor(S, _, N), args_rec(1, N, S, L).
args_rec(I, N, _, []) :- I > N.
args_rec(I, N, S, [A|T]) :-
    I =< N, arg(I, S, A), I1 is I + 1, args_rec(I1, N, S, T).

upto_rec(I, Hi, []) :- I > Hi.
upto_rec(I, Hi, [I|T]) :- I =< Hi, I1 is I + 1, upto_rec(I1, Hi, T).

step_rec(I, Hi, St, []) :- St > 0, I > Hi.
step_rec(I, Hi, St, []) :- St < 0, I < Hi.
step_rec(I, Hi, St, [I|T]) :-
    St > 0, I =< Hi, I1 is I + St, step_rec(I1, Hi, St, T).
step_rec(I, Hi, St, [I|T]) :-
    St < 0, I >= Hi, I1 is I + St, step_rec(I1, Hi, St, T).
"""


def _compare(eng, problems, label, loop_q, rec_q, var="S"):
    a = eng.once(loop_q)
    b = eng.once(rec_q)
    if (a is None) != (b is None):
        problems.append("%s: loop %s but recursion %s (%s)"
                        % (label, "failed" if a is None else "succeeded",
                           "failed" if b is None else "succeeded", loop_q))
    elif a is not None:
        ta = eng.format_term(a[var], canonical=True)
        tb = eng.format_term(b[var], canonical=True)
        if ta != tb:
            problems.append("%s: %s != %s (%s)" % (label, ta, tb, loop_q))


def test_criterion_5_loops_equal_recursions(engine):
    engine.load(RECURSIONS)
    rng = Random(515253)
    problems = []
    for _ in range(100):
        l = [rng.randint(0, 9) for _ in range(rng.randint(0, 6))]
        lt = "[%s]" % ", ".join(map(str, l))
        _compare(engine, problems, "fromto",
                 "( fromto(%s, I, O, []), fromto(0, A0, A1, S) "
                 "do I = [X|O], A1 is A0 + X )" % lt,
                 "sum_rec(%s, 0, S)" % lt)
        _compare(engine, problems, "foreach",
                 "( foreach(X, %s), foreach(Y, S) do Y is 2 * X )" % lt,
                 "dbl_rec(%s, S)" % lt)
        _compare(engine, problems, "foreach-fail",
                 "( foreach(X, %s) do X \\= 7 ), S = done" % lt,
                 "ne7_rec(%s), S = done" % lt)
        k = rng.randint(-5, 5)
        _compare(engine, problems, "param",
                 "K = %d, ( foreach(X, %s), foreach(Y, S), param(K) "
                 "do Y is X + K )" % (k, lt),
                 "addk_rec(%s, %d, S)" % (lt, k))
        st = "f(%s)" % ", ".join(map(str, l)) if l else "f"
        _compare(engine, problems, "foreacharg",
                 "( foreacharg(A, %s), foreach(A, S) do true )" % st,
                 "args_rec(%s, S)" % st)
        lo = rng.randint(-3, 3)
        hi = lo + rng.randint(-2, 6)
        _compare(engine, problems, "for",
                 "( for(I, %d, %d), foreach(I, S) do true )" % (lo, hi),
                 "upto_rec(%d, %d, S)" % (lo, hi))
        step = rng.choice([-3, -2, -1, 1, 2, 3])
        _compare(engine, problems, "for-step",
                 "( for(I, %d, %d, %d), foreach(I, S) do true )"
                 % (lo, hi, step),
                 "step_rec(%d, %d, %d, S)" % (lo, hi, step))
    # the accumulator schema in its plainest form
    if engine.once("( fromto([a, b, c], In, Out, []) do In = [_|Out] )") \
            is None:
        problems.append("plain fromto walk failed")
    report(5, "loop iterators vs hand-written recursion, 100 rounds",
           problems)


# ----------------------------------------------------------------------
# 6. structure and array syntax, golden expansions

STRUCT_ROWS = [
    ("p(emp{age:A, salary:S})", "p(emp(_, A, S))"),
    ("Emp = emp{salary:Sal}", "Emp = emp(_, _, Sal)"),
    ("arg(name of emp, Emp, Name)", "arg(1, Emp, Name)"),
    ("sort(age of emp, =<, Emps, EmpsByAge)",
     "sort(2, =<, Emps, EmpsByAge)"),
]


def test_criterion_6_struct_and_array_golden(engine, first, fmt):
    engine.load(":- local struct(emp(name, age, salary)).")
    problems = []
    for source, expanded in STRUCT_ROWS:
        got, _ = engine.parse_goal(source)
        want, _ = engine.parse_goal(expanded)
        if not is_variant(got, want):
            problems.append("%s expanded to %s, wanted %s"
                            % (source, fmt(got), expanded))
    got, _ = engine.parse_goal("update_struct(emp, [salary:NewSal], Old, New)")
    ctx = ExpandContext(engine.main, engine)
    got, aux = expand_body(ctx, got)
    want, _ = engine.parse_goal(
        "Old = emp(A1, A2, _), New = emp(A1, A2, NewSal)")
    if aux or not is_variant(got, want):
        problems.append("update_struct expanded to %s" % fmt(got))

    # the sorting row actually sorts by the named field
    a = first("sort(age of emp, =<, [emp(bob, 42, 10), emp(al, 19, 20)], S)")
    if fmt(a["S"]) != "[emp(al, 19, 20), emp(bob, 42, 10)]":
        problems.append("sort by field gave %s" % fmt(a["S"]))

    t, vm = engine.parse_goal("T = M[3,4]")
    sub = deref(t).args[1]
    names = {id(v): n for n, v in vm.items()}
    if engine.format_term(sub, names=names, canonical=True) \
            != "subscript(M, [3, 4])":
        problems.append("M[3,4] read as %s" % fmt(sub))
    if engine.format_term(sub, names=names) != "M[3, 4]":
        problems.append("M[3,4] prints as %s"
                        % engine.format_term(sub, names=names))

    b = first("dim(M, [2, 3])")
    if fmt(b["M"]) != "[]([](_, _, _), [](_, _, _))":
        problems.append("dim shape is %s" % fmt(b["M"]))
    c = first("dim(M, [2, 3]), dim(M, D)")
    if fmt(c["D"]) != "[2, 3]":
        problems.append("dim readback gave %s" % fmt(c["D"]))
    if first("M = [](10, 20, 30), X is M[2]")["X"] != 20:
        problems.append("subscript evaluation broke")
    report(6, "structure/array syntax golden table", problems)


# ----------------------------------------------------------------------
# 7. intervals always contain the exact answer; the numeric tower

def _contains(b, q):
    lo_ok = math.isinf(b.lo) and b.lo < 0 or Fraction(b.lo) <= q
    hi_ok = math.isinf(b.hi) and b.hi > 0 or Fraction(b.hi) >= q
    return lo_ok and hi_ok


def test_criterion_7_interval_containment_and_tower(ask):
    rng = Random(909134)
    problems = []
    for trial in range(1000):
        p = Fraction(rng.randint(-99, 99), rng.randint(1, 20))
        q = Fraction(rng.randint(-99, 99), rng.randint(1, 20))
        exact = p
        b = breal_from_exact(p)
        other_exact = q
        other = breal_from_exact(q)
        for _ in range(rng.randint(1, 5)):
            op = rng.choice("+-*/^")
            if op == "+":
                exact, b = exact + other_exact, breal_add(b, other)
            elif op == "-":
                exact, b = exact - other_exact, breal_sub(b, other)
            elif op == "*":
                exact, b = exact * other_exact, breal_mul(b, other)
            elif op == "/":
                if Fraction(other.lo) <= 0 <= Fraction(other.hi):
                    continue
                exact, b = exact / other_exact, breal_div(b, other)
            else:
                n = rng.randint(0, 2)
                exact, b = exact ** n, breal_pow(b, n)
            if not _contains(b, exact):
                problems.append("trial %d: %s outside %s__%s"
                                % (trial, exact, b.lo, b.hi))
                break
    tower = ["3", "3.0", "3_1", "3.0__3.0"]
    for i in range(len(tower)):
        for j in range(i + 1, len(tower)):
            if ask("%s = %s" % (tower[i], tower[j])):
                problems.append("%s = %s unified" % (tower[i], tower[j]))
            if not ask("%s =:= %s" % (tower[i], tower[j])):
                problems.append("%s =:= %s failed" % (tower[i], tower[j]))
    report(7, "interval containment, 1000 op sequences + tower", problems)


# ----------------------------------------------------------------------
# 8. floundering is reported, never swallowed

def test_criterion_8_floundering(engine, first):
    problems = []
    a = first("dif(X, Y)")
    if len(a.delayed) != 1 or "dif" not in a.delayed[0]:
        problems.append("dif/2 reported %r" % (a.delayed,))
    try:
        engine.once("findall(X, dif(X, a), L)")
        problems.append("findall over a floundering goal succeeded")
    except FlounderingError as e:
        if not any("dif" in g for g in e.goals):
            problems.append("error lost the delayed goals: %r" % (e.goals,))
    if first("dif(X, a), X = b").delayed != []:
        problems.append("resolved dif/2 still reported as delayed")
    if first("X :: 1..5, X #>= 2, labeling([X])").delayed != []:
        problems.append("fully labeled query reports delayed goals")
    report(8, "floundering reported, solved queries clean", problems)
