"""The suspension scheduler: priority buckets, demons, kill and revive."""

import io
import random
import sys
from pathlib import Path

import pytest

from clpkernel import ic, make_engine
from clpkernel.errors import DomainError, EngineError
from clpkernel.store import Store
from clpkernel.susp import (EXECUTED, MAIN_PRIORITY, NUM_PRIORITIES, SCHEDULED,
                            SUSPENDED, Scheduler, Suspension)
from clpkernel.terms import Atom, Struct, deref

ROOT = Path(__file__).resolve().parent.parent


def test_priority_range_enforced():
    Suspension(1, Atom("g"), 1, None)
    Suspension(2, Atom("g"), NUM_PRIORITIES, None)
    with pytest.raises(DomainError):
        Suspension(3, Atom("g"), 0, None)
    with pytest.raises(DomainError):
        Suspension(4, Atom("g"), NUM_PRIORITIES + 1, None)


def test_twelve_levels_main_weaker_than_all():
    assert NUM_PRIORITIES == 12
    assert MAIN_PRIORITY == 13


def test_pop_runnable_is_strictly_below_the_limit():
    st = Store()
    sched = Scheduler(st)
    s = Suspension(1, Atom("g"), 5, None)
    sched.schedule([s])
    assert sched.pop_runnable(5) is None  # own priority does not interrupt
    assert sched.pop_runnable(6) is s


def test_urgency_order_and_fifo_within_a_bucket():
    st = Store()
    sched = Scheduler(st)
    a = Suspension(1, Atom("a"), 7, None)
    b = Suspension(2, Atom("b"), 2, None)
    c = Suspension(3, Atom("c"), 7, None)
    for s in (a, b, c):
        sched.schedule([s])
    order = []
    s = sched.pop_runnable(MAIN_PRIORITY)
    while s is not None:
        order.append(s)
        st.set_slot(s, "state", EXECUTED)
        s = sched.pop_runnable(MAIN_PRIORITY)
    assert order == [b, a, c]


def test_redundant_waking_is_harmless():
    st = Store()
    sched = Scheduler(st)
    s = Suspension(1, Atom("g"), 3, None)
    sched.schedule([s])
    sched.schedule([s])
    assert sched.pop_runnable(MAIN_PRIORITY) is s
    st.set_slot(s, "state", EXECUTED)
    assert sched.pop_runnable(MAIN_PRIORITY) is None


def test_backtracking_unschedules_and_queue_skips_stale_entries():
    st = Store()
    sched = Scheduler(st)
    s = Suspension(1, Atom("g"), 3, None)
    m = st.push_choicepoint()
    sched.schedule([s])
    assert s.state == SCHEDULED
    st.backtrack_to(m)
    assert s.state == SUSPENDED  # the state change was trailed
    assert sched.pop_runnable(MAIN_PRIORITY) is None  # stale entry dropped
    sched.schedule([s])
    assert sched.pop_runnable(MAIN_PRIORITY) is s


def test_waking_is_two_stage(engine):
    runs = []

    def bi(eng, args, module):
        runs.append(1)
        return True

    engine.add_builtin(engine.main, "tick", 0, bi)
    s = engine.make_suspension(Atom("tick"), 5)
    engine.sched.schedule([s])
    assert runs == []  # only moved to the queue
    assert s.state == SCHEDULED
    assert engine.drain()
    assert runs == [1]
    assert s.state == EXECUTED


def test_demon_goes_back_to_suspended_and_fires_repeatedly(engine):
    runs = []

    def bi(eng, args, module):
        runs.append(1)
        return True

    pred = engine.add_builtin(engine.main, "tick", 0, bi)
    pred.demon = True
    s = engine.make_suspension(Atom("tick"), 4)
    assert s.demon
    for _ in range(5):
        engine.sched.schedule([s])
        assert engine.drain()
        assert s.state == SUSPENDED
    assert len(runs) == 5
    engine.kill_suspension(s)
    engine.sched.schedule([s])
    assert engine.drain()
    assert len(runs) == 5  # killed demons never run again


def test_kill_is_undone_by_backtracking(engine):
    st = engine.store
    s = engine.make_suspension(Atom("true"), 6)
    m = st.push_choicepoint()
    engine.kill_suspension(s)
    assert s.state == EXECUTED
    st.backtrack_to(m)
    assert s.state == SUSPENDED


def test_kill_suspension_from_prolog_drops_a_live_suspension(engine):
    [a] = engine.ask("make_suspension(writeln(hi), 3, S)")
    assert a.delayed == ["writeln(hi)"]
    [b] = engine.ask("make_suspension(writeln(hi), 3, S), kill_suspension(S)")
    assert b.delayed == []
    # backtracking past the kill revives the suspension
    [c] = engine.ask("make_suspension(writeln(hi), 3, S), "
                     "( kill_suspension(S), fail ; true )")
    assert c.delayed == ["writeln(hi)"]


def test_suspension_record_is_undone_by_backtracking(engine):
    st = engine.store
    m = st.push_choicepoint()
    s = engine.make_suspension(Atom("true"), 6)
    assert s.sid in engine.suspensions
    st.backtrack_to(m)
    assert s.sid not in engine.suspensions


def test_more_urgent_wakings_interrupt_a_running_goal(engine):
    events = []
    susps = {}

    def bi_emit(eng, args, module):
        events.append(deref(args[0]).name)
        return True

    def bi_kick(eng, args, module):
        eng.sched.schedule([susps[deref(args[0]).name]])
        return True

    engine.add_builtin(engine.main, "emit", 1, bi_emit)
    engine.add_builtin(engine.main, "kick", 1, bi_kick)
    engine.load("mid :- emit(mid1), kick(hi), kick(lazy), emit(mid2).")
    susps["hi"] = engine.make_suspension(Struct("emit", [Atom("hi")]), 2)
    susps["lazy"] = engine.make_suspension(Struct("emit", [Atom("lazy")]), 11)
    assert engine.once("suspend(mid, 8, Y -> inst), Y = go") is not None
    # hi (prio 2) cut in while mid (prio 8) was running; lazy (prio 11) waited
    assert events == ["mid1", "hi", "mid2", "lazy"]


def test_a_less_urgent_entry_does_not_make_the_loop_poll(engine, monkeypatch):
    """While a woken goal runs, a queued entry less urgent than it waits
    without a drain before each of the goal's subgoals."""
    pops = []
    pop_runnable = Scheduler.pop_runnable

    def counted(self, limit):
        pops.append(limit)
        return pop_runnable(self, limit)
    monkeypatch.setattr(Scheduler, "pop_runnable", counted)
    engine.load("count(N, N) :- !.\n"
                "count(I, N) :- I1 is I + 1, count(I1, N).")
    got = engine.ask("suspend(count(0, 1000), 5, Y -> inst), "
                     "suspend(Z = late, 7, Y -> inst), Y = go")
    assert [(a["Y"].name, a["Z"].name, a.delayed) for a in got] == [
        ("go", "late", [])]
    assert len(pops) <= 5


def test_woken_goal_leaves_its_alternatives(engine):
    engine.load("pick(1).\npick(2).")
    got = engine.ask("suspend(pick(X), 5, Y -> inst), Y = a")
    assert [a["X"] for a in got] == [1, 2]
    got = engine.once("suspend(pick(X), 5, Y -> inst), Y = a, X > 1")
    assert got["X"] == 2 and got.delayed == []


def test_drain_reports_waking_failure(engine):
    s = engine.make_suspension(Struct("=", [Atom("a"), Atom("b")]), 5)
    engine.sched.schedule([s])
    assert not engine.drain()


def test_a_failing_woken_goal_fails_its_query(first):
    assert first("suspend(fail, 5, Y -> inst), Y = a") is None
    assert first("suspend(fail, 5, Y -> inst)").delayed == ["fail"]


def test_suspend_goal_runs_on_instantiation(first):
    got = first("suspend(Y = done, 3, [X -> inst]), X = go")
    assert got is not None
    assert got["Y"].name == "done"
    assert got.delayed == []


def test_woken_metacall_runs_its_goal(first):
    got = first("suspend(call(X = 1), 3, [Y -> inst]), Y = a")
    assert got is not None and got["X"] == 1
    assert got.delayed == []


def test_delayed_goal_reported_when_never_woken(first):
    got = first("suspend(true, 3, [X -> inst])")
    assert got is not None
    assert got.delayed == ["true"]


def test_scheduler_count_stays_exact(engine):
    """Random schedules, kills, backtracks and pops keep the count equal
    to the entries in the buckets, stale ones included."""
    rng = random.Random(20261018)
    st, sched = engine.store, engine.sched
    susps = [engine.make_suspension(Atom("true"), rng.randint(1, NUM_PRIORITIES))
             for _ in range(10)]
    marks = [st.push_choicepoint()]
    for _ in range(2000):
        r = rng.random()
        if r < 0.3:
            sched.schedule(rng.sample(susps, rng.randint(1, 4)))
        elif r < 0.45:
            engine.kill_suspension(rng.choice(susps))
        elif r < 0.6:
            marks.append(st.push_choicepoint())
        elif r < 0.7:
            k = rng.randrange(len(marks))
            del marks[k + 1:]
            st.backtrack_to(marks[k])
        else:
            s = sched.pop_runnable(rng.randint(1, MAIN_PRIORITY))
            if s is not None:
                st.set_slot(s, "state", rng.choice([SUSPENDED, EXECUTED]))
        assert sched.count == sum(map(len, sched.buckets))
    assert sched.count > 0


def test_scheduler_pops_what_a_full_scan_finds(engine):
    """The scan that starts at ``low`` pops what scanning every bucket
    from priority 1 would, and no entry sits in a bucket above ``low``."""
    rng = random.Random(20261021)
    st, sched = engine.store, engine.sched
    susps = [engine.make_suspension(Atom("true"),
                                    rng.randint(1, NUM_PRIORITIES))
             for _ in range(12)]
    marks = [st.push_choicepoint()]
    hits = 0
    for _ in range(3000):
        r = rng.random()
        if r < 0.35:
            sched.schedule(rng.sample(susps, rng.randint(1, 4)))
        elif r < 0.45:
            engine.kill_suspension(rng.choice(susps))
        elif r < 0.55:
            marks.append(st.push_choicepoint())
        elif r < 0.65:
            k = rng.randrange(len(marks))
            del marks[k + 1:]
            st.backtrack_to(marks[k])
        else:
            limit = rng.randint(1, MAIN_PRIORITY)
            want = next((s for p in range(1, min(limit, NUM_PRIORITIES + 1))
                         for s in sched.buckets[p] if s.state == SCHEDULED),
                        None)
            s = sched.pop_runnable(limit)
            assert s is want
            if s is not None:
                hits += 1
                st.set_slot(s, "state", rng.choice([SUSPENDED, EXECUTED]))
        assert not any(sched.buckets[1:sched.low])
    assert hits > 100


def _trail_shape(store, susps):
    return [(e[0], susps.index(e[1]), e[2], e[3]) if e[0] == "val" else e[0]
            for e in store.trail]


def test_schedule_trails_state_as_set_slot_does():
    """Random schedules, kills, pops, choicepoints and backtracks, done
    once through `Scheduler.schedule` and once with every state write
    through `Store.set_slot`: states, trail entries and segment stamps
    agree after every step, and each backtrack restores the states seen
    when its mark was pushed."""
    rng = random.Random(20261019)
    prios = [rng.randint(1, NUM_PRIORITIES) for _ in range(10)]
    worlds = []
    for _ in range(2):
        susps = [Suspension(i, Atom("g"), p, None)
                 for i, p in enumerate(prios)]
        st = Store()
        worlds.append((st, Scheduler(st), susps))

    def states(w):
        return [s.state for s in w[2]]

    marks = []  # (mark of each world, states when pushed)
    moved = trailed = 0
    for _ in range(3000):
        r = rng.random()
        picked = rng.sample(range(10), rng.randint(1, 5))
        if r < 0.3:
            st, sched, susps = worlds[0]
            before = len(st.trail)
            moved += sum(susps[i].state == SUSPENDED for i in picked)
            sched.schedule([susps[i] for i in picked])
            trailed += len(st.trail) - before
            st, _, susps = worlds[1]
            for i in picked:
                if susps[i].state == SUSPENDED:
                    st.set_slot(susps[i], "state", SCHEDULED)
        elif r < 0.45:
            for st, _, susps in worlds:
                if susps[picked[0]].state != EXECUTED:
                    st.set_slot(susps[picked[0]], "state", EXECUTED)
        elif r < 0.55:
            # a popped demon's untrailed reset, in the segment that
            # scheduled it (the invariant in the susp module docstring)
            for st, _, susps in worlds:
                s = susps[picked[0]]
                if s.state == SCHEDULED and s.stamp == st.current_stamp():
                    s.state = SUSPENDED
        elif r < 0.75 or not marks:
            marks.append(([w[0].push_choicepoint() for w in worlds],
                          states(worlds[0])))
        else:
            k = rng.randrange(len(marks))
            del marks[k + 1:]
            for w, m in zip(worlds, marks[k][0]):
                w[0].backtrack_to(m)
            assert states(worlds[0]) == marks[k][1]
        assert states(worlds[0]) == states(worlds[1])
        assert _trail_shape(worlds[0][0], worlds[0][2]) \
            == _trail_shape(worlds[1][0], worlds[1][2])
        assert [s.stamp for s in worlds[0][2]] \
            == [s.stamp for s in worlds[1][2]]
    # both the first write of a segment and a repeated one were seen
    assert moved > trailed > 100


# ----------------------------------------------------------------------
# the wake path: woken builtins run without a mark of their own

def _bound_in_a_solution(engine, text):
    """Run ``text`` and leave its first solution's bindings in place:
    returns the solution generator (kept open) and the variable map."""
    goal, varmap = engine.parse_goal(text)
    sols = engine.solutions(goal)
    next(sols)
    return sols, varmap


def test_woken_bool_demon_pushes_no_choicepoint(engine, monkeypatch):
    sols, vm = _bound_in_a_solution(engine, "[X, Y] :: 1..3, X #\\= Y")
    st = engine.store
    pushes = []
    push = Store.push_choicepoint
    monkeypatch.setattr(Store, "push_choicepoint",
                        lambda self: pushes.append(1) or push(self))
    height = len(st.choicepoints)
    assert st.unify(vm["X"], 1)
    assert engine.drain()
    assert pushes == []
    assert len(st.choicepoints) == height
    assert engine.format_term(vm["Y"]) == "_{2..3}"
    sols.close()


@pytest.mark.parametrize("binding_clause", ["p(3).", "p(X) :- X = 3."])
def test_failing_demon_writes_are_undone_by_the_callers_mark(
        engine, monkeypatch, binding_clause):
    """Binding X wakes `A + X #=< 10`, which narrows A, then `B #= X + 5`,
    which narrows B's upper bound past the hole at 8 and then wipes B out.
    The second clause sees the state from before the first one."""
    snaps = []
    narrowings = []
    taken_at = []

    def snapshot(eng, args, module):
        snaps.append((
            [eng.format_term(v) for v in args],
            [eng.format_goal(s) for s in eng.pending()],
            {sid: s.state for sid, s in eng.suspensions.items()}))
        taken_at.append(len(narrowings))
        return True

    def recording(fn):
        def wrapper(*args):
            ok = fn(*args)
            narrowings.append(ok)
            return ok
        return wrapper

    engine.add_builtin(engine.main, "snapshot", 3, snapshot)
    engine.load(binding_clause + "\np(_).")
    goal, _ = engine.parse_goal(
        "X :: 0..10, A :: 0..10, B :: [5, 6, 7, 9, 10],"
        " A + X #=< 10, B #= X + 5, snapshot(X, A, B),"
        " p(X), snapshot(X, A, B)")
    monkeypatch.setattr(ic, "_update", recording(ic._update))
    sols = engine.solutions(goal)
    next(sols)
    before, after = snaps
    assert before[0] == ["_{0..5}", "_{0..10}", "_{[5..7, 9..10]}"]
    assert len(before[1]) == 2
    assert after == before
    # the first clause narrowed A to 0..7 and B to 5..7, then wiped B out
    assert narrowings[taken_at[0]:taken_at[1]] == [True, True, False]
    sols.close()


def test_demons_are_popped_in_the_segment_that_scheduled_them(monkeypatch):
    """Every pop in the benchmark's programs happens in the segment that
    last trailed the entry's state, so none of them trails a re-queue
    entry (the re-queue rule in the susp module docstring)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    store = [None]
    checked = []
    pop = Scheduler.pop_runnable

    def checking(self, priority_limit):
        s = pop(self, priority_limit)
        if s is not None:
            assert s.stamp == store[0].current_stamp(), s
            checked.append(s)
        return s

    monkeypatch.setattr(Scheduler, "pop_runnable", checking)
    queens = [("count_queens(6, input_order, C)", 4),
              ("count_queens(6, first_fail, C)", 4)]
    linear = [("magic(C)", 8), ("coins(40, C)", 31), ("send_more(C)", None)]
    for program, queries in ((workloads.QUEENS_PROGRAM, queens),
                             (workloads.LINEAR_PROGRAM, linear)):
        engine = make_engine()
        store[0] = engine.store
        engine.load(program)
        for query, count in queries:
            got = engine.once(query)
            assert got is not None, query
            if count is not None:
                assert got["C"] == count, query
    assert len(checked) > 1000


def test_woken_generator_builtin_leaves_its_alternatives(ask):
    got = ask("X :: 1..3, suspend(indomain(X), 3, Y -> inst), Y = a")
    assert [a["X"] for a in got] == [1, 2, 3]
    assert all(a.delayed == [] for a in got)


# ----------------------------------------------------------------------
# woken goals in the resolvent: alternatives, cuts and priorities

@pytest.mark.parametrize("query, name, want", [
    ("suspend(member(X, [1,2,3]), 3, Y -> inst), Y = 1, X > 1", "X", "2"),
    ("X :: 1..3, suspend(indomain(X), 3, Y -> inst), Y = 1, X > 1", "X", "2"),
    ("findall(X, (suspend(member(X, [1,2,3]), 3, Y -> inst), Y = 1), L)",
     "L", "[1, 2, 3]"),
])
def test_backtracking_reaches_a_woken_goals_alternatives(first, fmt, query,
                                                          name, want):
    got = first(query)
    assert fmt(got[name]) == want and got.delayed == []


def test_a_woken_goals_cut_is_local_to_it(first):
    got = first("member(A, [1,2]), suspend((true, !), 3, Y -> inst), Y = 1,"
                " A > 1")
    assert got["A"] == 2


def test_a_woken_goal_that_fails_backtracks_into_the_youngest_alternative(
        ask):
    got = ask("member(A, [1,2,3]), suspend(A >= 2, 3, Y -> inst), Y = 1")
    assert [a["A"] for a in got] == [2, 3]


def test_entries_queued_before_a_woken_goals_choicepoint_run_again(first,
                                                                    ask, fmt):
    """The #\\= demon is queued with the more urgent member/2 goal, popped
    after member/2 pushed its clause retry, and must run again in the
    second clause: the pop re-queues it on backtracking."""
    got = first("Y :: 1..2, X :: 1..2, X #\\= Y,"
                " suspend(member(Z, [1, 2]), 2, Y -> inst), Y = 1, Z >= 2")
    assert (got["X"], got["Z"]) == (2, 2) and got.delayed == []
    got = first("findall(Z, (suspend(member(Z, [2, 1]), 2, Y -> inst),"
                " suspend(Z >= 2, 5, Y -> inst), Y = a), L)")
    assert fmt(got["L"]) == "[2]"
    # the less urgent goal is re-queued for each of three alternatives
    assert [a["Z"] for a in ask(
        "suspend(member(Z, [1, 2, 3]), 2, Y -> inst),"
        " suspend(Z >= 2, 5, Y -> inst), Y = a")] == [2, 3]


def test_backtracking_restores_a_woken_goals_priority(engine):
    """g(1) runs at priority 5 and wakes the priority-7 goal, which waits
    until g's goal is done; backtracking into member/2 runs the second
    clause at priority 5 again, so lazy waits again."""
    import io
    out = io.StringIO()
    engine.out = out
    got = engine.once(
        "suspend((member(Z, [1, 2]), W = go, writeln(g(Z))), 5, Y -> inst),"
        " suspend(writeln(lazy), 7, W -> inst), Y = a, Z >= 2")
    assert got["Z"] == 2
    assert out.getvalue().split() == ["g(1)", "lazy", "g(2)", "lazy"]
    assert engine.store.running_priority == MAIN_PRIORITY


def test_the_running_priority_is_restored_after_a_failure_or_an_error(
        engine):
    assert engine.once("suspend(fail, 3, Y -> inst), Y = a") is None
    assert engine.store.running_priority == MAIN_PRIORITY
    with pytest.raises(EngineError):
        engine.once("suspend(no_such_predicate, 3, Y -> inst), Y = a")
    assert engine.store.running_priority == MAIN_PRIORITY
    assert engine.store.choicepoints == [] and engine.store.trail == []


def test_a_pop_in_a_younger_segment_is_undone_by_backtracking(engine):
    """`drain` pops a demon scheduled below a live choicepoint; backtracking
    to that choicepoint puts it back at the front of its bucket."""
    runs = []

    def bi(eng, args, module):
        runs.append(1)
        return True

    pred = engine.add_builtin(engine.main, "tick", 0, bi)
    pred.demon = True
    st, sched = engine.store, engine.sched
    s = engine.make_suspension(Atom("tick"), 4)
    other = engine.make_suspension(Atom("tick"), 4)
    base = st.push_choicepoint()
    engine.sched.schedule([s, other])
    m = st.push_choicepoint()
    assert engine.drain() and runs == [1, 1]
    assert s.state == SUSPENDED and sched.count == 0
    st.backtrack_to(m)
    assert s.state == SCHEDULED and other.state == SCHEDULED
    assert list(sched.buckets[4]) == [s, other] and sched.count == 2
    st.backtrack_to(base)
    assert s.state == SUSPENDED
    assert sched.pop_runnable(MAIN_PRIORITY) is None  # stale entries
