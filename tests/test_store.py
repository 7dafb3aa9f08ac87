"""The binding store: trailing, timestamps, choicepoints."""

import random

import pytest

from clpkernel.errors import InternalError
from clpkernel.store import Store
from clpkernel.terms import Atom, Struct, Var, deref


def test_bind_and_backtrack():
    st = Store()
    x = Var()
    m = st.push_choicepoint()
    assert st.bind(x, 42)
    assert deref(x) == 42
    st.backtrack_to(m)
    assert deref(x) is x


def test_unify_structs():
    st = Store()
    x, y = Var(), Var()
    assert st.unify(Struct("f", [x, Atom("b")]), Struct("f", [Atom("a"), y]))
    assert deref(x) is Atom("a")
    assert deref(y) is Atom("b")


def test_unify_failure_leaves_partial_bindings():
    # the engine wraps unification in a choicepoint; the store itself
    # does not roll back a failed halfway unification
    st = Store()
    x = Var()
    m = st.push_choicepoint()
    assert not st.unify(Struct("f", [x, x]),
                        Struct("f", [Atom("c"), Atom("d")]))
    # one of the argument pairs got as far as binding x before the clash
    assert deref(x) is not x
    st.backtrack_to(m)
    assert deref(x) is x


def test_var_var_unify_older_survives():
    st = Store()
    a = Var()
    b = Var()
    assert st.unify(a, b)
    # the younger variable must point at the older one
    assert b.ref is a
    assert a.ref is None


def test_commit_keeps_bindings_drops_mark():
    st = Store()
    x = Var()
    outer = st.push_choicepoint()
    inner = st.push_choicepoint()
    st.bind(x, 1)
    st.commit_to(inner)
    assert deref(x) == 1
    st.backtrack_to(outer)       # outer mark still undoes the binding
    assert deref(x) is x


def test_dead_mark_raises():
    st = Store()
    m1 = st.push_choicepoint()
    m2 = st.push_choicepoint()
    st.backtrack_to(m1)          # discards m2
    with pytest.raises(InternalError):
        st.backtrack_to(m2)


def test_foreign_mark_raises():
    st1 = Store()
    st2 = Store()
    m = st1.push_choicepoint()
    with pytest.raises(InternalError):
        st2.backtrack_to(m)


def test_value_trailing_restores_slots():
    st = Store()
    s = Struct("cell", [Atom("old")])
    m = st.push_choicepoint()
    st.set_arg(1, s, Atom("new"))
    assert deref(s.args[0]) is Atom("new")
    st.backtrack_to(m)
    assert deref(s.args[0]) is Atom("old")


def test_timestamp_dedup_single_entry_per_slot_per_choicepoint():
    st = Store()
    s = Struct("cell", [0])
    st.push_choicepoint()
    base = len(st.trail)
    for i in range(10):
        st.set_arg(1, s, i)
    # only the first write in this choicepoint segment is trailed
    assert len(st.trail) == base + 1


def test_timestamp_dedup_resets_across_choicepoints():
    st = Store()
    s = Struct("cell", [0])
    st.push_choicepoint()
    st.set_arg(1, s, 1)
    st.push_choicepoint()
    base = len(st.trail)
    st.set_arg(1, s, 2)
    assert len(st.trail) == base + 1


def test_retrailing_after_backtrack():
    # after backtracking, the same slot must be trailed again: the old
    # dedup stamp is gone with the trail entry
    st = Store()
    s = Struct("cell", [0])
    m = st.push_choicepoint()
    st.set_arg(1, s, 1)
    st.backtrack_to(m)
    assert deref(s.args[0]) == 0
    st.set_arg(1, s, 2)
    st.backtrack_to(m)
    assert deref(s.args[0]) == 0


def test_register_undo_runs_on_backtrack():
    st = Store()
    log = []
    m = st.push_choicepoint()
    st.register_undo(lambda: log.append("undone"))
    st.backtrack_to(m)
    assert log == ["undone"]


def test_register_undo_not_run_on_commit():
    st = Store()
    log = []
    outer = st.push_choicepoint()
    m = st.push_choicepoint()
    st.register_undo(lambda: log.append("undone"))
    st.commit_to(m)
    assert log == []
    st.backtrack_to(outer)
    assert log == ["undone"]


def test_drop_restores_and_removes_mark():
    # drop_to = backtrack_to + pop the mark itself: undoes everything
    # after the mark and leaves the outer choicepoint on top
    st = Store()
    x = Var()
    y = Var()
    outer = st.push_choicepoint()
    st.bind(y, 1)
    inner = st.push_choicepoint()
    st.bind(x, 7)
    st.drop_to(inner)
    assert deref(x) is x
    assert deref(y) == 1
    with pytest.raises(InternalError):
        st.backtrack_to(inner)  # the mark is gone
    st.backtrack_to(outer)
    assert deref(y) is y


def snapshot(cells, vars_):
    return ([deref(c.args[0]) for c in cells], [deref(v) for v in vars_])


def _val_entries(st, since):
    return [e for e in st.trail[since:] if e[0] == "val"]


def test_randomized_restoration():
    """Random interleavings of binds, destructive writes, choicepoints
    and backtracks always restore exactly the snapshotted state.  After
    each backtrack, a slot written before it is trailed again exactly
    once in the restarted segment, by set_arg and by set_slot alike."""
    rng = random.Random(20240811)
    for _ in range(60):
        st = Store()
        cells = [Struct("cell", [i]) for i in range(4)]
        objs = [_Slots(i) for i in range(4)]
        vars_ = [Var() for _ in range(6)]
        written = set()  # indices of the cells and objs written so far
        stack = []  # (mark, snapshot)
        for _step in range(rng.randrange(10, 60)):
            op = rng.random()
            if op < 0.35 or not stack:
                stack.append((st.push_choicepoint(), snapshot(cells, vars_)
                              + ([o.value for o in objs],)))
            elif op < 0.65:
                k = rng.randrange(len(cells))
                st.set_arg(1, cells[k], rng.randrange(100))
                st.set_slot(objs[k], "value", rng.randrange(100))
                written.add(k)
            elif op < 0.85:
                free = [v for v in vars_ if deref(v) is v]
                if free:
                    st.bind(rng.choice(free), rng.randrange(100))
            else:
                idx = rng.randrange(len(stack))
                mark, snap = stack[idx]
                del stack[idx:]
                st.backtrack_to(mark)
                assert snapshot(cells, vars_) + ([o.value for o in objs],) \
                    == snap
                if written:
                    k = rng.choice(sorted(written))
                    before = len(st.trail)
                    st.set_arg(1, cells[k], 100)
                    st.set_arg(1, cells[k], 101)
                    st.set_slot(objs[k], "value", 100)
                    st.set_slot(objs[k], "value", 101)
                    assert _val_entries(st, before) == [
                        ("val", cells[k], 0, snap[0][k]),
                        ("val", objs[k], "value", snap[2][k])]
        if stack:
            mark, snap = stack[0]
            st.backtrack_to(mark)
            assert snapshot(cells, vars_) + ([o.value for o in objs],) \
                == snap


class _Slots:
    __slots__ = ("value", "_stamps")

    def __init__(self, value):
        self.value = value
        self._stamps = None


def test_set_slot_and_set_arg_trail_alike():
    """set_slot makes the segment-stamp test inline and set_arg through
    trail_value: the same writes, choicepoints, cuts and backtracks give
    the same value entries and restore the same values."""
    rng = random.Random(20261022)
    for _ in range(40):
        st = Store()
        objs = [_Slots(i) for i in range(3)]
        cells = [Struct("cell", [i]) for i in range(3)]
        marks = []
        for _step in range(rng.randrange(10, 80)):
            op = rng.random()
            if op < 0.25 or not marks:
                marks.append(st.push_choicepoint())
            elif op < 0.75:
                k = rng.randrange(3)
                # set_slot skips a write of the value already there
                new = rng.choice([v for v in range(5) if v != objs[k].value])
                before = len(st.trail)
                st.set_slot(objs[k], "value", new)
                by_slot = st.trail[before:]
                st.set_arg(1, cells[k], new)
                by_arg = st.trail[before + len(by_slot):]
                assert [e[3] for e in by_slot] == [e[3] for e in by_arg]
            else:
                k = rng.randrange(len(marks))
                del marks[k + 1:]
                if rng.random() < 0.3:
                    st.commit_to(marks.pop())
                else:
                    st.backtrack_to(marks[k])
            assert [o.value for o in objs] == [c.args[0] for c in cells]


# ----------------------------------------------------------------------
# conditional trailing: a binding is trailed only when the variable is no
# newer than the youngest choicepoint

def _bind_entries(st):
    return sum(1 for e in st.trail if e[0] == "bind")


def test_binding_an_older_variable_is_trailed():
    st = Store()
    old = Var()
    st.push_choicepoint()
    st.bind(old, 1)
    assert _bind_entries(st) == 1


def test_binding_a_newer_variable_is_not_trailed():
    st = Store()
    st.push_choicepoint()
    new = Var()
    st.bind(new, 1)
    assert _bind_entries(st) == 0


def test_commit_lowers_the_trailing_horizon():
    st = Store()
    st.push_choicepoint()
    mid, mid2 = Var(), Var()
    inner = st.push_choicepoint()
    st.bind(mid, 1)              # older than the top mark: trailed
    assert _bind_entries(st) == 1
    st.commit_to(inner)
    st.bind(mid2, 2)             # newer than the new top: not trailed
    assert _bind_entries(st) == 1


def _sig(t):
    t = deref(t)
    if isinstance(t, Var):
        return ("var", id(t))
    if isinstance(t, Struct):
        return (t.name,) + tuple(_sig(a) for a in t.args)
    return ("val", t)


def test_conditional_trailing_keeps_backtracking_sound():
    """Each level creates fresh variables after its mark and binds fresh
    and older ones, some older ones to structs holding fresh ones, and
    aliases variables.  A level is sometimes committed, leaving its
    bindings to the enclosing level's backtrack.  After each backtrack
    every variable older than the mark is as it was."""
    rng = random.Random(20261018)
    untrailed = [0]

    for _trial in range(80):
        st = Store()

        def work(vars_):
            for _ in range(rng.randint(2, 8)):
                v = deref(rng.choice(vars_))
                if type(v) is not Var:
                    continue
                # embed only still-unbound variables: bind times then
                # order the reference graph, so no cycles
                free = [w for w in map(deref, vars_)
                        if type(w) is Var and w is not v]
                before = len(st.trail)
                r = rng.random()
                if r < 0.4 or not free:
                    st.bind(v, rng.randint(0, 9))
                elif r < 0.8:
                    st.bind(v, Struct("f", [rng.choice(free), Atom("a")]))
                else:
                    assert st.unify(v, rng.choice(free))
                if len(st.trail) == before:
                    untrailed[0] += 1

        def run_level(depth, older):
            before = [_sig(v) for v in older]
            tlen = len(st.trail)
            mark = st.push_choicepoint()
            vars_ = older + [Var() for _ in range(rng.randint(1, 4))]
            work(vars_)
            if depth < 3 and rng.random() < 0.7:
                run_level(depth + 1, vars_)
                work(vars_)
            if depth and rng.random() < 0.3:
                st.commit_to(mark)   # the enclosing level undoes this one
                return
            st.drop_to(mark)
            assert [_sig(v) for v in older] == before
            assert len(st.trail) == tlen

        run_level(0, [Var() for _ in range(6)])
    assert untrailed[0] > 100, "no binding went untrailed"
