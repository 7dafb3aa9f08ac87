"""Unification with attributed variables: handler hooks and waking events."""

import pytest

from clpkernel.attvar import (AttributeSpec, add_attr, get_attr,
                              notify_constrained)
from clpkernel.errors import EngineError
from clpkernel.susp import SUSPENDED
from clpkernel.terms import NO_ATTRS, Atom, Struct, Var, deref


def probe(engine):
    """A builtin probe(X) that records what it was called with."""
    calls = []

    def bi(eng, args, module):
        calls.append(deref(args[0]).name)
        return True

    engine.add_builtin(engine.main, "probe", 1, bi)
    return calls


def test_instantiation_wakes_inst_bound_and_constrained(engine):
    calls = probe(engine)
    st = engine.store
    x = Var()
    for cond in ("inst", "bound", "constrained"):
        s = engine.make_suspension(Struct("probe", [Atom(cond)]), 5)
        engine.attach_suspension(s, x, cond)
    assert st.unify(x, Atom("hello"))
    assert engine.drain()
    assert calls == ["inst", "bound", "constrained"]


def test_aliasing_wakes_bound_but_not_inst(engine):
    calls = probe(engine)
    st = engine.store
    x = Var()
    si = engine.make_suspension(Struct("probe", [Atom("inst")]), 5)
    engine.attach_suspension(si, x, "inst")
    sb = engine.make_suspension(Struct("probe", [Atom("bound")]), 5)
    engine.attach_suspension(sb, x, "bound")
    assert st.unify(x, Var())
    assert engine.drain()
    assert calls == ["bound"]
    # the inst suspension is still alive and fires on real instantiation
    assert si.state == SUSPENDED
    assert st.unify(x, Atom("v"))
    assert engine.drain()
    assert calls == ["bound", "inst"]


def test_aliasing_merges_lists_into_survivor(engine):
    calls = probe(engine)
    st = engine.store
    older = Var()
    younger = Var()
    s = engine.make_suspension(Struct("probe", [Atom("mig")]), 5)
    engine.attach_suspension(s, younger, "inst")
    assert st.unify(older, younger)
    assert deref(younger) is older
    assert engine.drain()
    assert calls == []  # aliasing is not an instantiation
    assert s in get_attr(older, "suspend").inst
    assert st.unify(older, 42)
    assert engine.drain()
    assert calls == ["mig"]


def test_waking_matrix(engine):
    """Which attach conditions fire on which events."""
    calls = probe(engine)
    fires = {
        ("instantiate", "inst"): True,
        ("instantiate", "bound"): True,
        ("instantiate", "constrained"): True,
        ("alias", "inst"): False,
        ("alias", "bound"): True,
        ("alias", "constrained"): True,
        ("touch", "inst"): False,
        ("touch", "bound"): False,
        ("touch", "constrained"): True,
    }
    st = engine.store
    for (event, cond), expected in fires.items():
        del calls[:]
        x = Var()
        s = engine.make_suspension(Struct("probe", [Atom(cond)]), 5)
        engine.attach_suspension(s, x, cond)
        if event == "instantiate":
            assert st.unify(x, 1)
        elif event == "alias":
            assert st.unify(x, Var())
        else:
            notify_constrained(engine, x)
        assert engine.drain()
        assert (calls == [cond]) == expected, (event, cond)


def test_unify_handler_can_veto(engine):
    def only_even(value, payload, var):
        return isinstance(value, int) and value % 2 == 0

    engine.registry.register(AttributeSpec(name="even_only", unify=only_even))
    st = engine.store
    x = Var()
    add_attr(st, x, "even_only", True)
    m = st.push_choicepoint()
    assert not st.unify(x, 3)
    st.backtrack_to(m)
    assert deref(x) is x
    assert st.unify(x, 4)
    assert deref(x) == 4


def test_unify_handler_sees_the_bound_variable(engine):
    seen = []

    def spy(value, payload, var):
        seen.append((value, deref(var), payload))
        return True

    engine.registry.register(AttributeSpec(name="spy", unify=spy))
    st = engine.store
    x = Var()
    add_attr(st, x, "spy", "mark")
    assert st.unify(x, Atom("done"))
    # the variable already dereferences to its new value inside the hook
    assert seen == [(Atom("done"), Atom("done"), "mark")]


def test_attribute_attach_is_trailed(engine):
    st = engine.store
    x = Var()
    m = st.push_choicepoint()
    add_attr(st, x, "tag", 7)
    assert get_attr(x, "tag") == 7
    st.backtrack_to(m)
    assert get_attr(x, "tag") is None


def test_backtracking_past_the_first_attribute_restores_no_attrs(engine):
    st = engine.store
    x = Var()
    m = st.push_choicepoint()
    add_attr(st, x, "tag", 7)
    add_attr(st, x, "other", 8)
    st.backtrack_to(m)
    assert x.attrs is NO_ATTRS


def test_a_replaced_attribute_keeps_its_place(engine):
    st = engine.store
    x = Var()
    add_attr(st, x, "tag", 1)
    add_attr(st, x, "other", 2)
    add_attr(st, x, "tag", 3)
    assert list(x.attrs.items()) == [("tag", 3), ("other", 2)]


def test_aliasing_runs_handlers_in_attach_order(engine):
    # the bound variable's own handlers in the order they were attached,
    # then the survivor's other attributes with payload None
    calls = []

    def recorder(name):
        def unify(value, payload, var):
            calls.append((name, payload))
            return True
        return unify

    for name in ("a", "b", "c", "d"):
        engine.registry.register(AttributeSpec(name=name,
                                               unify=recorder(name)))
    st = engine.store
    survivor = Var()
    add_attr(st, survivor, "d", "d0")
    add_attr(st, survivor, "a", "a0")
    add_attr(st, survivor, "c", "c0")
    bound = Var()  # younger, so unify binds it to the survivor
    add_attr(st, bound, "b", "b1")
    add_attr(st, bound, "a", "a1")
    assert st.unify(survivor, bound)
    assert deref(bound) is survivor
    assert calls == [("b", "b1"), ("a", "a1"), ("d", None), ("c", None)]


def test_attribute_replaced_not_duplicated(engine):
    st = engine.store
    x = Var()
    add_attr(st, x, "tag", 1)
    add_attr(st, x, "tag", 2)
    assert get_attr(x, "tag") == 2
    assert len(x.attrs) == 1


def test_inert_attribute_rides_along(engine):
    # attributes without registered handlers never block unification
    st = engine.store
    x = Var()
    add_attr(st, x, "luggage", ["a", "b"])
    assert st.unify(x, Struct("f", [Atom("y")]))
    assert deref(x).name == "f"


def test_plain_variables_stay_plain(engine):
    # nothing waits on them, so binding them attaches nothing
    st = engine.store
    xs = [Var() for _ in range(6)]
    assert st.unify(xs[0], xs[1])
    assert st.unify(xs[2], xs[1])
    assert st.unify(xs[3], Struct("f", [xs[4], xs[0]]))
    assert st.unify(Struct("g", [xs[5], xs[4]]),
                    Struct("g", [xs[2], Struct("h", [xs[0]])]))
    assert deref(xs[5]) is deref(xs[0])
    assert all(x.attrs is NO_ATTRS for x in xs)


def test_add_attr_refuses_a_solver_attribute(engine):
    # their unify handlers would read the term as their own payload
    for name in ("ic", "suspend"):
        with pytest.raises(EngineError, match="add_attr"):
            engine.once("add_attr(X, %s, foo), X = 2" % name)
    got = engine.once("add_attr(X, tag, foo), get_attr(X, tag, V), X = 2")
    assert got["V"] is Atom("foo") and got["X"] == 2
