"""Attributed variables: named payloads plus handler hooks.

Everything attached to a variable is an attribute (Holzbaur, PLILP
1992): binding a variable runs its attributes' unify handlers and nothing
else.  ``Var.attrs`` maps each attribute's name to its payload, in the
order the attributes were attached, so a solver reaches its own with
``attrs.get(name)``.  The mapping is never changed in place: `add_attr`
and `init_attr` write a new dict, so the trail restores the old mapping
on backtracking.  An attribute is registered once per engine with its
handlers:

* unify(value, payload, var) -> bool
      invoked immediately after ``var`` (which carried ``payload``) was
      bound to ``value`` -- the variable already dereferences to its new
      value.  Returning False vetoes the unification.  For variable-
      variable unification ``value`` is the surviving variable and the
      handler is responsible for merging payloads (e.g. intersecting
      domains); the survivor's attributes that ``var`` lacks run with
      payload None.  ``value`` is dereferenced before each handler, as
      an earlier one may have bound it.
* copy(payload, fresh_var)
      invoked by copy_term for each attributed variable; typically
      attaches a copy of the payload (minus suspension lists) to the
      fresh variable.
* get_list(engine, var, list_name) -> (owner, slot) or None
      resolves a suspension list (e.g. ic's min/max/hole/type) to a
      trailable location so that `Engine.attach_suspension` can append
      to it.
* portray(var, payload) -> str or None
      a print hook for the writer ("_{1..5}" and friends).

There is no bounds hook: ic is the only solver with bounds, and its
builtins read and narrow them directly.

The ``suspend`` attribute (`install`) holds the generic suspension lists
in a `Suspend` record, which `suspend_record` finds or makes on the first
attach, for the attribute's ``get_list`` and for ic's posting alike.  Its
unify handler alone decides what wakes and how a bound variable's lists
join the survivor's.

Attributes without handlers are inert: they ride along on the variable,
can be read back, and vanish when the variable is instantiated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import InstantiationError, RegistrationError
from .terms import Var, deref


@dataclass
class AttributeSpec:
    name: str
    unify: Optional[Callable] = None
    copy: Optional[Callable] = None
    get_list: Optional[Callable] = None
    portray: Optional[Callable] = None


class AttributeRegistry:
    def __init__(self):
        self._specs = {}
        self.lookup = self._specs.get  # called per attribute per binding

    def register(self, spec):
        if spec.name in self._specs:
            raise RegistrationError("attribute %r already registered" % spec.name)
        self._specs[spec.name] = spec


def get_attr(var, name):
    var = deref(var)
    if type(var) is not Var:
        return None
    return var.attrs.get(name)


def add_attr(store, var, name, payload):
    """Attach (or replace, in its place) an attribute.  The change is
    trailed: the mapping is replaced, so the trail keeps the old one."""
    var = deref(var)
    if type(var) is not Var:
        raise InstantiationError("add_attr: not an unbound variable: %r" % (var,))
    store.set_slot(var, "attrs", {**var.attrs, name: payload})
    return var


def init_attr(var, name, payload):
    """Attach an attribute to a freshly created variable without trailing.
    Newborn variables (copy_term output, renamed clause variables) have no
    prior state to restore, and their attributes must survive a backtrack
    past the point of copying."""
    var.attrs = {**var.attrs, name: payload}


def notify_constrained(engine, var):
    """Signal a generic 'became more constrained' event on var."""
    rec = get_attr(var, "suspend")
    if rec is not None and rec.constrained:
        engine.sched.schedule(rec.constrained)


def join_lists(store, into, extra, slots):
    """Append extra's lists ``slots`` to into's: how lists join on aliasing."""
    for slot in slots:
        lst = getattr(extra, slot)
        if lst:
            store.set_slot(into, slot, getattr(into, slot) + lst)


class Suspend:
    """The ``suspend`` attribute's payload.  ``inst`` wakes on
    instantiation, ``bound`` also on aliasing, ``constrained`` also on
    any narrowing (`notify_constrained`, ic's domain writer)."""

    __slots__ = ("inst", "bound", "constrained", "_stamps")

    def __init__(self):
        self.inst = self.bound = self.constrained = ()
        self._stamps = None


def suspend_record(engine, var):
    """The `Suspend` record of the free variable var, made on first use:
    the one way to find the record that a suspension is attached to."""
    rec = var.attrs.get("suspend")
    if rec is None:
        rec = Suspend()
        add_attr(engine.store, var, "suspend", rec)
    return rec


def install(engine):
    """Register the ``suspend`` attribute with the engine's registry."""
    lists = ("inst", "bound", "constrained")

    def on_unify(value, payload, var):
        sched = engine.sched
        if type(value) is not Var:  # instantiation
            if payload is not None:  # else value's own binding woke it
                sched.schedule(payload.inst + payload.bound
                               + payload.constrained)
            return True
        other = get_attr(value, "suspend")
        if payload is None:
            sched.schedule(other.bound + other.constrained)
        elif other is None:
            sched.schedule(payload.bound + payload.constrained)
            add_attr(engine.store, value, "suspend", payload)
        else:
            sched.schedule(payload.bound + payload.constrained + other.bound
                           + other.constrained)
            join_lists(engine.store, other, payload, lists)
        return True

    def get_list(eng, var, name):
        if name not in lists:
            return None
        return suspend_record(eng, var), name

    engine.registry.register(AttributeSpec(
        name="suspend", unify=on_unify, get_list=get_list))

