"""Source-to-source transformations.

Three layers, all driven from per-module registries:

* term macros, applied bottom-up while reading (``with``/``of`` for named
  structure fields);
* goal macros, applied to clause bodies at load time and to metacalled
  goals at run time (do-loops, ``update_struct/4``);
* output transforms, applied by the writer (registered elsewhere).

A do-loop compiles into a fresh auxiliary predicate: a base clause,
guarded by a cut, and a recursive clause running the body.  Each
iteration specifier is, as in Schimpf's *Logical Loops* (ICLP 2002),
goals that set it up, ``fromto(First, In, Out, Last)`` quadruples, and
goals each step starts with (`_iter_plan`):

* ``foreach(X, L)`` is ``fromto(L, [X|T], T, [])``;
* ``count(I, Min, Max)`` is ``fromto(Min-1, I0, I, Max)`` and ``I is I0+1``;
* ``for(I, F, L, Step)`` is ``fromto(F1, I, I1, Stop)`` and ``I1 is
  I+Step``, after ``loop_for_setup`` computes ``F1`` and ``Stop``;
* ``foreacharg(X, T, Idx)`` is a parameter for ``T`` and ``fromto(1,
  Idx, I1, N+1)`` with ``arg(Idx, T, X)``; ``param(V)`` has no ``Last``.

First goes to the call, In to the recursive head, Out to the recursive
call.  A Last that is an atom or a number when the loop is expanded
stands in the base clause's head; any other is passed and unified
there.  So ``( for(I, 1, N), foreach(X, Xs) do p(I, X) )`` becomes::

    loop_for_setup(1, N, 1, F, _, Stop), do__1(F, Stop, Xs)

    do__1(S, S, []) :- !.
    do__1(I, S, [X|T]) :- I1 is I + 1, p(I, X), do__1(I1, S, T).

With a constant Last first (a ``foreach`` first), first-argument
indexing picks one clause per step, so the loop pushes no choicepoint
until the current value could be the end.

Iteration bodies only see variables introduced by their own iteration
specifiers (plus ``param`` variables); a body variable that also occurs
outside the loop is almost always a bug, so it gets a warning.

A metacalled loop (built at run time and called) is expanded on every
call, and its data may differ each time, so its auxiliary predicate is
listed in no module: the goals that call it carry it in their name (see
`Engine.unlisted_pred`), and it goes away with the last of them.
"""

from __future__ import annotations

import logging
from fractions import Fraction

from .errors import ExpansionError
from .terms import (NIL, TRUE, Atom, Struct, Var, deref, flatten_conj,
                    proper_list, show, term_vars, var_counts)

log = logging.getLogger("clpkernel")


# ----------------------------------------------------------------------
# conjunction helpers

def mk_conj(goals):
    goals = [g for g in goals if g is not TRUE]
    if not goals:
        return TRUE
    out = goals[-1]
    for g in reversed(goals[:-1]):
        out = Struct(",", [g, out])
    return out


# ----------------------------------------------------------------------
# struct declarations and the with/of term macros

class StructDecl:
    def __init__(self, name, fields):
        self.name = name
        self.fields = tuple(fields)
        self._index = {f: i + 1 for i, f in enumerate(self.fields)}

    def index(self, field):
        return self._index.get(field)


def parse_struct_decl(term):
    """Validate a declaration like struct(emp(name, age))."""
    t = deref(term)
    if not (isinstance(t, Struct) and t.arity >= 1):
        raise ExpansionError("struct declaration needs at least one field: %s"
                             % show(t))
    fields = []
    for a in t.args:
        a = deref(a)
        if not isinstance(a, Atom):
            raise ExpansionError("struct field names must be atoms: %s"
                                 % show(a))
        if a.name in fields:
            raise ExpansionError("duplicate struct field %r" % a.name)
        fields.append(a.name)
    return StructDecl(t.name, fields)


def _field_values(module, name, fields, what):
    """The declaration of the struct ``name`` and the values that the
    field list ``fields`` (``[field:Value, ...]``) gives, by argument
    position.  ``what`` names the construct in error messages."""
    name = deref(name)
    if not isinstance(name, Atom):
        raise ExpansionError("%s: struct name must be an atom: %s"
                             % (what, show(name)))
    decl = module.lookup_struct(name.name)
    if decl is None:
        raise ExpansionError("unknown structure %r" % name.name)
    items = proper_list(fields)
    if items is None:
        raise ExpansionError("%s: struct fields must be a proper list" % what)
    values = {}
    for item in items:
        item = deref(item)
        if not (isinstance(item, Struct) and item.name == ":" and item.arity == 2):
            raise ExpansionError("%s: struct field must be written "
                                 "name:Value: %s" % (what, show(item)))
        field = deref(item.args[0])
        if not isinstance(field, Atom):
            raise ExpansionError("%s: struct field name must be an atom: %s"
                                 % (what, show(field)))
        i = decl.index(field.name)
        if i is None:
            raise ExpansionError("structure %r has no field %r"
                                 % (name.name, field.name))
        if i in values:
            raise ExpansionError("duplicate field %r" % field.name)
        values[i] = item.args[1]
    return decl, values


def expand_with(module, t):
    """emp{age: A, name: N}  ==>  emp(N, A)  (declared field order)."""
    decl, values = _field_values(module, t.args[0], t.args[1], "with")
    args = [Var() for _ in decl.fields]
    for i, v in values.items():
        args[i - 1] = v
    return Struct(decl.name, args)


def expand_of(module, t):
    """age of emp  ==>  2  (the argument position of the field)."""
    field_t, name_t = (deref(a) for a in t.args)
    if not (isinstance(field_t, Atom) and isinstance(name_t, Atom)):
        return t  # leave other uses of of/2 alone
    decl = module.lookup_struct(name_t.name)
    if decl is None:
        raise ExpansionError("unknown structure %r" % name_t.name)
    idx = decl.index(field_t.name)
    if idx is None:
        raise ExpansionError("structure %r has no field %r"
                             % (name_t.name, field_t.name))
    return idx


# ----------------------------------------------------------------------
# goal expansion driver

#: the arity of each control construct and the positions of its
#: arguments that hold goals; a qualification ``Module:Goal`` is one
_CONTROL = {",": (2, (0, 1)), ";": (2, (0, 1)), "->": (2, (0, 1)),
            "\\+": (1, (0,)), "once": (1, (0,)), "not": (1, (0,)),
            "call": (1, (0,)), "findall": (3, (1,)), ":": (2, (1,))}


class ExpandContext:
    """Where a goal is expanded: ``clause`` is the program clause being
    loaded, and ``metacall`` is set for a goal expanded as it is called."""

    def __init__(self, module, engine=None, clause=None, metacall=False):
        self.module = module
        self.engine = engine
        self.clause = clause
        self.metacall = metacall
        self._counts = None

    def clause_counts(self):
        """Occurrences of each variable of the clause.  Only do-loops read
        them, so they are counted on the first one."""
        if self._counts is None:
            self._counts = {} if self.clause is None else var_counts(self.clause)
        return self._counts


def expand_body(ctx, goal):
    """Returns (expanded_goal, aux_clauses).  The goals of control
    constructs (`_CONTROL`) wait on a work stack, each with its context,
    and are expanded left to right; the constructs are rebuilt from them.
    So the size of a body is bounded by memory, not by Python's stack."""
    aux = []
    done = []  # the expanded goals, in order
    todo = [(ctx, goal)]
    while todo:
        ctx, g = todo.pop()
        if ctx is None:  # rebuild a construct from its last expanded goals
            name, args, holes = g
            for i in reversed(holes):
                args[i] = done.pop()
            done.append(Struct(name, args))
            continue
        while type(g) is Var and g.ref is not None:
            g = g.ref
        if type(g) is Struct:
            control = _CONTROL.get(g.name)
            if control is not None and control[0] == len(g.args):
                holes = control[1]
                if g.name == ":":
                    mod_t = deref(g.args[0])
                    if not (type(mod_t) is Atom and ctx.engine is not None
                            and mod_t.name in ctx.engine.modules):
                        done.append(g)
                        continue
                    ctx = ExpandContext(ctx.engine.modules[mod_t.name],
                                        ctx.engine, ctx.clause, ctx.metacall)
                todo.append((None, (g.name, list(g.args), holes)))
                for i in reversed(holes):
                    todo.append((ctx, g.args[i]))
                continue
            macro = ctx.module.lookup_goal_macro(g.name, len(g.args))
        elif type(g) is Atom:
            macro = ctx.module.lookup_goal_macro(g.name, 0)
        else:
            macro = None
        if macro is None:
            done.append(g)
        else:
            g, more = macro(ctx, g)
            done.append(g)
            aux += more
    return done[0], aux


def expand_clause(ctx, term):
    """Expand one program clause; returns (head, body, aux_clauses)."""
    t = deref(term)
    if isinstance(t, Struct) and t.name == ":-" and t.arity == 2:
        ctx.clause = t
        body, aux = expand_body(ctx, t.args[1])
        return t.args[0], body, aux
    return t, TRUE, []


# ----------------------------------------------------------------------
# update_struct/4

def expand_update_struct(ctx, t):
    """update_struct(emp, [age: A], Old, New)  ==>
    Old = emp(N, _), New = emp(N, A)."""
    decl, values = _field_values(ctx.module, t.args[0], t.args[1],
                                 "update_struct")
    old = [Var() for _ in decl.fields]
    new = list(old)
    for i, v in values.items():
        new[i - 1] = v
    return mk_conj([Struct("=", [t.args[2], Struct(decl.name, old)]),
                    Struct("=", [t.args[3], Struct(decl.name, new)])]), []


# ----------------------------------------------------------------------
# do-loops

#: the ends that stand in the base clause's head
_CONSTANTS = (Atom, int, float, Fraction)


def _iter_plan(it, strict=True):
    """One iteration specifier as (the goals that set it up, its
    ``(First, In, Out, Last)`` quadruples, the goals each step starts
    with).  ``Last`` is None for a parameter."""
    it = deref(it)
    if isinstance(it, Struct):
        name, n, a = it.name, it.arity, it.args
        if name == "fromto" and n == 4:
            return [], [tuple(a)], []
        if name == "foreach" and n == 2:
            tail = Var()
            return [], [(a[1], Struct(".", [a[0], tail]), tail, NIL)], []
        if name == "count" and n == 3:
            first, i0 = Var(), Var()
            return ([Struct("is", [first, Struct("-", [a[1], 1])])],
                    [(first, i0, a[0], a[2])],
                    [Struct("is", [a[0], Struct("+", [i0, 1])])])
        if name == "for" and n in (3, 4):
            step = deref(a[3]) if n == 4 else 1
            first, i1, stop, sv = Var(), Var(), Var(), Var()
            quads = [(first, a[0], i1, stop)]
            if isinstance(step, int):
                inc = step  # constant step: inline it in the increment
            else:
                inc = sv
                quads.append((sv, sv, sv, None))
            return ([Struct("loop_for_setup",
                            [a[1], a[2], step, first, sv, stop])],
                    quads, [Struct("is", [i1, Struct("+", [a[0], inc])])])
        if name == "foreacharg" and n in (2, 3):
            size, last, term, i1 = Var(), Var(), Var(), Var()
            idx = a[2] if n == 3 else Var()
            return ([Struct("functor", [a[1], Var(), size]),
                     Struct("is", [last, Struct("+", [size, 1])])],
                    [(a[1], term, term, None), (1, idx, i1, last)],
                    [Struct("arg", [idx, term, a[0]]),
                     Struct("is", [i1, Struct("+", [idx, 1])])])
        if name == "param":
            if strict:
                # in source clauses param must name variables; a metacalled
                # loop may legitimately see them already bound
                for v in a:
                    if not isinstance(deref(v), Var):
                        raise ExpansionError("param arguments must be "
                                             "variables: %s" % show(deref(v)))
            return [], [(v, v, v, None) for v in a], []
    raise ExpansionError("unknown iteration specifier: %s" % show(it))


def expand_do(ctx, t):
    iters_t, body = t.args
    iters = flatten_conj(iters_t)
    if iters[0] is TRUE and len(iters) == 1:
        raise ExpansionError("do-loop without iteration specifiers")

    setup, quads, pre = [], [], []
    iter_vars = set()
    for it in iters:
        s, q, p = _iter_plan(it, strict=not ctx.metacall)
        setup += s
        quads += q
        pre += p
        iter_vars.update(var_counts(it))

    _warn_body_scope(ctx, t, body, iter_vars)

    body_x, aux = expand_body(ctx, body)

    # the arguments of the call, the base clause's head, the recursive
    # clause's head and its recursive call
    call, base, head, rec = [], [], [], []
    for first, in_, out, last in quads:
        call.append(first)
        head.append(in_)
        rec.append(out)
        if last is None:
            base.append(Var())
        elif type(deref(last)) in _CONSTANTS:
            base.append(last)
        else:
            end, stop = Var(), Var()
            call.append(last)
            base += end, end
            head.append(stop)
            rec.append(stop)
    if ctx.metacall:
        name = ctx.engine.unlisted_pred(ctx.module, "$do_loop", len(call))
    else:
        name = ctx.module.next_aux_name()

    base_clause = (Struct(name, base), Atom("!"))
    rec_clause = (Struct(name, head),
                  mk_conj(pre + [body_x, Struct(name, rec)]))
    aux = aux + [base_clause, rec_clause]
    return mk_conj(setup + [Struct(name, call)]), aux


def _warn_body_scope(ctx, do_term, body, iter_vars):
    if ctx.clause is None:
        return
    counts = ctx.clause_counts()
    do_counts = var_counts(do_term)
    for v in term_vars(body):
        if v in iter_vars:
            continue
        outside = counts.get(v, 0) - do_counts.get(v, 0)
        if outside > 0:
            log.warning("variable %s occurs in a do-loop body and outside it; "
                        "loop bodies do not share variables with the clause "
                        "unless passed via param(...)",
                        v.name or "_G%d" % v.serial)


# ----------------------------------------------------------------------
# registration

def install_kernel_macros(module):
    module.add_term_macro("with", 2, expand_with, exported=True)
    module.add_term_macro("of", 2, expand_of, exported=True)
    module.add_goal_macro("do", 2, expand_do, exported=True)
    module.add_goal_macro("update_struct", 4, expand_update_struct, exported=True)
