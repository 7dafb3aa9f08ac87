"""Source-to-source transformations.

Three layers, all driven from per-module registries:

* term macros, applied bottom-up while reading (``with``/``of`` for named
  structure fields);
* goal macros, applied to clause bodies at load time and to metacalled
  goals at run time (do-loops, ``update_struct/4``);
* output transforms, applied by the writer (registered elsewhere).

A do-loop

    ( for(I, 1, N), foreach(X, Xs) do p(I, X) )

compiles into a fresh auxiliary predicate with one argument position per
iteration role: a base clause whose head unifies the stop conditions
(guarded by a cut) and a recursive clause running the body::

    do__1(S, S, []) :- !.
    do__1(I, S, [X|T]) :- I1 is I + 1, p(I, X), do__1(I1, S, T).

A ``fromto`` or ``foreach`` whose end is an atom or a number when the
loop is expanded (``[]`` for every ``foreach``) passes no end argument:
the end itself stands in the base clause's head, as in the translation
of Schimpf's *Logical Loops* (ICLP 2002).  Any other end is passed, as
``S`` is here::

    ( foreach(X, Xs), fromto(0, A0, A, S) do A is A0 + X )

    do__2([], B, B) :- !.
    do__2([X|T], A0, S) :- A is A0 + X, do__2(T, A, S).

With such an iterator first, first-argument indexing picks one clause
per step, so the loop pushes no choicepoint until the current value
could be the end.

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
from .terms import Atom, Struct, Var, deref, list_parts, term_vars

log = logging.getLogger("clpkernel")

TRUE = Atom("true")


# ----------------------------------------------------------------------
# conjunction helpers

def flatten_conj(t):
    out = []
    stack = [t]
    while stack:
        g = deref(stack.pop())
        if isinstance(g, Struct) and g.name == "," and g.arity == 2:
            stack.append(g.args[1])
            stack.append(g.args[0])
        else:
            out.append(g)
    return out


def mk_conj(goals):
    goals = [g for g in goals if not (isinstance(g, Atom) and g.name == "true")]
    if not goals:
        return TRUE
    out = goals[-1]
    for g in reversed(goals[:-1]):
        out = Struct(",", [g, out])
    return out


def _var_counts(t):
    counts = {}
    stack = [t]
    while stack:
        x = deref(stack.pop())
        if isinstance(x, Var):
            counts[id(x)] = counts.get(id(x), 0) + 1
        elif isinstance(x, Struct):
            stack.extend(x.args)
    return counts


# ----------------------------------------------------------------------
# struct declarations and the with/of term macros

class StructDecl:
    def __init__(self, name, fields):
        self.name = name
        self.fields = tuple(fields)
        self._index = {f: i + 1 for i, f in enumerate(self.fields)}

    def index(self, field):
        return self._index.get(field)

    @property
    def arity(self):
        return len(self.fields)


def parse_struct_decl(term):
    """Validate a declaration like struct(emp(name, age))."""
    t = deref(term)
    if not (isinstance(t, Struct) and t.arity >= 1):
        raise ExpansionError("struct declaration needs at least one field: %r" % (t,))
    fields = []
    for a in t.args:
        a = deref(a)
        if not isinstance(a, Atom):
            raise ExpansionError("struct field names must be atoms: %r" % (a,))
        if a.name in fields:
            raise ExpansionError("duplicate struct field %r" % a.name)
        fields.append(a.name)
    return StructDecl(t.name, fields)


def expand_with(module, t):
    """emp{age: A, name: N}  ==>  emp(N, A)  (declared field order)."""
    name_t, fields_t = (deref(a) for a in t.args)
    if not isinstance(name_t, Atom):
        raise ExpansionError("struct name must be an atom: %r" % (name_t,))
    decl = module.lookup_struct(name_t.name)
    if decl is None:
        raise ExpansionError("unknown structure %r" % name_t.name)
    args = [Var() for _ in range(decl.arity)]
    items, tail = list_parts(fields_t)
    if not (isinstance(deref(tail), Atom) and deref(tail).name == "[]"):
        raise ExpansionError("struct fields must be a proper list")
    seen = set()
    for item in items:
        item = deref(item)
        if not (isinstance(item, Struct) and item.name == ":" and item.arity == 2):
            raise ExpansionError("struct field must be written name:Value: %r" % (item,))
        fname = deref(item.args[0])
        if not isinstance(fname, Atom):
            raise ExpansionError("struct field name must be an atom: %r" % (fname,))
        idx = decl.index(fname.name)
        if idx is None:
            raise ExpansionError("structure %r has no field %r"
                                 % (name_t.name, fname.name))
        if fname.name in seen:
            raise ExpansionError("duplicate field %r" % fname.name)
        seen.add(fname.name)
        args[idx - 1] = item.args[1]
    return Struct(name_t.name, args)


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

_CONTROL2 = {",", ";", "->"}


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
        """Occurrences of each variable of the clause, by id.  Only
        do-loops read them, so they are counted on the first one."""
        if self._counts is None:
            self._counts = {} if self.clause is None else _var_counts(self.clause)
        return self._counts


def expand_body(ctx, goal):
    """Returns (expanded_goal, aux_clauses)."""
    g = deref(goal)
    if isinstance(g, Var):
        return g, []
    if isinstance(g, Struct):
        if g.name in _CONTROL2 and g.arity == 2:
            a, aux1 = expand_body(ctx, g.args[0])
            b, aux2 = expand_body(ctx, g.args[1])
            return Struct(g.name, [a, b]), aux1 + aux2
        if g.name in ("\\+", "once", "not", "call") and g.arity == 1:
            a, aux = expand_body(ctx, g.args[0])
            return Struct(g.name, [a]), aux
        if g.name == "findall" and g.arity == 3:
            inner, aux = expand_body(ctx, g.args[1])
            return Struct("findall", [g.args[0], inner, g.args[2]]), aux
        if g.name == ":" and g.arity == 2:
            mod_t = deref(g.args[0])
            if isinstance(mod_t, Atom) and ctx.engine is not None:
                target = ctx.engine.modules.get(mod_t.name)
                if target is not None:
                    sub = ExpandContext(target, ctx.engine, ctx.clause,
                                        ctx.metacall)
                    inner, aux = expand_body(sub, g.args[1])
                    return Struct(":", [mod_t, inner]), aux
            return g, []
        macro = ctx.module.lookup_goal_macro(g.name, g.arity)
        if macro is not None:
            return macro(ctx, g)
    elif isinstance(g, Atom):
        macro = ctx.module.lookup_goal_macro(g.name, 0)
        if macro is not None:
            return macro(ctx, g)
    return g, []


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

def struct_update_args(module, name, fields_t):
    """(old_args, new_args) for an update of struct `name`: fresh variables
    throughout, with the listed fields replaced in new_args."""
    decl = module.lookup_struct(name)
    if decl is None:
        raise ExpansionError("unknown structure %r" % name)
    old_args = [Var() for _ in range(decl.arity)]
    new_args = list(old_args)
    items, tail = list_parts(fields_t)
    if not (isinstance(deref(tail), Atom) and deref(tail).name == "[]"):
        raise ExpansionError("update_struct: fields must be a proper list")
    seen = set()
    for item in items:
        item = deref(item)
        if not (isinstance(item, Struct) and item.name == ":" and item.arity == 2):
            raise ExpansionError("update_struct: field must be name:Value")
        fname = deref(item.args[0])
        if not isinstance(fname, Atom) or decl.index(fname.name) is None:
            raise ExpansionError("structure %r has no field %r" % (name, fname))
        if fname.name in seen:
            raise ExpansionError("duplicate field %r" % fname.name)
        seen.add(fname.name)
        new_args[decl.index(fname.name) - 1] = item.args[1]
    return old_args, new_args


def expand_update_struct(ctx, t):
    name_t, fields_t, old_t, new_t = (deref(a) for a in t.args)
    if not isinstance(name_t, Atom):
        raise ExpansionError("update_struct: struct name must be an atom")
    old_args, new_args = struct_update_args(ctx.module, name_t.name, fields_t)
    goal = mk_conj([Struct("=", [old_t, Struct(name_t.name, old_args)]),
                    Struct("=", [new_t, Struct(name_t.name, new_args)])])
    return goal, []


# ----------------------------------------------------------------------
# do-loops

class IterPlan:
    __slots__ = ("setup", "call_args", "base_args", "rec_head", "rec_call", "pre")

    def __init__(self, setup, call_args, base_args, rec_head, rec_call, pre):
        self.setup = setup
        self.call_args = call_args
        self.base_args = base_args
        self.rec_head = rec_head
        self.rec_call = rec_call
        self.pre = pre


#: the ends a ``fromto`` holds in its base clause's head
_CONSTANTS = (Atom, int, float, Fraction)


def _fromto_plan(f, i, o, t):
    if type(deref(t)) in _CONSTANTS:
        return IterPlan([], [f], [t], [i], [o], [])
    stop = Var()
    base = Var()
    return IterPlan([], [f, t], [base, base], [i, stop], [o, stop], [])


def _iter_plan(it, strict=True):
    it = deref(it)
    if isinstance(it, Struct):
        name, n = it.name, it.arity
        a = it.args
        if name == "fromto" and n == 4:
            return _fromto_plan(*a)
        if name == "foreach" and n == 2:
            tail = Var()
            return _fromto_plan(a[1], Struct(".", [a[0], tail]), tail, Atom("[]"))
        if name == "count" and n == 3:
            i0, f0, stop, base = Var(), Var(), Var(), Var()
            return IterPlan([Struct("is", [f0, Struct("-", [a[1], 1])])],
                            [f0, a[2]], [base, base], [i0, stop], [a[0], stop],
                            [Struct("is", [a[0], Struct("+", [i0, 1])])])
        if name == "for" and n in (3, 4):
            frm, to = a[1], a[2]
            step = deref(a[3]) if n == 4 else 1
            f1, stop, i1, base, s = Var(), Var(), Var(), Var(), Var()
            if isinstance(step, int):
                # constant step: inline it in the increment
                setup = [Struct("loop_for_setup",
                                [frm, to, step, f1, Var(), stop])]
                return IterPlan(setup, [f1, stop], [base, base],
                                [a[0], s], [i1, s],
                                [Struct("is", [i1, Struct("+", [a[0], step])])])
            sv, sv2 = Var(), Var()
            setup = [Struct("loop_for_setup", [frm, to, step, f1, sv, stop])]
            return IterPlan(setup, [f1, sv, stop], [base, Var(), base],
                            [a[0], sv2, s], [i1, sv2, s],
                            [Struct("is", [i1, Struct("+", [a[0], sv2])])])
        if name == "foreacharg" and n in (2, 3):
            arr = a[1]
            n_v, s1, av, i0, i1, stop, base = (Var() for _ in range(7))
            idx = a[2] if n == 3 else i0
            setup = [Struct("functor", [arr, Var(), n_v]),
                     Struct("is", [s1, Struct("+", [n_v, 1])])]
            return IterPlan(setup, [arr, 1, s1], [Var(), base, base],
                            [av, idx, stop], [av, i1, stop],
                            [Struct("arg", [idx, av, a[0]]),
                             Struct("is", [i1, Struct("+", [idx, 1])])])
        if name == "param":
            if strict:
                # in source clauses param must name variables; a metacalled
                # loop may legitimately see them already bound
                for v in a:
                    if not isinstance(deref(v), Var):
                        raise ExpansionError("param arguments must be "
                                             "variables: %r" % (deref(v),))
            plans = [IterPlan([], [v], [Var()], [v], [v], []) for v in a]
            return plans
    raise ExpansionError("unknown iteration specifier: %r" % (it,))


def expand_do(ctx, t):
    iters_t, body = t.args
    iters = flatten_conj(iters_t)
    if not iters or (len(iters) == 1 and isinstance(deref(iters[0]), Atom)
                     and deref(iters[0]).name == "true"):
        raise ExpansionError("do-loop without iteration specifiers")

    plans = []
    iter_var_ids = set()
    for it in iters:
        got = _iter_plan(it, strict=not ctx.metacall)
        plans.extend(got if isinstance(got, list) else [got])
        iter_var_ids.update(id(v) for v in term_vars(it))

    _warn_body_scope(ctx, t, body, iter_var_ids)

    body_x, aux = expand_body(ctx, body)

    setup, call_args, base_args, rec_head, rec_call, pre = [], [], [], [], [], []
    for p in plans:
        setup.extend(p.setup)
        call_args.extend(p.call_args)
        base_args.extend(p.base_args)
        rec_head.extend(p.rec_head)
        rec_call.extend(p.rec_call)
        pre.extend(p.pre)
    if ctx.metacall:
        name = ctx.engine.unlisted_pred(ctx.module, "$do_loop", len(call_args))
    else:
        name = ctx.module.next_aux_name()

    base_clause = (Struct(name, base_args), Atom("!"))
    rec_clause = (Struct(name, rec_head),
                  mk_conj(pre + [body_x, Struct(name, rec_call)]))
    aux = aux + [base_clause, rec_clause]
    return mk_conj(setup + [Struct(name, call_args)]), aux


def _warn_body_scope(ctx, do_term, body, iter_var_ids):
    if ctx.clause is None:
        return
    counts = ctx.clause_counts()
    do_counts = _var_counts(do_term)
    for v in term_vars(body):
        vid = id(v)
        if vid in iter_var_ids:
            continue
        outside = counts.get(vid, 0) - do_counts.get(vid, 0)
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
