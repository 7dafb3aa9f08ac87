"""Kernel builtin predicates.

Builtins are Python callables ``fn(engine, args, module)`` that return a
bool, a deterministic success or failure, or a ``(goal, module)`` pair,
which the engine runs in the call's place, opaque to cut (see `solve`):
``call/N``, ``once/1``, ``\\+/1``, ``not/1`` and ``:/2`` return a term,
findall/3 a step that keeps its collector on the choicepoint stack.  The
engine runs the waking queue after each success and backtracks to a
choicepoint below the call on failure, so builtins can bind variables
freely and let waking failures turn into failure of the call.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import (array_dims, compare_numeric, dim_create, eval_arith,
                    subscript_get)
from .attvar import AttributeSpec, add_attr, get_attr, notify_constrained
from .errors import (DomainError, ExistenceError, FlounderingError, Halt,
                     InstantiationError, RangeError, TypeError_)
from .susp import Suspension
from .terms import (TRUE, Atom, Breal, Struct, Var, arg_at,
                    compare_terms, copy_term, deref, is_callable_term,
                    is_number, mk_list, proper_list, term_vars, terms_equal)


# ----------------------------------------------------------------------
# control

def bi_call(engine, args, module):
    g = deref(args[0])
    extra = list(args[1:])
    if extra:
        if isinstance(g, Atom):
            g = Struct(g.name, extra)
        elif isinstance(g, Struct):
            g = Struct(g.name, g.args + extra)
        elif isinstance(g, Var):
            raise InstantiationError("call: unbound goal")
        else:
            raise TypeError_("call: goal is not callable")
    return g, module


def bi_once(engine, args, module):
    return Struct("->", [args[0], TRUE]), module


def bi_naf(engine, args, module):
    return Struct(";", [Struct("->", [args[0], Atom("fail")]), TRUE]), module


def bi_findall(engine, args, module):
    return all_solutions(engine, args[1], module, args[0], args[2], (
        "findall: a solution left goals delayed; "
        "the solution set is not enumerable"))


def all_solutions(engine, goal, module, template, out, message):
    """The pair findall/3, or count_solutions/2 with no template, returns:
    a step that pushes a collector mark, then runs the goal, cut height
    above the mark, and a step that records the solution and fails.  The
    exhausted goal backtracks into the mark, which unifies the output."""
    store, watermark, found = engine.store, engine._sid, []

    def run(cont):
        m = store.push_choicepoint()
        m.alt, m.cont = collected, cont
        return goal, module, m.index + 1, (collect, module, 0, None)

    def collect(cont):
        fresh = engine.pending(watermark)
        if fresh:
            raise FlounderingError(message, [engine.format_goal(s, module)
                                             for s in fresh])
        found.append(None if template is None else copy_term(
            template, attr_hook=engine._copy_attr_hook))
        return False

    def collected(mark):
        store.drop_to(mark)
        result = len(found) if template is None else mk_list(found)
        if store.unify(out, result):
            return mark.cont
        return False
    return run, module


def bi_qualified(engine, args, module):
    mt = deref(args[0])
    goal = args[1]
    mods = proper_list(mt)
    if mods is not None and mods:
        # [m1, m2]:G runs G in each module, conjunction-style
        out = Struct(":", [mods[-1], goal])
        for m in reversed(mods[:-1]):
            out = Struct(",", [Struct(":", [m, goal]), out])
        return out, module
    if not isinstance(mt, Atom):
        raise TypeError_("qualified call: module must be an atom: %r" % (mt,))
    target = engine.modules.get(mt.name)
    if target is None:
        raise ExistenceError("module %s does not exist" % mt.name)
    return goal, target


def bi_halt0(engine, args, module):
    raise Halt(0)


def bi_halt1(engine, args, module):
    code = deref(args[0])
    if not isinstance(code, int):
        raise TypeError_("halt: exit code must be an integer")
    raise Halt(code)


# ----------------------------------------------------------------------
# unification and comparison

def bi_unify(engine, args, module):
    return engine.store.unify(args[0], args[1])


def bi_not_unify(engine, args, module):
    return not engine.store.unifiable(args[0], args[1])


def bi_eq(engine, args, module):
    return terms_equal(args[0], args[1])


def bi_neq(engine, args, module):
    return not terms_equal(args[0], args[1])


def _term_cmp_bi(rel):
    def fn(engine, args, module):
        return rel(compare_terms(args[0], args[1]))
    return fn


def bi_compare(engine, args, module):
    c = compare_terms(args[1], args[2])
    return engine.store.unify(args[0], Atom("<" if c < 0 else "=" if c == 0 else ">"))


def bi_dif(engine, args, module):
    a, b = args[0], args[1]
    if terms_equal(a, b):
        return False
    if not engine.store.unifiable(a, b):
        return True
    s = engine.make_suspension(Struct("dif", [a, b]), 3, module)
    for v in term_vars(mk_list([a, b])):
        engine.attach_suspension(s, v, "bound")
    return True


# ----------------------------------------------------------------------
# type tests

def _type_test(pred):
    def fn(engine, args, module):
        return pred(deref(args[0]))
    return fn


_TYPE_TESTS = {
    "var": lambda t: type(t) is Var,
    "nonvar": lambda t: type(t) is not Var,
    "atom": lambda t: type(t) is Atom,
    "number": is_number,
    "integer": lambda t: type(t) is int,
    "float": lambda t: type(t) is float,
    "rational": lambda t: type(t) is Fraction,
    "breal": lambda t: type(t) is Breal,
    "string": lambda t: type(t) is str,
    "atomic": lambda t: type(t) in (Atom, int, float, Fraction, Breal, str),
    "compound": lambda t: type(t) is Struct,
    "callable": is_callable_term,
    "is_list": lambda t: proper_list(t) is not None,
    "ground": lambda t: not term_vars(t),
}


# ----------------------------------------------------------------------
# term construction and inspection

def bi_functor(engine, args, module):
    t = deref(args[0])
    if type(t) is not Var:
        if type(t) is Struct:
            return (engine.store.unify(args[1], Atom(t.name))
                    and engine.store.unify(args[2], t.arity))
        return (engine.store.unify(args[1], t)
                and engine.store.unify(args[2], 0))
    f = deref(args[1])
    a = deref(args[2])
    if type(f) is Var or type(a) is Var:
        raise InstantiationError("functor: arguments insufficiently instantiated")
    if not isinstance(a, int) or isinstance(a, bool):
        raise TypeError_("functor: arity must be an integer")
    if a < 0:
        raise RangeError("functor: negative arity %d" % a)
    if a == 0:
        return engine.store.unify(t, f)
    if type(f) is not Atom:
        raise TypeError_("functor: name of a compound term must be an atom")
    return engine.store.unify(t, Struct(f.name, [Var() for _ in range(a)]))


def bi_arg(engine, args, module):
    """arg/3, which fails for an integer index outside 1..arity, as ISO's
    does; `arg_at` raises there for sort/4's key."""
    i = deref(args[0])
    if type(i) is Var:
        raise InstantiationError("arg: unbound index")
    t = deref(args[1])
    if type(i) is int and type(t) is Struct and not 1 <= i <= len(t.args):
        return False
    return engine.store.unify(args[2], arg_at(i, t))


def bi_univ(engine, args, module):
    t = deref(args[0])
    if type(t) is not Var:
        if type(t) is Struct:
            lst = mk_list([Atom(t.name)] + list(t.args))
        else:
            lst = mk_list([t])
        return engine.store.unify(args[1], lst)
    items = proper_list(args[1])
    if items is None:
        raise InstantiationError("=..: list is not proper")
    if not items:
        raise DomainError("=..: empty list")
    head = deref(items[0])
    rest = items[1:]
    if not rest:
        if type(head) is Struct:
            raise TypeError_("=..: single element must be atomic")
        return engine.store.unify(t, head)
    if type(head) is not Atom:
        raise TypeError_("=..: functor must be an atom")
    return engine.store.unify(t, Struct(head.name, rest))


def bi_copy_term(engine, args, module):
    return engine.store.unify(
        args[1], copy_term(args[0], attr_hook=engine._copy_attr_hook))


def bi_setarg(engine, args, module):
    i = deref(args[0])
    if type(i) is Var:
        raise InstantiationError("setarg: unbound index")
    engine.store.set_arg(i, args[1], deref(args[2]))
    return True


# ----------------------------------------------------------------------
# arithmetic

def bi_is(engine, args, module):
    return engine.store.unify(args[0], eval_arith(args[1]))


def _arith_cmp_bi(rel):
    def fn(engine, args, module):
        return rel(compare_numeric(eval_arith(args[0]), eval_arith(args[1])))
    return fn


# ----------------------------------------------------------------------
# sorting

def bi_sort2(engine, args, module):
    return _sort(engine, 0, "<", args[0], args[1])


def bi_sort4(engine, args, module):
    key = deref(args[0])
    order = deref(args[1])
    if type(key) is Var or type(order) is Var:
        raise InstantiationError("sort: key/order must be instantiated")
    if not isinstance(key, int) or key < 0:
        raise TypeError_("sort: key must be a non-negative integer")
    if type(order) is not Atom or order.name not in ("<", "=<", ">", ">="):
        raise DomainError("sort: order must be one of < =< > >=")
    return _sort(engine, key, order.name, args[2], args[3])


def _sort(engine, key, order, in_t, out_t):
    import functools
    items = proper_list(in_t)
    if items is None:
        raise InstantiationError("sort: input is not a proper list")

    def keyof(t):
        return t if key == 0 else arg_at(key, t)

    dec = [(keyof(x), x) for x in items]
    dec.sort(key=functools.cmp_to_key(lambda a, b: compare_terms(a[0], b[0])),
             reverse=order in (">", ">="))
    if order in ("<", ">"):
        pruned = []
        for k, x in dec:
            if pruned and compare_terms(pruned[-1][0], k) == 0:
                continue
            pruned.append((k, x))
        dec = pruned
    return engine.store.unify(out_t, mk_list([x for _, x in dec]))


# ----------------------------------------------------------------------
# output

def bi_write(engine, args, module):
    engine.out.write(engine.format_term(args[0], module))
    return True


def bi_writeln(engine, args, module):
    engine.out.write(engine.format_term(args[0], module) + "\n")
    return True


def bi_write_canonical(engine, args, module):
    engine.out.write(engine.format_term(args[0], module, canonical=True))
    return True


def bi_nl(engine, args, module):
    engine.out.write("\n")
    return True


# ----------------------------------------------------------------------
# arrays and structs

def bi_dim(engine, args, module):
    arr = deref(args[0])
    if type(arr) is Var:
        dims = proper_list(args[1])
        if dims is None:
            raise InstantiationError("dim: dimension list must be a proper list")
        dims = [deref(d) for d in dims]
        for d in dims:
            if type(d) is Var:
                raise InstantiationError("dim: unbound dimension")
        return engine.store.unify(arr, dim_create(dims))
    return engine.store.unify(args[1], mk_list(array_dims(arr)))


def bi_subscript(engine, args, module):
    idx = proper_list(args[1])
    if idx is None:
        raise TypeError_("subscript: index list must be a proper list")
    idx = [eval_arith(i) for i in idx]
    return engine.store.unify(args[2], subscript_get(args[0], idx))


# ----------------------------------------------------------------------
# suspensions

def bi_make_suspension(engine, args, module):
    prio = deref(args[1])
    if type(prio) is Var:
        raise InstantiationError("make_suspension: unbound priority")
    s = engine.make_suspension(args[0], prio, module)
    return engine.store.unify(args[2], s)


def bi_suspend(engine, args, module):
    prio = deref(args[1])
    if type(prio) is Var:
        raise InstantiationError("suspend: unbound priority")
    specs = proper_list(args[2])
    if specs is None:
        specs = [args[2]]
    s = engine.make_suspension(args[0], prio, module)
    attached = 0
    for spec in specs:
        spec = deref(spec)
        if not (type(spec) is Struct and spec.name == "->" and spec.arity == 2):
            raise DomainError("suspend: condition must be Vars -> Cond: %s"
                              % engine.format_term(spec, module))
        lhs, cond = spec.args[0], deref(spec.args[1])
        for v in term_vars(lhs):
            attached += _attach_cond(engine, s, v, cond, module)
    if attached == 0:
        # everything already instantiated: the condition is trivially met
        engine.sched.schedule((s,))
    return True


def _attach_cond(engine, s, v, cond, module):
    if type(cond) is Atom:  # short for suspend:Cond
        cond = Struct(":", [Atom("suspend"), cond])
    if type(cond) is Struct and cond.name == ":" and cond.arity == 2:
        attr_t = deref(cond.args[0])
        list_t = deref(cond.args[1])
        if type(attr_t) is not Atom or type(list_t) is not Atom:
            raise DomainError("suspend: bad attribute condition")
        engine.attach_suspension(s, v, list_t.name, attr_t.name)
        return 1
    raise DomainError("suspend: unknown waking condition %s"
                      % engine.format_term(cond, module))


def bi_kill_suspension(engine, args, module):
    s = deref(args[0])
    if not isinstance(s, Suspension):
        raise TypeError_("kill_suspension: not a suspension")
    engine.kill_suspension(s)
    return True


# ----------------------------------------------------------------------
# attributes

def bi_notify_constrained(engine, args, module):
    notify_constrained(engine, args[0])
    return True


def bi_add_attr(engine, args, module):
    name = deref(args[1])
    if type(name) is not Atom:
        raise TypeError_("add_attr: attribute name must be an atom")
    spec = engine.registry.lookup(name.name)
    if spec is None:
        engine.registry.register(AttributeSpec(name=name.name))
    elif spec.unify is not None:
        # its handlers would read an arbitrary term as their own payload
        raise DomainError("add_attr: attribute %r belongs to a solver"
                          % name.name)
    add_attr(engine.store, args[0], name.name, args[2])
    return True


def bi_get_attr(engine, args, module):
    name = deref(args[1])
    if type(name) is not Atom:
        raise TypeError_("get_attr: attribute name must be an atom")
    payload = get_attr(args[0], name.name)
    if payload is None:
        return False
    return engine.store.unify(args[2], payload)


# ----------------------------------------------------------------------
# misc

def bi_loop_for_setup(engine, args, module):
    frm = eval_arith(args[0])
    to = eval_arith(args[1])
    step = eval_arith(args[2])
    for v in (frm, to, step):
        if not isinstance(v, int):
            raise TypeError_("for: bounds and step must be integers, got %s"
                             % engine.format_term(v, module))
    if step == 0:
        raise RangeError("for: step must be nonzero")
    iterations = max(0, (to - frm) // step + 1)
    stop = frm + iterations * step
    return (engine.store.unify(args[3], frm)
            and engine.store.unify(args[4], step)
            and engine.store.unify(args[5], stop))


# ----------------------------------------------------------------------
# registration

def install(engine):
    k = engine.kernel

    def bi(name, arity, fn):
        engine.add_builtin(k, name, arity, fn)

    for n in range(1, 9):
        bi("call", n, bi_call)
    bi("once", 1, bi_once)
    bi("\\+", 1, bi_naf)
    bi("not", 1, bi_naf)
    bi("findall", 3, bi_findall)
    bi(":", 2, bi_qualified)
    bi("halt", 0, bi_halt0)
    bi("halt", 1, bi_halt1)

    bi("=", 2, bi_unify)
    bi("\\=", 2, bi_not_unify)
    bi("==", 2, bi_eq)
    bi("\\==", 2, bi_neq)
    bi("@<", 2, _term_cmp_bi(lambda c: c < 0))
    bi("@>", 2, _term_cmp_bi(lambda c: c > 0))
    bi("@=<", 2, _term_cmp_bi(lambda c: c <= 0))
    bi("@>=", 2, _term_cmp_bi(lambda c: c >= 0))
    bi("compare", 3, bi_compare)
    bi("dif", 2, bi_dif)

    for name, pred in _TYPE_TESTS.items():
        bi(name, 1, _type_test(pred))

    bi("functor", 3, bi_functor)
    bi("arg", 3, bi_arg)
    bi("=..", 2, bi_univ)
    bi("copy_term", 2, bi_copy_term)
    bi("setarg", 3, bi_setarg)

    bi("is", 2, bi_is)
    bi("=:=", 2, _arith_cmp_bi(lambda c: c == 0))
    bi("=\\=", 2, _arith_cmp_bi(lambda c: c != 0))
    bi("<", 2, _arith_cmp_bi(lambda c: c < 0))
    bi(">", 2, _arith_cmp_bi(lambda c: c > 0))
    bi("=<", 2, _arith_cmp_bi(lambda c: c <= 0))
    bi(">=", 2, _arith_cmp_bi(lambda c: c >= 0))

    bi("sort", 2, bi_sort2)
    bi("sort", 4, bi_sort4)

    bi("write", 1, bi_write)
    bi("writeln", 1, bi_writeln)
    bi("write_canonical", 1, bi_write_canonical)
    bi("nl", 0, bi_nl)

    bi("dim", 2, bi_dim)
    bi("subscript", 3, bi_subscript)

    bi("make_suspension", 3, bi_make_suspension)
    bi("suspend", 3, bi_suspend)
    bi("kill_suspension", 1, bi_kill_suspension)

    bi("notify_constrained", 1, bi_notify_constrained)
    bi("add_attr", 3, bi_add_attr)
    bi("get_attr", 3, bi_get_attr)

    bi("loop_for_setup", 6, bi_loop_for_setup)
