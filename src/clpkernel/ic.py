"""Interval and finite-domain solver.

A constrained variable carries an 'ic' attribute whose payload is a
Domain: numeric bounds, an integrality flag, a frozenset of excluded
values (holes), and four solver suspension lists that wake on specific
narrowing events:

    w_min   lower bound raised          w_hole  interior value removed
    w_max   upper bound lowered         w_type  became integral

One function, admits, decides a number against a set of values, so a
number meets a domain goal alike before and after the goal: the unify
handler, narrow (::, impose_min/2, impose_max/2, impose_integrality/1,
set_var_bounds/3) and exclude_value all ask it.  An integral set holds
only ints (not 3.0, 3_1 or 3.0__3.0) within its bounds, outside its holes
and, when enumerated, listed.  A continuous set holds an int, a rational
or a finite float within its bounds, compared exactly (no domain holds an
infinity), and a bounded real inside it; a bounded real that only partly
overlaps it raises UncertaintyError.

One function, _update, writes a domain's bounds, holes and integrality:
a demon run calls it with the domain it read, and every other caller
through narrow, which calls it once and only when something would change
and gives a variable without a domain one whose slots carry the current
trail segment's stamp (store.py), so attaching it is its only trail
entry.  exclude_value punches its hole through _exclude.  A single value
left instantiates the variable and wakes all four lists; otherwise the
lists of the events that happened wake, then the constrained list of the
suspend attribute.  Aliasing two domain variables intersects their
domains through _update, waking each side's lists for the events its own
domain saw, and the younger variable's lists join the survivor's; a
variable without a domain leaves the survivor's as it is.

Only integral domains have holes, each strictly between lo and hi: a
hole at a bound moves the bound instead (a bound event, not a hole
event).  No operation enumerates lo..hi: printing walks the sorted holes,
labeling (search.py) filters them lazily, and X :: [...] walks once the
span it leaves, listing or punching each value.

Integral domains store exact int bounds, continuous ones outward-rounded
floats.  Constraint arithmetic is exact, so propagation never cuts a
feasible value: int constants and coefficients over integral domains
compute in ints, dividing toward the inside of the domain; the rest
computes in Fractions, rounded outward only when stored.

Linear constraints normalise (linear.py) to ``const + sum(c_i * x_i) REL
0`` with REL one of =< / = / \\=, each enforced by a demon at priority 5:
a suspension whose ``run`` is its propagator, chosen at posting, with the
relation, the constant and the pairs as its payload.  Its goal term
(``ic_lin_con(Rel, C, [C1*X1, ...])``, shown as ``#=`` and the like) is
built only when printed.  =< and = wake on the w_min / w_max lists their
coefficients make them sensitive to; \\= waits on the bound lists until
at most one variable is free, then excludes the forced value.  A bound
list wakes on aliasing too, and a disequality sums the coefficients of
aliased variables, so ``X #\\= Y, X = Y`` fails at once.  A disequality
over two variables with int coefficients and constant has its own
constant-time run (_neq2).  ic_lin_con/3 posts a constraint from its
arguments.  alldifferent/1 is a forward-checking demon at priority 4 on
the bound lists, with its list as its payload; it fails when two of its
variables alias.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import eval_arith, exact_float, float_down, float_up
from .attvar import (AttributeSpec, add_attr, get_attr, init_attr, join_lists,
                     suspend_record)
from .clauses import read_prelude
from .errors import (DomainError, InstantiationError, TypeError_,
                     UncertaintyError, UnsupportedError)
from .linear import exact_number, exact_quotient, normalize_relation
from .susp import EXECUTED
from .terms import (NIL, Atom, Breal, Struct, Var, deref, int_text,
                    is_number, list_parts, mk_list, proper_list, show)
from .writer import float_text

_INF = float("inf")

LIN_PRIORITY = 5
ALLDIFF_PRIORITY = 4


class Domain:
    __slots__ = ("lo", "hi", "integral", "holes",
                 "w_min", "w_max", "w_hole", "w_type", "_stamps")

    def __init__(self, lo=-_INF, hi=_INF, integral=False, holes=frozenset()):
        self.lo = lo
        self.hi = hi
        self.integral = integral
        self.holes = holes
        self.w_min = ()
        self.w_max = ()
        self.w_hole = ()
        self.w_type = ()
        self._stamps = None

    def __repr__(self):
        return "<dom %s>" % format_domain(self)


_LIST_SLOTS = {"min": "w_min", "max": "w_max", "hole": "w_hole", "type": "w_type"}


def format_domain(d):
    if d.integral and d.holes and d.lo != -_INF and d.hi != _INF:
        # walk the sorted holes; adjacent holes leave no run between them
        segs = []
        start = int(d.lo)
        for h in sorted(d.holes):
            if h > start:
                segs.append(_seg(start, h - 1))
            start = h + 1
        segs.append(_seg(start, int(d.hi)))
        return "{[%s]}" % ", ".join(segs)
    return "{%s..%s}" % (_bound_text(d.lo), _bound_text(d.hi))


def _seg(a, b):
    return int_text(a) if a == b else int_text(a) + ".." + int_text(b)


def _bound_text(b):
    return float_text(b) if isinstance(b, float) else int_text(b)


# ----------------------------------------------------------------------
# attribute plumbing

def get_domain(v):
    v = deref(v)
    if type(v) is Var:
        return get_attr(v, "ic")
    return None


def ensure_domain(engine, v):
    """The variable v's domain, made by narrow if it has none."""
    narrow(engine, v)
    return get_domain(v)


def exact_bounds(t):
    """(lo, hi) of a term as exact numbers: ints for an integer and for
    an integral domain, Fractions for other numbers and for continuous
    domains, +-inf floats where a bound is missing."""
    t = deref(t)
    ty = type(t)
    if ty is Var:
        d = get_domain(t)
        if d is None:
            return -_INF, _INF
        if d.integral:
            return d.lo, d.hi
        return exact_float(d.lo), exact_float(d.hi)
    if ty is int or ty is Fraction:
        return t, t
    if ty is float:
        q = exact_float(t)
        return q, q
    if ty is Breal:
        return exact_float(t.lo), exact_float(t.hi)
    raise TypeError_("not a numeric term: %s" % show(t))


# ----------------------------------------------------------------------
# narrowing operations

def _woken(d, lo, hi, holes, integral):
    """The lists of d that wake when d becomes lo..hi less holes."""
    wake = d.w_min if lo > d.lo else ()
    if hi < d.hi:
        wake += d.w_max
    if holes is not d.holes and not holes <= d.holes:
        wake += d.w_hole
    if integral and not d.integral:
        wake += d.w_type
    return wake


def _update(engine, x, d, lo, hi, holes, integral, joined=None):
    """Make x's domain d the values of lo..hi outside holes: the one write
    of a domain.  Integral bounds round inward and past the holes,
    continuous ones outward, and only the holes strictly inside stay.  An
    empty domain fails and a single value binds x.  Otherwise a slot is
    written only when its value or type changes, and the lists of the
    events that happened wake, then x's constrained list.  ``joined`` is
    the domain of a variable aliased to x: its lists wake for its own
    events, then join d's."""
    if integral:
        if type(lo) is not int and lo != -_INF:
            lo = math.ceil(lo)
        if type(hi) is not int and hi != _INF:
            hi = math.floor(hi)
        if holes:
            while lo in holes:
                lo += 1
            while hi in holes:
                hi -= 1
            # d's holes lie strictly inside its bounds and a value a caller
            # adds lies within them, so only a moved bound or joined's
            # holes can leave one outside
            if lo != d.lo or hi != d.hi or joined is not None:
                holes = frozenset(h for h in holes if lo < h < hi)
    else:
        lo = float_down(lo)
        hi = float_up(hi)
    if lo > hi:
        return False
    store = engine.store
    wake = _woken(d, lo, hi, holes, integral)
    if joined is not None:
        wake += _woken(joined, lo, hi, holes, integral)
        join_lists(store, d, joined, _LIST_SLOTS.values())
    if lo == hi:
        return store.bind(x, lo)
    changed = False
    if lo is not d.lo and (lo != d.lo or type(lo) is not type(d.lo)):
        store.set_slot(d, "lo", lo)
        changed = True
    if hi is not d.hi and (hi != d.hi or type(hi) is not type(d.hi)):
        store.set_slot(d, "hi", hi)
        changed = True
    if holes is not d.holes and holes != d.holes:
        store.set_slot(d, "holes", holes)
        changed = True
    if integral is not d.integral:
        store.set_slot(d, "integral", integral)
        changed = True
    if changed:
        rec = x.attrs.get("suspend")
        if rec is not None:
            wake += rec.constrained
    if wake:
        engine.sched.schedule(wake)
    return True


def admits(x, lo, hi, integral, holes=None, keep=None):
    """Whether the set lo..hi holds the term x: the one test of a number
    against a domain.  An integral set holds only ints, outside holes and,
    when keep is given, among its values; a continuous set holds ints,
    rationals and finite floats, and a bounded real inside it.  Bounds
    compare exactly.  A bounded real that only partly overlaps a
    continuous set raises UncertaintyError."""
    if type(x) is int:
        return (lo <= x <= hi and not (holes and x in holes)
                and (keep is None or x in keep))
    if integral:
        return False
    ty = type(x)
    if ty is Breal:
        if lo <= x.lo and x.hi <= hi:
            return True
        if x.hi < lo or x.lo > hi:
            return False
        raise UncertaintyError(
            "bounded real %s only partially overlaps the domain {%s..%s}"
            % (show(x), float_text(float_down(lo)), float_text(float_up(hi))))
    # no domain holds an infinity
    return (ty is Fraction or ty is float and math.isfinite(x)) and \
        lo <= x <= hi


def narrow(engine, x, lo=-_INF, hi=_INF, integral=False, keep=None):
    """Narrow the term x to lo..hi (exact), to the integers when integral,
    and to the ints of the set keep (within lo..hi) when given.  True
    unless x's values empty; a number is tested by admits."""
    x = deref(x)
    if type(x) is not Var:
        if not is_number(x):
            raise TypeError_("not a numeric term: %s" % show(x))
        return admits(x, lo, hi, integral, None, keep)
    if lo == _INF or hi == -_INF:
        return False  # a domain holds no infinity
    d = x.attrs.get("ic")
    if d is None:
        # undoing this segment detaches it: its slots need no trail entry
        d = Domain()
        d._stamps = dict.fromkeys(("lo", "hi", "holes", "integral"),
                                  engine.store.current_stamp())
        add_attr(engine.store, x, "ic", d)
    if lo <= d.lo:
        lo = d.lo
    if hi >= d.hi:
        hi = d.hi
    holes = d.holes
    if keep is not None:
        holes = holes.union(v for v in range(math.ceil(lo), math.floor(hi) + 1)
                            if v not in keep)
    integral = integral or d.integral
    if (lo is d.lo and hi is d.hi and integral is d.integral
            and len(holes) == len(d.holes)):
        return True
    return _update(engine, x, d, lo, hi, holes, integral)


def impose_min(engine, x, b):
    """x >= b (b exact).  True unless x's values empty."""
    return narrow(engine, x, lo=b)


def impose_max(engine, x, b):
    return narrow(engine, x, hi=b)


def impose_integrality(engine, x):
    return narrow(engine, x, integral=True)


def exclude_value(engine, x, v):
    """x != v for an exact value v: a number that the set {v} admits
    fails, and a variable needs an integral domain."""
    x = deref(x)
    if is_number(x):
        return not admits(x, v, v, False)
    d = ensure_domain(engine, x)
    if not d.integral:
        raise TypeError_("exclude: variable does not have an integer domain")
    return _exclude(engine, x, d, v)


def _exclude(engine, v, d, q):
    """v != q, for a caller that read v's integral domain d: a demon run
    or ``exclude_value``.  A v that an earlier exclusion of the run bound
    is tested by its value."""
    if v.ref is not None:
        return v.ref != q
    if type(q) is not int:
        if q % 1:  # not an integer, or inf: no integral domain holds it
            return True
        q = int(q)
    if not admits(q, d.lo, d.hi, True, d.holes):
        return True
    return _update(engine, v, d, d.lo, d.hi, d.holes | {q}, True)


# ----------------------------------------------------------------------
# the attribute handlers

def _install_attribute(engine):
    store = engine.store

    def on_unify(value, payload, var):
        d = payload
        if d is None:
            return True  # var had no domain: the survivor keeps its own
        if type(value) is Var:
            other = get_attr(value, "ic")
            if other is None:
                add_attr(store, value, "ic", d)
                return True
            return _update(engine, value, other, max(other.lo, d.lo),
                           min(other.hi, d.hi), other.holes | d.holes,
                           other.integral or d.integral, d)
        if not admits(value, d.lo, d.hi, d.integral, d.holes):
            return False
        wake = d.w_min + d.w_max + d.w_hole + d.w_type
        if wake:
            engine.sched.schedule(wake)
        return True

    def on_copy(payload, fresh):
        init_attr(fresh, "ic",
                  Domain(payload.lo, payload.hi, payload.integral, payload.holes))

    def get_list(eng, var, name):
        slot = _LIST_SLOTS.get(name)
        if slot is None:
            return None
        return ensure_domain(eng, var), slot

    def portray(var, payload):
        return format_domain(payload)

    engine.registry.register(AttributeSpec(
        name="ic", unify=on_unify, copy=on_copy, get_list=get_list,
        portray=portray))


# ----------------------------------------------------------------------
# the linear-constraint demon

def _bound(n, c, integral, up):
    """n / c as a bound on a variable, over an integral domain when
    integral.  Two ints over an integral domain divide in int, rounded
    toward the inside of the domain (up: the ceiling, for a lower bound;
    else the floor); anything else gives the exact quotient, which
    _update rounds."""
    if integral and type(n) is int and type(c) is int:
        return -(-n // c) if up else n // c
    return exact_quotient(n, c)


def _parse_lin_goal(args):
    """The relation, constant and (coefficient, term) pairs of a goal
    ``ic_lin_con(Rel, C, [C1*X1, ...])``, each argument checked."""
    rel = deref(args[0])
    if rel not in _LIN_RELS:
        _lin_error(rel, "a relation", DomainError)
    const = _lin_number(args[1])
    items, tail = list_parts(args[2])
    if tail is not NIL:
        _lin_error(tail, "a list")
    pairs = []
    for it in items:
        it = deref(it)
        if type(it) is not Struct or it.name != "*" or len(it.args) != 2:
            _lin_error(it, "C*X")
        c = _lin_number(it.args[0])
        if c != 0:
            pairs.append((c, it.args[1]))
    return rel.name, const, pairs


def _lin_number(t):
    """A constant or coefficient of ic_lin_con/3 as an exact number."""
    t = deref(t)
    if type(t) not in (int, Fraction, float):
        _lin_error(t, "a number")
    if type(t) is float and not math.isfinite(t):
        _lin_error(t, "a number", DomainError)
    return exact_number(t)


def _lin_error(t, what, atom_error=TypeError_):
    """Raise the error of an argument of ic_lin_con/3 that is not
    ``what``: unbound, an atom (``atom_error``) or another term."""
    if type(t) is Var:
        raise InstantiationError("ic_lin_con: %s is unbound" % what)
    raise (atom_error if type(t) is Atom else TypeError_)(
        "ic_lin_con: not %s: %s" % (what, show(t)))


def bi_ic_lin_con(engine, args, module):
    rel, const, pairs = _parse_lin_goal(args)
    return _post_lin_con(engine, module, rel, const, pairs,
                         Struct("ic_lin_con", list(args)))


def _post_lin_con(engine, module, rel, const, pairs, goal=None):
    """Post ``const + sum(c*x) REL 0``.  A demon's goal term is ``goal``,
    or, when None, built from its payload if something prints it."""
    for _, t in pairs:
        if type(deref(t)) is Var:
            break
    else:
        return _decide_ground(rel, const, pairs)
    if len(pairs) == 1:
        # a single variable against a constant is a plain domain update
        c, t = pairs[0]
        v = deref(t)
        d = v.attrs.get("ic")
        integral = d is not None and d.integral
        if rel == "=<":
            bound = _bound(-const, c, integral, up=c < 0)
            return impose_max(engine, v, bound) if c > 0 else \
                impose_min(engine, v, bound)
        if rel == "=":
            return narrow(engine, v, _bound(-const, c, integral, up=True),
                          _bound(-const, c, integral, up=False))
        if integral:
            return exclude_value(engine, v, exact_quotient(-const, c))
    if rel != "\\=":
        run = _propagate_bounds
    elif (len(pairs) == 2 and type(const) is int
          and type(pairs[0][0]) is int and type(pairs[1][0]) is int):
        run = _neq2
    else:
        run = _propagate_neq
    s = engine.make_suspension(_lin_goal if goal is None else goal,
                               LIN_PRIORITY, module, run)
    s.payload = (rel, const, pairs)
    set_slot = engine.store.set_slot
    for c, t in pairs:
        v = deref(t)
        if type(v) is not Var:
            continue
        if rel == "\\=":
            rec = suspend_record(engine, v)
            set_slot(rec, "bound", rec.bound + (s,))
            d = v.attrs.get("ic")
            if d is not None and not d.integral:
                # becoming integral lets the hole be punched before binding
                set_slot(d, "w_type", d.w_type + (s,))
        else:
            d = v.attrs.get("ic") or ensure_domain(engine, v)
            if rel == "=" or c > 0:
                set_slot(d, "w_min", d.w_min + (s,))
            if rel == "=" or c < 0:
                set_slot(d, "w_max", d.w_max + (s,))
    return run(engine, s, module)


def _lin_goal(s):
    """The goal term of a linear constraint posted without one."""
    rel, const, pairs = s.payload
    return Struct("ic_lin_con", [
        Atom(rel), const, mk_list([Struct("*", [c, v]) for c, v in pairs])])


def _decide_ground(rel, const, pairs):
    lo = hi = const
    for c, t in pairs:
        blo, bhi = exact_bounds(t)
        clo, chi = (c * blo, c * bhi) if c > 0 else (c * bhi, c * blo)
        lo += clo
        hi += chi
    return _decide(rel, lo, hi)


def _decide(rel, lo, hi):
    """Whether ``s REL 0`` holds for a sum s known to lie in lo..hi;
    raises UncertaintyError when the interval does not tell."""
    if rel == "=<":
        if hi <= 0:
            return True
        if lo > 0:
            return False
        raise UncertaintyError("cannot decide inequality over bounded reals")
    if lo > 0 or hi < 0:
        return rel != "="
    if lo == hi:  # the sum is 0
        return rel == "="
    raise UncertaintyError("cannot decide %s over bounded reals"
                           % ("equality" if rel == "=" else "disequality"))


def _propagate_bounds(engine, s, module):
    """The run of ``const + sum(c*x) =< 0``, or ``= 0``: bounds propagation.

    One read of each domain: the summing loop derefs each pair, finds a
    variable's ic domain and keeps (c, x, domain, c*lo, c*hi); the
    narrowing loop bounds each variable by the slack the other terms leave
    in those sums, as read at the start of the pass, and writes the
    domain it kept through _update only where the bound tightens it
    (below hi for an upper bound, above lo for a lower one)."""
    rel, const, pairs = s.payload
    eq = rel == "="
    info = []
    n_min_inf = n_max_inf = 0  # infinite contributions, counted
    s_min = s_max = const
    for c, v in pairs:
        while type(v) is Var:  # deref(v) inline
            r = v.ref
            if r is None:
                break
            v = r
        ty = type(v)
        if ty is int:
            v *= c
            s_min += v
            s_max += v
            continue
        if ty is Var:
            # posting gave every variable a domain, and aliasing keeps one
            d = v.attrs.get("ic") or ensure_domain(engine, v)
            if d.integral:
                lo, hi = d.lo, d.hi
            else:
                lo, hi = exact_float(d.lo), exact_float(d.hi)
        else:
            lo, hi = exact_bounds(v)
        clo, chi = (c * lo, c * hi) if c > 0 else (c * hi, c * lo)
        if type(clo) is float:              # -inf
            n_min_inf += 1
        else:
            s_min += clo
        if type(chi) is float:              # +inf
            n_max_inf += 1
        else:
            s_max += chi
        if ty is Var:
            info.append((c, v, d, clo, chi))

    if n_min_inf == 0 and s_min > 0:
        return False
    if eq and n_max_inf == 0 and s_max < 0:
        return False

    # entailment
    if not eq and n_max_inf == 0 and s_max <= 0:
        engine.kill_suspension(s)
        return True
    if eq and n_min_inf == 0 and n_max_inf == 0 and s_min == s_max:
        engine.kill_suspension(s)
        return s_min == 0

    for c, v, d, clo, chi in info:
        if v.ref is not None:
            continue  # bound this pass, by another pair over the same v
        # int bounds divide as _bound does, toward the inside of the domain
        whole = d.integral and type(c) is int
        # c*x =< -(const + the other terms' minimum)
        if type(clo) is float:
            n = None if n_min_inf > 1 else -s_min
        else:
            n = None if n_min_inf else clo - s_min
        if n is not None:
            whole_n = whole and type(n) is int
            if c > 0:
                b = n // c if whole_n else exact_quotient(n, c)
                if b < d.hi and not _update(engine, v, d, d.lo, b, d.holes,
                                            d.integral):
                    return False
            else:
                b = -(-n // c) if whole_n else exact_quotient(n, c)
                if b > d.lo and not _update(engine, v, d, b, d.hi, d.holes,
                                            d.integral):
                    return False
        if not eq:
            continue
        # c*x >= -(const + the other terms' maximum).  If the narrowing
        # above bound x, it bound it to the bound of d it kept (lo for
        # c > 0, hi for c < 0), and d is unchanged: a bound that tightens
        # d then excludes x's value, and fails without a write.
        if type(chi) is float:
            n = None if n_max_inf > 1 else -s_max
        else:
            n = None if n_max_inf else chi - s_max
        if n is not None:
            whole_n = whole and type(n) is int
            if c > 0:
                b = -(-n // c) if whole_n else exact_quotient(n, c)
                if b > d.lo and (v.ref is not None or not _update(
                        engine, v, d, b, d.hi, d.holes, d.integral)):
                    return False
            else:
                b = n // c if whole_n else exact_quotient(n, c)
                if b < d.hi and (v.ref is not None or not _update(
                        engine, v, d, d.lo, b, d.holes, d.integral)):
                    return False
    return True


def _propagate_neq(engine, s, module):
    """The run of ``const + sum(c*x) \\= 0``: waits until at most one
    variable is free, then excludes the value that variable is forced
    off."""
    _, const, pairs = s.payload
    merged = {}  # id -> (coefficient, variable): aliases sum coefficients
    total = const
    lo_acc = hi_acc = 0
    uncertain = False
    for c, t in pairs:
        v = deref(t)
        if type(v) is Var:
            seen = merged.get(id(v))
            merged[id(v)] = (c, v) if seen is None else (seen[0] + c, v)
        elif type(v) is int:
            total += c * v
        else:
            blo, bhi = exact_bounds(v)
            if blo == bhi:
                total += c * blo
            else:
                uncertain = True
                clo, chi = (c * blo, c * bhi) if c > 0 else (c * bhi, c * blo)
                lo_acc += clo
                hi_acc += chi
    free = [(c, v) for c, v in merged.values() if c != 0]
    if not free:
        ok = _decide("\\=", total + lo_acc, total + hi_acc)
        engine.kill_suspension(s)
        return ok
    if len(free) == 1 and not uncertain:
        c, v = free[0]
        q = exact_quotient(-total, c)
        d = v.attrs.get("ic")
        if d is None or not d.integral:
            # no hole can be punched in a continuous domain: wait for v's
            # value, failing now only when its domain is the point q
            lo, hi = exact_bounds(v)
            return lo != hi or lo != q
        if not _exclude(engine, v, d, q):
            return False
        engine.kill_suspension(s)
        return True
    return True


def _neq2(engine, s, module):
    """The run of ``c1*x + c2*y + k \\= 0`` with ints c1, c2 and k, in
    constant time.  Once one side is an int, the other side's integral
    domain loses the quotient, if it is exact and still in the domain,
    and the demon dies.  Aliasing, a domain that is not integral and a
    side bound to another number take the general path."""
    _, k, ((c1, x), (c2, y)) = s.payload
    while type(x) is Var:  # deref inline
        r = x.ref
        if r is None:
            break
        x = r
    while type(y) is Var:
        r = y.ref
        if r is None:
            break
        y = r
    if type(y) is int:
        c, v, k = c1, x, k + c2 * y
    elif type(x) is int:
        c, v, k = c2, y, k + c1 * x
    elif type(x) is Var and type(y) is Var and x is not y:
        return True
    else:
        return _propagate_neq(engine, s, module)
    if type(v) is int:  # both sides are ints
        ok = k + c * v != 0
    else:
        d = v.attrs.get("ic") if type(v) is Var else None
        if d is None or not d.integral:
            return _propagate_neq(engine, s, module)
        q, r = divmod(-k, c)
        if (r == 0 and admits(q, d.lo, d.hi, True, d.holes)
                and not _update(engine, v, d, d.lo, d.hi, d.holes | {q},
                                True)):
            return False
        ok = True
    engine.store.set_slot(s, "state", EXECUTED)
    return ok


_LIN_RELS = frozenset(map(Atom, ("=<", "=", "\\=")))


# ----------------------------------------------------------------------
# alldifferent

def bi_alldifferent(engine, args, module):
    items = proper_list(args[0])
    if items is None:
        raise InstantiationError("alldifferent: needs a proper list")
    # a variable listed twice fails in _alldiff_check
    free = [v for v in map(deref, items) if type(v) is Var]
    if not free:
        return _alldiff_check(engine, items, None)
    s = engine.make_suspension(_alldiff_goal, ALLDIFF_PRIORITY, module,
                               _alldiff_run)
    s.payload = items
    for v in free:
        engine.attach_suspension(s, v, "bound")
    return _alldiff_check(engine, items, s)


def _alldiff_run(engine, s, module):
    return _alldiff_check(engine, s.payload, s)


def _alldiff_goal(s):
    return Struct("alldifferent", [mk_list(s.payload)])


def _alldiff_check(engine, items, s):
    ground = []
    free = {}
    for t in items:
        v = deref(t)
        if type(v) is Var:
            if id(v) in free:
                return False  # aliased: the same variable twice
            free[id(v)] = v
        else:
            ground.append(v)
    seen = set()
    for g in ground:
        blo, bhi = exact_bounds(g)
        if blo != bhi:
            continue  # an uncertain value: no sound duplicate test by value
        if blo in seen:
            return False
        seen.add(blo)
    for v in free.values():
        d = v.attrs.get("ic")
        if d is not None and d.integral:
            for val in seen:
                if not _exclude(engine, v, d, val):
                    return False
    if s is not None and len(free) <= 1:
        engine.kill_suspension(s)
    return True


# ----------------------------------------------------------------------
# domain declaration  X :: Lo..Hi

def _domain_targets(t):
    """The terms of t, nested lists and arrays flattened in order, walked
    on a stack."""
    out = []
    stack = [t]
    while stack:
        t = deref(stack.pop())
        items = proper_list(t)
        if items is None and type(t) is Struct and t.name == "[]":
            items = t.args
        if items is None:
            out.append(t)
        else:
            stack.extend(reversed(items))
    return out


def bi_domain(engine, args, module):
    integral, lo, hi, keep = _parse_domain_spec(deref(args[1]))
    for x in _domain_targets(args[0]):
        if not (type(x) is Var or is_number(x)):
            raise TypeError_(":: applies to variables and numbers")
        if not narrow(engine, x, lo, hi, integral, keep):
            return False
    return True


def _parse_domain_spec(spec):
    if type(spec) is Struct and spec.name == ".." and spec.arity == 2:
        lo_v = eval_arith(spec.args[0])
        hi_v = eval_arith(spec.args[1])
        integral = isinstance(lo_v, int) and isinstance(hi_v, int)
        lo = exact_bounds(lo_v)[0]
        hi = exact_bounds(hi_v)[1]
        return integral, lo, hi, None
    items = proper_list(spec)
    if items is not None and items:
        values = [deref(eval_arith(i)) for i in items]
        if not all(isinstance(v, int) for v in values):
            raise TypeError_(":: enumerated domains must be integers")
        return True, min(values), max(values), frozenset(values)
    raise DomainError(":: domain must be Lo..Hi or a list of integers")


# ----------------------------------------------------------------------
# reflection builtins

def _get_bounds(x):
    """(lo, hi) as the reflection builtins read them: a domain's (None
    without one), a number's own value, a bounded real's endpoints."""
    x = deref(x)
    ty = type(x)
    if ty is Var:
        d = x.attrs.get("ic")
        return None if d is None else (d.lo, d.hi)
    if ty is int or ty is float or ty is Fraction:
        return x, x
    if ty is Breal:
        return x.lo, x.hi
    raise TypeError_("not a numeric term: %s" % show(x))


def _exact(v):
    """An evaluated bound made exact; an infinite float stays (isinstance
    first, as math.isinf overflows on a huge int)."""
    if type(v) is Breal:
        raise TypeError_("bounds must be exact numbers")
    if isinstance(v, float) and math.isinf(v):
        return v
    return Fraction(v)


def install(engine):
    ic = engine.ic
    _install_attribute(engine)

    for name in ("::", "#=", "#\\=", "#<", "#>", "#=<", "#>="):
        ic.ops.declare(700, "xfx", name, exported=True)
    ic.ops.declare(600, "xfx", "..", exported=True)

    def bi(name, arity, fn):
        return engine.add_builtin(ic, name, arity, fn)

    bi("::", 2, bi_domain)

    def rel_builtin(relname):
        def fn(engine_, args, module):
            rel, const, pairs = normalize_relation(relname, args[0], args[1])
            for _, v in pairs:  # normalize_relation dereferenced them
                d = v.attrs.get("ic")
                if (d is None or not d.integral) and not narrow(
                        engine_, v, integral=True):
                    return False
            return _post_lin_con(engine_, module, rel, const, pairs)
        return fn

    for relname in ("#=", "#\\=", "#<", "#>", "#=<", "#>="):
        bi(relname, 2, rel_builtin(relname))

    bi("ic_lin_con", 3, bi_ic_lin_con)
    bi("alldifferent", 1, bi_alldifferent)

    def domain_bounds(x):
        b = _get_bounds(x)
        if b is None:
            raise InstantiationError("variable has no domain")
        return b

    def bi_get_min(engine_, args, module):
        return engine_.store.unify(args[1], domain_bounds(args[0])[0])

    def bi_get_max(engine_, args, module):
        return engine_.store.unify(args[1], domain_bounds(args[0])[1])

    def bi_get_bounds(engine_, args, module):
        lo, hi = domain_bounds(args[0])
        return (engine_.store.unify(args[1], lo)
                and engine_.store.unify(args[2], hi))

    def bi_get_var_bounds(engine_, args, module):
        b = _get_bounds(args[0]) or (-_INF, _INF)
        return (engine_.store.unify(args[1], float_down(b[0]))
                and engine_.store.unify(args[2], float_up(b[1])))

    def bi_set_var_bounds(engine_, args, module):
        lo, hi = eval_arith(args[1]), eval_arith(args[2])
        lo = _exact(lo.lo if type(lo) is Breal else lo)
        hi = _exact(hi.hi if type(hi) is Breal else hi)
        x = deref(args[0])
        if type(x) is Var and x.attrs.get("ic") is None:
            raise UnsupportedError("set_var_bounds: variable has no domain")
        return narrow(engine_, x, lo, hi)

    def bi_impose_min(engine_, args, module):
        return impose_min(engine_, args[0], _exact(eval_arith(args[1])))

    def bi_impose_max(engine_, args, module):
        return impose_max(engine_, args[0], _exact(eval_arith(args[1])))

    def bi_exclude(engine_, args, module):
        return exclude_value(engine_, args[0], _exact(eval_arith(args[1])))

    def bi_impose_integrality(engine_, args, module):
        return impose_integrality(engine_, args[0])

    bi("get_min", 2, bi_get_min)
    bi("get_max", 2, bi_get_max)
    bi("get_bounds", 3, bi_get_bounds)
    engine.add_builtin(engine.kernel, "get_var_bounds", 3, bi_get_var_bounds)
    engine.add_builtin(engine.kernel, "set_var_bounds", 3, bi_set_var_bounds)
    bi("impose_min", 2, bi_impose_min)
    bi("impose_max", 2, bi_impose_max)
    bi("exclude", 2, bi_exclude)
    bi("impose_integrality", 1, bi_impose_integrality)

    ic.add_output_macro("ic_lin_con", 3, _lin_con_display, exported=True)

    engine._load_prelude(_IC_PRELUDE, ic)


def _lin_con_display(t):
    rel_t = deref(t.args[0])
    items = proper_list(t.args[2])
    if not isinstance(rel_t, Atom) or items is None:
        return t
    rel = {"=<": "#=<", "=": "#=", "\\=": "#\\="}.get(rel_t.name)
    if rel is None:
        return t
    expr = None
    for it in items:
        it = deref(it)
        c = deref(it.args[0])
        v = it.args[1]
        piece = v if c == 1 else Struct("*", [c, v])
        expr = piece if expr is None else Struct("+", [expr, piece])
    const = deref(t.args[1])
    if expr is None:
        expr = const
    elif not (const == 0):
        expr = Struct("+", [expr, const])
    return Struct(rel, [expr, 0])


_IC_SOURCE = """
:- export(geq/2).

geq(X, Y) :-
    ( number(X), number(Y) ->
        X >= Y
    ;
        get_var_bounds(X, _, XH0),
        get_var_bounds(Y, YL0, _),
        ( XH0 < YL0 -> fail ; true ),
        impose_min(X, YL0),
        impose_max(Y, XH0),
        get_var_bounds(X, XL1, _),
        get_var_bounds(Y, _, YH1),
        ( XL1 >= YH1 ->
            true
        ;
            suspend(geq(X, Y), 3, [X -> ic:max, Y -> ic:min])
        )
    ).
"""
_IC_PRELUDE = read_prelude(_IC_SOURCE)
