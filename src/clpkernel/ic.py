"""Interval and finite-domain solver.

A constrained variable carries an 'ic' attribute whose payload is a
Domain: numeric bounds, an integrality flag, a frozenset of excluded
values (holes), and four solver suspension lists that wake on specific
narrowing events:

    w_min   lower bound raised          w_hole  interior value removed
    w_max   upper bound lowered         w_type  became integral

Narrowing goes through impose_min / impose_max / exclude_value /
impose_integrality, which trail every change, wake precisely the lists
affected by the event (plus the variable's generic constrained list), and
instantiate the variable when the domain collapses to a single value.
Instantiating a constrained variable wakes all four solver lists: anyone
watching any aspect of the domain must get a chance to react to the
strongest possible event.

Only integral domains have holes, and every hole lies strictly between
lo and hi: a narrowing that would leave a hole at a bound moves the bound
past it instead.  No operation enumerates lo..hi: printing walks the
sorted holes, and labeling (search.py) filters them out lazily.  Posting
an enumerated domain X :: [...] walks its span once, but every value it
passes there is listed or becomes a hole.

Domain bounds are stored exactly for integral domains (Python ints) and
as outward-rounded floats for continuous ones.  All constraint arithmetic
is exact, so propagation never cuts a feasible value: a linear constraint
whose constant and coefficients are integers computes in Python ints over
integral domains, dividing with floor or ceiling toward the inside of the
domain; rational coefficients and continuous domains compute in
Fractions, and their bounds are rounded outward only when stored.

Linear constraints normalise to ``const + sum(c_i * x_i)  REL  0`` with
REL one of =< / = / \\=, and are enforced by a single demon predicate,
ic_lin_con/3, at priority 5.  The demon attaches itself to the bound
lists its coefficients make it sensitive to (=< and =), or to the
instantiation lists (\\=, which waits until at most one variable is
free, then excludes the forced value).  alldifferent/1 is a
forward-checking demon at priority 4.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .arith import eval_arith, float_down, float_up, subscript_get
from .attvar import AttributeSpec, add_attr, get_attr, init_attr
from .errors import (DomainError, InstantiationError, TypeError_,
                     UncertaintyError, UnsupportedError)
from .terms import (Atom, Breal, Struct, Var, deref, is_number, mk_list,
                    proper_list, term_vars)

_MAXF = sys.float_info.max
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
    return str(a) if a == b else "%d..%d" % (a, b)


def _bound_text(b):
    return repr(b) if isinstance(b, float) else str(b)


# ----------------------------------------------------------------------
# attribute plumbing

def get_domain(v):
    v = deref(v)
    if type(v) is Var:
        return get_attr(v, "ic")
    return None


def ensure_domain(engine, v):
    d = get_domain(v)
    if d is None:
        d = Domain()
        add_attr(engine.store, deref(v), "ic", d)
    return d


def _dom_value(d):
    """The single value of a collapsed domain, or None."""
    if d.lo == d.hi:
        return int(d.lo) if d.integral else float(d.lo)
    return None


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
        return _exact_float(d.lo), _exact_float(d.hi)
    if ty is int or ty is Fraction:
        return t, t
    if ty is float:
        q = _exact_float(t)
        return q, q
    if ty is Breal:
        return _exact_float(t.lo), _exact_float(t.hi)
    raise TypeError_("not a numeric term: %r" % (t,))


def _exact_float(f):
    return f if math.isinf(f) else Fraction(f)


def _to_float_down(q):
    if isinstance(q, float):
        return q
    return float_down(q)


def _to_float_up(q):
    if isinstance(q, float):
        return q
    return float_up(q)


# ----------------------------------------------------------------------
# narrowing operations

def _wake(engine, *lists):
    for l in lists:
        if l:
            engine.wake(l)


def _maybe_instantiate(engine, v, d):
    val = _dom_value(d)
    if val is None:
        return True
    return engine.store.bind(v, val)


def impose_min(engine, x, b):
    """x >= b (b exact).  True unless the domain empties."""
    x = deref(x)
    if is_number(x):
        lo, hi = exact_bounds(x)
        return hi >= b
    if isinstance(b, float) and math.isinf(b):
        if b > 0:
            return False
        return True
    d = ensure_domain(engine, x)
    if d.integral:
        new_lo = math.ceil(b)
        while d.holes and new_lo in d.holes:
            new_lo += 1
    else:
        new_lo = _to_float_down(b)
    if new_lo <= d.lo:
        return True
    if new_lo > d.hi:
        return False
    store = engine.store
    store.set_slot(d, "lo", new_lo)
    if d.holes:
        store.set_slot(d, "holes",
                       frozenset(h for h in d.holes if d.lo < h < d.hi))
    if not _maybe_instantiate(engine, x, d):
        return False
    if type(deref(x)) is Var:
        _wake(engine, d.w_min, x.wake_constrained)
    return True


def impose_max(engine, x, b):
    x = deref(x)
    if is_number(x):
        lo, hi = exact_bounds(x)
        return lo <= b
    if isinstance(b, float) and math.isinf(b):
        return b > 0
    d = ensure_domain(engine, x)
    if d.integral:
        new_hi = math.floor(b)
        while d.holes and new_hi in d.holes:
            new_hi -= 1
    else:
        new_hi = _to_float_up(b)
    if new_hi >= d.hi:
        return True
    if new_hi < d.lo:
        return False
    store = engine.store
    store.set_slot(d, "hi", new_hi)
    if d.holes:
        store.set_slot(d, "holes",
                       frozenset(h for h in d.holes if d.lo < h < d.hi))
    if not _maybe_instantiate(engine, x, d):
        return False
    if type(deref(x)) is Var:
        _wake(engine, d.w_max, x.wake_constrained)
    return True


def exclude_value(engine, x, v):
    """x != v for an exact value v; integral domains only."""
    x = deref(x)
    if is_number(x):
        lo, hi = exact_bounds(x)
        if lo == hi:
            return lo != v
        # an uncertain ground value against != stays undecided; be safe
        return True
    d = ensure_domain(engine, x)
    if not d.integral:
        raise TypeError_("exclude: variable does not have an integer domain")
    if isinstance(v, float):
        if math.isinf(v):
            return True
        if not v.is_integer():
            return True
        v = int(v)
    if isinstance(v, Fraction) and v.denominator != 1:
        return True
    vi = int(v)
    if vi < d.lo or vi > d.hi or (d.holes and vi in d.holes):
        return True
    if d.lo == d.hi:
        return False  # excluding the only value
    if vi == d.lo:
        return impose_min(engine, x, vi + 1)
    if vi == d.hi:
        return impose_max(engine, x, vi - 1)
    engine.store.set_slot(d, "holes", (d.holes or frozenset()) | {vi})
    _wake(engine, d.w_hole, x.wake_constrained)
    return True


def impose_integrality(engine, x):
    x = deref(x)
    if is_number(x):
        if type(x) is int:
            return True
        if type(x) is Fraction:
            return x.denominator == 1
        if type(x) is float:
            return x.is_integer()
        return math.ceil(x.lo) <= math.floor(x.hi)  # breal: may contain an int
    d = ensure_domain(engine, x)
    if d.integral:
        return True
    store = engine.store
    store.set_slot(d, "integral", True)
    moved_lo = moved_hi = False
    if not (isinstance(d.lo, float) and math.isinf(d.lo)):
        new_lo = math.ceil(Fraction(d.lo))
        moved_lo = new_lo > d.lo
        store.set_slot(d, "lo", new_lo)
    if not (isinstance(d.hi, float) and math.isinf(d.hi)):
        new_hi = math.floor(Fraction(d.hi))
        moved_hi = new_hi < d.hi
        store.set_slot(d, "hi", new_hi)
    if d.lo > d.hi:
        return False
    if not _maybe_instantiate(engine, x, d):
        return False
    if type(deref(x)) is Var:
        _wake(engine, d.w_type, x.wake_constrained)
        if moved_lo:
            _wake(engine, d.w_min)
        if moved_hi:
            _wake(engine, d.w_max)
    return True


# ----------------------------------------------------------------------
# the attribute handlers

def _install_attribute(engine):
    store = engine.store

    def on_unify(value, payload, var):
        d = payload
        if type(value) is Var:
            other = get_attr(value, "ic")
            if other is None:
                add_attr(store, value, "ic", d)
                return True
            return _merge_domains(engine, value, other, d)
        return _check_value(engine, value, d)

    def _check_value(engine_, value, d):
        if d.integral:
            ok = (type(value) is int
                  and d.lo <= value <= d.hi
                  and not (d.holes and value in d.holes))
        elif type(value) in (int, float, Fraction):
            if type(value) is float and (math.isinf(value) or math.isnan(value)):
                ok = False
            else:
                q = Fraction(value)
                ok = d.lo <= q <= d.hi
        elif type(value) is Breal:
            inside = d.lo <= value.lo and value.hi <= d.hi
            outside = value.hi < d.lo or value.lo > d.hi
            if not inside and not outside:
                raise UncertaintyError(
                    "bounded real %r only partially overlaps the domain %s"
                    % (value, format_domain(d)))
            ok = inside
        else:
            ok = False
        if ok:
            _wake(engine_, d.w_min, d.w_max, d.w_hole, d.w_type)
        return ok

    def _merge_domains(engine_, survivor, ds, dd):
        lo = max(ds.lo, dd.lo)
        hi = min(ds.hi, dd.hi)
        integral = ds.integral or dd.integral
        holes = (ds.holes or frozenset()) | (dd.holes or frozenset())
        if integral:
            if not (isinstance(lo, float) and math.isinf(lo)):
                lo = math.ceil(Fraction(lo))
            if not (isinstance(hi, float) and math.isinf(hi)):
                hi = math.floor(Fraction(hi))
        if lo > hi:
            return False
        holes = frozenset(h for h in holes if lo < h < hi)
        if integral:
            while lo in holes:
                lo += 1
            while hi in holes:
                hi -= 1
            holes = frozenset(h for h in holes if lo < h < hi)
            if lo > hi:
                return False
        st = engine_.store
        lo_event = lo > ds.lo or lo > dd.lo
        hi_event = hi < ds.hi or hi < dd.hi
        type_event = integral and not (ds.integral and dd.integral)
        hole_event = holes != (ds.holes or frozenset()) or holes != (dd.holes or frozenset())
        st.set_slot(ds, "lo", lo)
        st.set_slot(ds, "hi", hi)
        st.set_slot(ds, "integral", integral)
        st.set_slot(ds, "holes", holes)
        for slot in ("w_min", "w_max", "w_hole", "w_type"):
            extra = getattr(dd, slot)
            if extra:
                st.set_slot(ds, slot, getattr(ds, slot) + extra)
        if lo_event:
            _wake(engine_, ds.w_min)
        if hi_event:
            _wake(engine_, ds.w_max)
        if hole_event:
            _wake(engine_, ds.w_hole)
        if type_event:
            _wake(engine_, ds.w_type)
        _wake(engine_, survivor.wake_constrained)
        return _maybe_instantiate(engine_, survivor, ds)

    def on_copy(payload, fresh):
        init_attr(fresh, "ic",
                  Domain(payload.lo, payload.hi, payload.integral, payload.holes))

    def bounds_get(var, payload):
        return (_to_float_down(payload.lo) if not isinstance(payload.lo, float)
                else payload.lo,
                _to_float_up(payload.hi) if not isinstance(payload.hi, float)
                else payload.hi)

    def bounds_set(var, payload, lo, hi):
        if not impose_min(engine, var, lo if isinstance(lo, float) and math.isinf(lo)
                          else Fraction(lo)):
            return False
        return impose_max(engine, var, hi if isinstance(hi, float) and math.isinf(hi)
                          else Fraction(hi))

    def get_list(eng, var, name):
        slot = _LIST_SLOTS.get(name)
        if slot is None:
            return None
        return ensure_domain(eng, var), slot

    def portray(var, payload):
        return format_domain(payload)

    engine.registry.register(AttributeSpec(
        name="ic", unify=on_unify, copy=on_copy, bounds_get=bounds_get,
        bounds_set=bounds_set, get_list=get_list, portray=portray))


# ----------------------------------------------------------------------
# linear constraint normalisation

def _numq(q):
    return int(q) if isinstance(q, Fraction) and q.denominator == 1 else q


def _exact(x):
    """A constant as an exact number: an int when it is integral."""
    return x if type(x) is int else _numq(Fraction(x))


def _quotient(n, c):
    """n / c exactly: an int when c divides n, else a Fraction."""
    if type(n) is int and type(c) is int:
        q, r = divmod(n, c)
        return q if r == 0 else Fraction(n, c)
    return n / c


def _bound(n, c, v, up):
    """n / c as a bound on the variable v.  Two ints over an integral
    domain divide in int, rounded toward the inside of the domain (up:
    the ceiling, for a lower bound; else the floor); anything else gives
    the exact quotient, which impose_min / impose_max round themselves."""
    if type(n) is int and type(c) is int:
        d = get_domain(v)
        if d is not None and d.integral:
            return -(-n // c) if up else n // c
    return _quotient(n, c)


def normalize_linear(t):
    """t -> (const, [(coeff, var)]) in exact arithmetic: ints while
    everything is integral, Fractions otherwise.
    Raises if t is not linear."""
    const, coeffs, order = _lin(t)
    pairs = [(coeffs[k], v) for k, v in order if coeffs[k] != 0]
    return const, pairs


def _lin(t):
    t = deref(t)
    ty = type(t)
    if ty is Var:
        return 0, {id(t): 1}, [(id(t), t)]
    if ty is int or ty is Fraction:
        return t, {}, []
    if ty is float:
        if math.isinf(t) or math.isnan(t):
            raise DomainError("constraint constants must be finite: %r" % t)
        return _exact(t), {}, []
    if ty is Breal:
        raise UnsupportedError("bounded reals cannot appear in exact "
                               "linear constraints")
    if ty is Struct:
        n, a = t.name, t.args
        if n == "+" and len(a) == 2:
            return _lin_merge(_lin(a[0]), _lin(a[1]), 1)
        if n == "-" and len(a) == 2:
            return _lin_merge(_lin(a[0]), _lin(a[1]), -1)
        if n == "-" and len(a) == 1:
            c, m, o = _lin(a[0])
            return -c, {k: -v for k, v in m.items()}, o
        if n == "+" and len(a) == 1:
            return _lin(a[0])
        if n == "*" and len(a) == 2:
            lc, lm, lo = _lin(a[0])
            rc, rm, ro = _lin(a[1])
            if lm and rm:
                raise UnsupportedError("nonlinear term: %r" % (t,))
            if lm:
                lc, lm, lo, rc, rm, ro = rc, rm, ro, lc, lm, lo
            # lc is the scalar now
            return rc * lc, {k: v * lc for k, v in rm.items()}, ro
        if n == "/" and len(a) == 2:
            rc, rm, _ = _lin(a[1])
            if rm or rc == 0:
                raise UnsupportedError("division in constraints needs a "
                                       "nonzero constant divisor")
            c, m, o = _lin(a[0])
            return (_quotient(c, rc), {k: _quotient(v, rc) for k, v in m.items()},
                    o)
        if n == "subscript" and len(a) == 2:
            idx = proper_list(a[1])
            if idx is None:
                raise TypeError_("subscript: index list must be a proper list")
            idx = [eval_arith(i) for i in idx]
            return _lin(subscript_get(a[0], idx))
        raise UnsupportedError("not usable in a linear constraint: %s/%d"
                               % (n, len(a)))
    raise TypeError_("not usable in a linear constraint: %r" % (t,))


def _lin_merge(left, right, sign):
    lc, lm, lo = left
    rc, rm, ro = right
    m = dict(lm)
    order = list(lo)
    seen = {k for k, _ in lo}
    for k, v in ro:
        if k not in seen:
            order.append((k, v))
            seen.add(k)
    for k, v in rm.items():
        m[k] = m.get(k, 0) + sign * v
    return lc + sign * rc, m, order


# relation -> (lhs-rhs transform): every one becomes  lin REL 0
_REL_FORMS = {
    "#=":  ("=", 1, 0),    # L - R = 0
    "#\\=": ("\\=", 1, 0),
    "#=<": ("=<", 1, 0),   # L - R =< 0
    "#>=": ("=<", -1, 0),  # R - L =< 0
    "#<":  ("=<", 1, 1),   # L - R + 1 =< 0
    "#>":  ("=<", -1, 1),  # R - L + 1 =< 0
}


# ----------------------------------------------------------------------
# the linear-constraint demon

def _parse_lin_goal(args):
    const = _exact(deref(args[1]))
    items = proper_list(args[2])
    pairs = []
    for it in items:
        it = deref(it)
        c = _exact(deref(it.args[0]))
        if c != 0:
            pairs.append((c, it.args[1]))
    return const, pairs


def bi_ic_lin_con(engine, args, module):
    rel = deref(args[0]).name
    s = engine.current_suspension
    if s is not None and isinstance(s.goal, Struct) and s.goal.args is args:
        # woken run of an installed constraint
        const, pairs = s.payload
        return _propagate(engine, rel, const, pairs, s)
    const, pairs = _parse_lin_goal(args)
    goal = Struct("ic_lin_con", list(args))
    return _post_lin_con(engine, module, rel, const, pairs, goal)


def _post_lin_con(engine, module, rel, const, pairs, goal):
    if not any(type(deref(t)) is Var for _, t in pairs):
        return _decide_ground(rel, const, pairs)
    if len(pairs) == 1:
        # a single variable against a constant is a plain domain update
        c, t = pairs[0]
        v = deref(t)
        if rel == "=<":
            bound = _bound(-const, c, v, up=c < 0)
            return impose_max(engine, v, bound) if c > 0 else \
                impose_min(engine, v, bound)
        if rel == "=":
            return impose_min(engine, v, _bound(-const, c, v, up=True)) and \
                impose_max(engine, v, _bound(-const, c, v, up=False))
        d = get_domain(v)
        if d is not None and d.integral:
            return exclude_value(engine, v, _quotient(-const, c))
    s = engine.make_suspension(goal, LIN_PRIORITY, module)
    s.payload = (const, pairs)
    for c, t in pairs:
        v = deref(t)
        if type(v) is not Var:
            continue
        if rel == "\\=":
            engine.attach_suspension(s, v, "inst")
            d = get_domain(v)
            if d is not None and not d.integral:
                # becoming integral lets the hole be punched before binding
                engine.attach_to_list(s, d, "w_type")
        else:
            d = ensure_domain(engine, v)
            if rel == "=" or c > 0:
                engine.attach_to_list(s, d, "w_min")
            if rel == "=" or c < 0:
                engine.attach_to_list(s, d, "w_max")
    return _propagate(engine, rel, const, pairs, s)


def _decide_ground(rel, const, pairs):
    lo = hi = const
    for c, t in pairs:
        blo, bhi = exact_bounds(t)
        clo, chi = (c * blo, c * bhi) if c > 0 else (c * bhi, c * blo)
        lo += clo
        hi += chi
    if rel == "=<":
        if hi <= 0:
            return True
        if lo > 0:
            return False
        raise UncertaintyError("cannot decide inequality over bounded reals")
    if rel == "=":
        if lo == hi:
            return lo == 0
        if lo > 0 or hi < 0:
            return False
        raise UncertaintyError("cannot decide equality over bounded reals")
    # \=
    if lo == hi:
        return lo != 0
    if lo > 0 or hi < 0:
        return True
    raise UncertaintyError("cannot decide disequality over bounded reals")


def _propagate(engine, rel, const, pairs, s):
    if rel == "\\=":
        return _propagate_neq(engine, const, pairs, s)

    # contribution bounds per pair; infinities tracked by count
    info = []
    n_min_inf = n_max_inf = 0
    s_min = s_max = const
    for c, t in pairs:
        blo, bhi = exact_bounds(t)
        clo, chi = (c * blo, c * bhi) if c > 0 else (c * bhi, c * blo)
        if isinstance(clo, float):          # -inf
            n_min_inf += 1
        else:
            s_min += clo
        if isinstance(chi, float):          # +inf
            n_max_inf += 1
        else:
            s_max += chi
        info.append((c, t, clo, chi))

    if n_min_inf == 0 and s_min > 0:
        return False
    if rel == "=" and n_max_inf == 0 and s_max < 0:
        return False

    # entailment
    if rel == "=<" and n_max_inf == 0 and s_max <= 0:
        if s is not None:
            engine.kill_suspension(s)
        return True
    if rel == "=" and n_min_inf == 0 and n_max_inf == 0 and s_min == s_max:
        if s is not None:
            engine.kill_suspension(s)
        return s_min == 0

    for c, t, clo, chi in info:
        v = deref(t)
        if type(v) is not Var:
            continue
        # x bounded by the slack the other terms leave:  c*x =< -const-others_min
        if not (isinstance(clo, float) and n_min_inf > 1) and \
                not (not isinstance(clo, float) and n_min_inf > 0):
            others_min = s_min - (0 if isinstance(clo, float) else clo)
            # note: const folded into s_min
            bound = _bound(-others_min, c, v, up=c < 0)
            ok = impose_max(engine, v, bound) if c > 0 else \
                impose_min(engine, v, bound)
            if not ok:
                return False
        if rel == "=":
            if (isinstance(chi, float) and n_max_inf > 1) or \
                    (not isinstance(chi, float) and n_max_inf > 0):
                continue
            others_max = s_max - (0 if isinstance(chi, float) else chi)
            bound = _bound(-others_max, c, v, up=c > 0)
            ok = impose_min(engine, v, bound) if c > 0 else \
                impose_max(engine, v, bound)
            if not ok:
                return False
    return True


def _propagate_neq(engine, const, pairs, s):
    free = []
    total = const
    lo_acc = hi_acc = 0
    uncertain = False
    for c, t in pairs:
        v = deref(t)
        if type(v) is Var:
            free.append((c, v))
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
    if uncertain:
        lo, hi = total + lo_acc, total + hi_acc
        if len(free) == 0:
            if lo > 0 or hi < 0:
                if s is not None:
                    engine.kill_suspension(s)
                return True
            raise UncertaintyError("cannot decide disequality over bounded reals")
        return True
    if len(free) == 0:
        if s is not None:
            engine.kill_suspension(s)
        return total != 0
    if len(free) == 1:
        c, v = free[0]
        q = _quotient(-total, c)
        d = get_attr(v, "ic")
        if d is None or not d.integral:
            # no hole can be punched in a continuous domain: wait for v's
            # value, failing now only when its domain is the point q
            lo, hi = exact_bounds(v)
            return lo != hi or lo != q
        if not exclude_value(engine, v, q):
            return False
        if s is not None:
            engine.kill_suspension(s)
        return True
    return True


# ----------------------------------------------------------------------
# alldifferent

def bi_alldifferent(engine, args, module):
    items = proper_list(args[0])
    if items is None:
        raise InstantiationError("alldifferent: needs a proper list")
    s = engine.current_suspension
    installed = (s is not None and isinstance(s.goal, Struct)
                 and s.goal.args is args)
    if not installed:
        seen_vars = set()
        free = []
        for t in items:
            v = deref(t)
            if type(v) is Var:
                if id(v) in seen_vars:
                    return False  # the same variable twice can never differ
                seen_vars.add(id(v))
                free.append(v)
        if free:
            s = engine.make_suspension(Struct("alldifferent", list(args)),
                                       ALLDIFF_PRIORITY, module)
            for v in free:
                engine.attach_suspension(s, v, "inst")
        else:
            s = None
    return _alldiff_check(engine, items, s)


def _alldiff_check(engine, items, s):
    ground = []
    free = []
    for t in items:
        v = deref(t)
        if type(v) is Var:
            free.append(v)
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
    for v in free:
        d = get_domain(v)
        if d is not None and d.integral:
            for val in seen:
                if not exclude_value(engine, v, val):
                    return False
    if s is not None and len(free) <= 1:
        engine.kill_suspension(s)
    return True


# ----------------------------------------------------------------------
# domain declaration  X :: Lo..Hi

def _domain_targets(t):
    t = deref(t)
    items = proper_list(t)
    if items is not None:
        out = []
        for x in items:
            out.extend(_domain_targets(x))
        return out
    if type(t) is Struct and t.name == "[]":
        out = []
        for a in t.args:
            out.extend(_domain_targets(a))
        return out
    return [t]


def bi_domain(engine, args, module):
    spec = deref(args[1])
    targets = _domain_targets(args[0])
    integral, lo, hi, values = _parse_domain_spec(spec)
    for x in targets:
        x = deref(x)
        if not (type(x) is Var or is_number(x)):
            raise TypeError_(":: applies to variables and numbers")
        if integral and not impose_integrality(engine, x):
            return False
        if not impose_min(engine, x, lo):
            return False
        if not impose_max(engine, x, hi):
            return False
        if values is not None and not _keep_only(engine, x, values):
            return False
    return True


def _keep_only(engine, x, values):
    """Remove from x's integral domain every value not in the sorted list
    values, whose span already bounds the domain: one update of the
    holes, then the bounds move past any holes, waking w_hole once."""
    x = deref(x)
    present = set(values)
    if type(x) is not Var:
        lo, hi = exact_bounds(x)
        return lo != hi or lo in present
    d = get_domain(x)
    lo, hi = d.lo, d.hi
    holes = d.holes.union(v for v in range(lo + 1, hi) if v not in present)
    if len(holes) > len(d.holes):
        engine.store.set_slot(d, "holes", holes)
        _wake(engine, d.w_hole, x.wake_constrained)
    # impose_min and impose_max skip the holes just added
    return ((lo in present or impose_min(engine, x, lo + 1))
            and (hi in present or impose_max(engine, x, hi - 1)))


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
        values = sorted(deref(eval_arith(i)) for i in items)
        if not all(isinstance(v, int) for v in values):
            raise TypeError_(":: enumerated domains must be integers")
        return True, values[0], values[-1], values
    raise DomainError(":: domain must be Lo..Hi or a list of integers")


# ----------------------------------------------------------------------
# reflection builtins

def _get_bound(engine, x, which):
    x = deref(x)
    if is_number(x):
        lo, hi = exact_bounds(x)
        q = lo if which == "lo" else hi
        return _numq(q) if isinstance(q, Fraction) else q
    d = get_domain(x)
    if d is None:
        raise InstantiationError("variable has no domain")
    return d.lo if which == "lo" else d.hi


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
        rel, sign, extra = _REL_FORMS[relname]

        def fn(engine_, args, module):
            lc, lp = normalize_linear(args[0])
            rc, rp = normalize_linear(args[1])
            const = _numq(sign * (lc - rc) + extra)
            coeffs = {}
            order = []
            for c, v in lp + [(-c2, v2) for c2, v2 in rp]:
                k = id(deref(v))
                if k not in coeffs:
                    coeffs[k] = 0
                    order.append((k, v))
                coeffs[k] += sign * c
            pairs = [(_numq(coeffs[k]), v) for k, v in order if coeffs[k] != 0]
            for _, v in pairs:
                if not impose_integrality(engine_, v):
                    return False
            goal = Struct("ic_lin_con",
                          [Atom(rel), const,
                           mk_list([Struct("*", [c, v]) for c, v in pairs])])
            return _post_lin_con(engine_, module, rel, const, pairs, goal)
        return fn

    for relname in ("#=", "#\\=", "#<", "#>", "#=<", "#>="):
        bi(relname, 2, rel_builtin(relname))

    p = bi("ic_lin_con", 3, bi_ic_lin_con)
    p.demon = True
    p = bi("alldifferent", 1, bi_alldifferent)
    p.demon = True

    def bi_get_min(engine_, args, module):
        return engine_.store.unify(args[1], _get_bound(engine_, args[0], "lo"))

    def bi_get_max(engine_, args, module):
        return engine_.store.unify(args[1], _get_bound(engine_, args[0], "hi"))

    def bi_get_bounds(engine_, args, module):
        return (engine_.store.unify(args[1], _get_bound(engine_, args[0], "lo"))
                and engine_.store.unify(args[2], _get_bound(engine_, args[0], "hi")))

    def _exactify(v):
        v = eval_arith(v)
        if type(v) is Breal:
            raise TypeError_("bounds must be exact numbers")
        if isinstance(v, float) and math.isinf(v):
            return v
        return Fraction(v)

    def bi_impose_min(engine_, args, module):
        return impose_min(engine_, args[0], _exactify(args[1]))

    def bi_impose_max(engine_, args, module):
        return impose_max(engine_, args[0], _exactify(args[1]))

    def bi_exclude(engine_, args, module):
        v = _exactify(args[1])
        return exclude_value(engine_, args[0], v)

    def bi_impose_integrality(engine_, args, module):
        return impose_integrality(engine_, args[0])

    bi("get_min", 2, bi_get_min)
    bi("get_max", 2, bi_get_max)
    bi("get_bounds", 3, bi_get_bounds)
    bi("impose_min", 2, bi_impose_min)
    bi("impose_max", 2, bi_impose_max)
    bi("exclude", 2, bi_exclude)
    bi("impose_integrality", 1, bi_impose_integrality)

    ic.add_output_macro("ic_lin_con", 3, _lin_con_display, exported=True)

    engine._load_prelude(_IC_PRELUDE, ic, "<ic>")


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


_IC_PRELUDE = """
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
