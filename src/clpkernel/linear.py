"""Linear expressions in exact arithmetic.

`normalize_relation` brings ``L REL R``, for the six ic relations #=,
#\\=, #=<, #>=, #< and #>, to ``const + sum(c_i * x_i)  REL  0`` with REL
one of =< / = / \\=.  Every variable occurs once among the pairs, with a
nonzero coefficient.  Numbers stay exact: ints while everything is
integral, Fractions otherwise.  The ic solver (ic.py) posts and
propagates what this module produces.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import eval_arith, subscript_get
from .errors import DomainError, TypeError_, UnsupportedError
from .terms import Breal, Struct, Var, deref, proper_list


def int_if_integral(q):
    """A Fraction that is an integer as an int; anything else as it is."""
    return int(q) if isinstance(q, Fraction) and q.denominator == 1 else q


def exact_number(x):
    """A constant as an exact number: an int when it is integral."""
    return x if type(x) is int else int_if_integral(Fraction(x))


def exact_quotient(n, c):
    """n / c exactly: an int when c divides n, else a Fraction."""
    if type(n) is int and type(c) is int:
        q, r = divmod(n, c)
        return q if r == 0 else Fraction(n, c)
    return n / c


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
        return exact_number(t), {}, []
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
            return (exact_quotient(c, rc),
                    {k: exact_quotient(v, rc) for k, v in m.items()}, o)
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


# relation name -> (rel, sign, extra): ``L name R`` becomes
# ``sign * (L - R) + extra  rel  0``
_REL_FORMS = {
    "#=":  ("=", 1, 0),    # L - R = 0
    "#\\=": ("\\=", 1, 0),
    "#=<": ("=<", 1, 0),   # L - R =< 0
    "#>=": ("=<", -1, 0),  # R - L =< 0
    "#<":  ("=<", 1, 1),   # L - R + 1 =< 0
    "#>":  ("=<", -1, 1),  # R - L + 1 =< 0
}


def normalize_relation(relname, lhs, rhs):
    """``lhs RELNAME rhs`` -> (rel, const, [(coeff, var)])."""
    rel, sign, extra = _REL_FORMS[relname]
    const, pairs = normalize_linear(Struct("-", [lhs, rhs]))
    return (rel, int_if_integral(sign * const + extra),
            [(int_if_integral(sign * c), v) for c, v in pairs])
