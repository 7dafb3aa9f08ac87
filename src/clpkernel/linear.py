"""Linear expressions in exact arithmetic.

`normalize_relation` brings ``L REL R``, for the six ic relations #=,
#\\=, #=<, #>=, #< and #>, to ``const + sum(c_i * x_i)  REL  0`` with REL
one of =< / = / \\=.  Every variable occurs once among the pairs, with a
nonzero coefficient, and the pairs come in the order of the variables'
first occurrence in ``L`` then ``R``.  Numbers stay exact: ints while
everything is integral, Fractions otherwise.  The ic solver (ic.py) posts
and propagates what this module produces.

Both sides are linearised in one walk over an explicit stack, summing
coefficients into one dict keyed by the variable (variables hash by
identity), so a sum of n terms costs O(n), nested left or right, and its
depth is bounded by memory, not by Python's recursion limit.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import eval_arith, subscript_get
from .errors import DomainError, TypeError_, UnsupportedError
from .terms import Breal, Struct, Var, deref, proper_list, show


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


_BINARY = frozenset(("+", "-", "*", "/", "subscript"))
_ZERO_DIVISOR = "division in constraints needs a nonzero constant divisor"
#: on the stack in place of a term: one side of a product or quotient,
#: linearised on its own, is complete
_SIDE_DONE = object()


def normalize_relation(relname, lhs, rhs):
    """``lhs RELNAME rhs`` -> (rel, const, [(coeff, var)]).

    One walk over an explicit stack of (term, multiplier) pairs, lhs with
    multiplier ``sign`` and rhs with ``-sign``: a sum pushes its operands
    with the multiplier, a negation negates it, and a product or quotient
    by a number scales it.  Any other product or quotient linearises each
    side on its own, in a fresh sum that a ``_SIDE_DONE`` entry closes,
    and then adds the scaled variable side to the sum it interrupted."""
    rel, sign, extra = _REL_FORMS[relname]
    const = extra
    coeffs = {}       # variable -> coefficient, in order of first occurrence
    outer = []        # the sums that product and quotient sides interrupted
    stack = [(rhs, -sign), (lhs, sign)]
    pop, push = stack.pop, stack.append
    while stack:
        t, m = pop()
        if t is _SIDE_DONE:
            node, m, first = m
            if first is None and node.name == "*":
                # the left factor is done: the right one comes next
                push((_SIDE_DONE, (node, m, (const, coeffs))))
                push((node.args[1], 1))
                const, coeffs = 0, {}
                continue
            side_const, side = const, coeffs
            const, coeffs = outer.pop()
            if node.name == "/":
                if side or side_const == 0:
                    raise UnsupportedError(_ZERO_DIVISOR)
                push((node.args[0], exact_quotient(m, side_const)))
                continue
            k, first_vars = first
            if first_vars:
                if side:
                    raise UnsupportedError("nonlinear term: %s" % show(node))
                k, side_const, side = side_const, k, first_vars
            k *= m
            const += k * side_const
            for v, c in side.items():
                coeffs[v] = coeffs.get(v, 0) + k * c
            continue
        t = deref(t)
        ty = type(t)
        if ty is Var:
            coeffs[t] = coeffs.get(t, 0) + m
        elif ty is int or ty is Fraction:
            const += m * t
        elif ty is Struct:
            n, a = t.name, t.args
            if len(a) == 1 and (n == "-" or n == "+"):
                push((a[0], -m if n == "-" else m))
                continue
            if len(a) != 2 or n not in _BINARY:
                raise UnsupportedError("not usable in a linear constraint: "
                                       "%s/%d" % (n, len(a)))
            x, y = a
            if n == "+":
                push((y, m))
                push((x, m))
                continue
            if n == "-":
                push((y, -m))
                push((x, m))
                continue
            if n == "subscript":
                idx = proper_list(y)
                if idx is None:
                    raise TypeError_(
                        "subscript: index list must be a proper list")
                push((subscript_get(x, [eval_arith(i) for i in idx]), m))
                continue
            k = deref(y)
            if n == "*":
                if type(k) is int or type(k) is Fraction:
                    push((x, m * k))
                    continue
                k = deref(x)
                if type(k) is int or type(k) is Fraction:
                    push((y, m * k))
                    continue
                sub = x
            else:  # "/"
                if type(k) is int or type(k) is Fraction:
                    if k == 0:
                        raise UnsupportedError(_ZERO_DIVISOR)
                    push((x, exact_quotient(m, k)))
                    continue
                sub = y  # the divisor first
            outer.append((const, coeffs))
            const, coeffs = 0, {}
            push((_SIDE_DONE, (t, m, None)))
            push((sub, 1))
        elif ty is float:
            if math.isinf(t) or math.isnan(t):
                raise DomainError("constraint constants must be finite: %r"
                                  % t)
            const += m * exact_number(t)
        elif ty is Breal:
            raise UnsupportedError("bounded reals cannot appear in exact "
                                   "linear constraints")
        else:
            raise TypeError_("not usable in a linear constraint: %s" % show(t))
    return (rel, int_if_integral(const),
            [(c if type(c) is int else int_if_integral(c), v)
             for v, c in coeffs.items() if c != 0])
