"""Arithmetic evaluation over the numeric tower.

Types and coercions:

    int ---> Fraction ---> Breal        int ---> float ---> Breal
    (int op rat -> rat; anything op float -> float, except that exact
    types meeting a Breal widen to Breal; rat op float -> float)

``/`` on two integers yields an integer when exact and a rational
otherwise, so ``3 + 1_2`` evaluates to ``7_2`` and ``6 / 3`` to ``2``.
``//`` truncates toward zero; ``mod`` is the flooring modulus.

Bounded-real arithmetic is done exactly: float endpoints are exact
rationals, so candidate endpoints are computed as Fractions and only
converted back to floats with outward rounding (next representable float
away from the interval when the conversion is inexact).  This gives the
containment guarantee: the exact result of an expression always lies
inside the Breal computed for it.  Endpoint overflow saturates to the
largest finite float below / infinity above, which keeps containment.

Comparisons involving overlapping (non-point) Breals have no definite
answer and raise UncertaintyError.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import (ArithmeticError_, DomainError, InstantiationError,
                     RangeError, TypeError_, UncertaintyError)
from .terms import Atom, Breal, Struct, Var, deref

_MAXF = sys.float_info.max


def float_down(x):
    """Largest float <= x; a float, infinities included, is its own."""
    if type(x) is float:
        return x
    try:
        f = float(x)
    except OverflowError:
        return _MAXF if x > 0 else -math.inf
    if Fraction(f) > x:
        f = math.nextafter(f, -math.inf)
    return f


def float_up(x):
    """Smallest float >= x; a float, infinities included, is its own."""
    if type(x) is float:
        return x
    try:
        f = float(x)
    except OverflowError:
        return math.inf if x > 0 else -_MAXF
    if Fraction(f) < x:
        f = math.nextafter(f, math.inf)
    return f


def breal_from_exact(x):
    return Breal(float_down(x), float_up(x))


def exact_float(f):
    """A float as an exact number: a Fraction, or the float when infinite."""
    return f if math.isinf(f) else Fraction(f)


def _exact_bounds(b):
    """Breal endpoints as exact numbers (Fractions, or inf floats)."""
    return exact_float(b.lo), exact_float(b.hi)


def _outward(lo, hi):
    return Breal(float_down(lo), float_up(hi))


def to_breal(x):
    if type(x) is Breal:
        return x
    if isinstance(x, float):
        return Breal(x, x)
    return breal_from_exact(x)


def _xmul(a, b):
    """Multiplication that tolerates infinities mixed with Fractions."""
    if isinstance(a, float) and math.isinf(a) or isinstance(b, float) and math.isinf(b):
        if a == 0 or b == 0:
            return Fraction(0)  # 0 * inf: only hit for interval corners
        sign = (1 if a > 0 else -1) * (1 if b > 0 else -1)
        return math.inf * sign
    return a * b


def breal_add(x, y):
    xl, xh = _exact_bounds(x)
    yl, yh = _exact_bounds(y)
    return _outward(xl + yl, xh + yh)


def breal_sub(x, y):
    xl, xh = _exact_bounds(x)
    yl, yh = _exact_bounds(y)
    return _outward(xl - yh, xh - yl)


def breal_neg(x):
    return Breal(-x.hi, -x.lo)


def breal_mul(x, y):
    xl, xh = _exact_bounds(x)
    yl, yh = _exact_bounds(y)
    corners = [_xmul(xl, yl), _xmul(xl, yh), _xmul(xh, yl), _xmul(xh, yh)]
    return _outward(min(corners), max(corners))


def _xdiv(a, b, den_positive):
    if b == 0:
        # dividing by a bound touching zero: the quotient is unbounded on
        # the side determined by the signs
        if a == 0:
            return Fraction(0)
        return math.inf if (a > 0) == den_positive else -math.inf
    if isinstance(b, float) and math.isinf(b):
        if isinstance(a, float) and math.isinf(a):
            return math.inf if (a > 0) == (b > 0) else -math.inf
        return Fraction(0)
    if isinstance(a, float) and math.isinf(a):
        return math.inf if (a > 0) == (b > 0) else -math.inf
    return Fraction(a) / Fraction(b)


def breal_div(x, y):
    xl, xh = _exact_bounds(x)
    yl, yh = _exact_bounds(y)
    if yl == 0 and yh == 0:
        raise ArithmeticError_("breal division by zero")
    if yl < 0 < yh:
        return Breal(-math.inf, math.inf)  # zero strictly inside: saturate
    den_positive = yh > 0
    corners = [_xdiv(a, b, den_positive) for a in (xl, xh) for b in (yl, yh)]
    return _outward(min(corners), max(corners))


def breal_abs(x):
    if x.lo >= 0:
        return x
    if x.hi <= 0:
        return breal_neg(x)
    return Breal(0.0, max(-x.lo, x.hi))


def breal_pow(x, n):
    """x ** n for integer n (the only exponent form supported on Breals)."""
    if not isinstance(n, int):
        raise TypeError_("breal ** requires an integer exponent, got %r" % (n,))
    if n == 0:
        return Breal(1.0, 1.0)
    if n < 0:
        return breal_div(Breal(1.0, 1.0), breal_pow(x, -n))
    xl, xh = _exact_bounds(x)

    def p(v):
        if isinstance(v, float) and math.isinf(v):
            if n % 2 == 0:
                return math.inf
            return v if v > 0 else -math.inf
        return v ** n

    a, b = p(xl), p(xh)
    if n % 2 == 0 and xl < 0 < xh:
        return _outward(Fraction(0), max(a, b))
    return _outward(min(a, b), max(a, b))


# ----------------------------------------------------------------------
# the coercion lattice

_RANKS = {int: 0, Fraction: 1, float: 2, Breal: 3}


def _coerce_pair(a, b):
    ra, rb = _RANKS[type(a)], _RANKS[type(b)]
    if ra == rb:
        return a, b
    hi = max(ra, rb)
    if hi == 3:
        return to_breal(a), to_breal(b)
    if hi == 2:
        return float(a), float(b)
    return Fraction(a), Fraction(b)


def _finite(r, a, b):
    """The result r of a float operation on a and b, or an overflow error
    when finite operands gave an infinity."""
    if (type(r) is float and math.isinf(r) and math.isfinite(a)
            and math.isfinite(b)):
        raise ArithmeticError_("arithmetic: float overflow")
    return r


def num_add(a, b):
    a, b = _coerce_pair(a, b)
    if type(a) is Breal:
        return breal_add(a, b)
    return _finite(a + b, a, b)


def num_sub(a, b):
    a, b = _coerce_pair(a, b)
    if type(a) is Breal:
        return breal_sub(a, b)
    return _finite(a - b, a, b)


def num_mul(a, b):
    a, b = _coerce_pair(a, b)
    if type(a) is Breal:
        return breal_mul(a, b)
    return _finite(a * b, a, b)


def num_div(a, b):
    a, b = _coerce_pair(a, b)
    if type(a) is Breal:
        return breal_div(a, b)
    if type(a) is int:
        if b == 0:
            raise ArithmeticError_("division by zero")
        if a % b == 0:
            return a // b
        return Fraction(a, b)
    if b == 0:
        raise ArithmeticError_("division by zero")
    return _finite(a / b, a, b)


def num_neg(a):
    if type(a) is Breal:
        return breal_neg(a)
    return -a


def num_abs(a):
    if type(a) is Breal:
        return breal_abs(a)
    return abs(a)


def num_pow(a, b):
    if type(a) is Breal or type(b) is Breal:
        if type(b) is Breal:
            if b.lo == b.hi and float(b.lo).is_integer():
                b = int(b.lo)
            else:
                raise TypeError_("breal ** requires an integer exponent")
        return breal_pow(to_breal(a), b)
    if type(b) is int:
        if type(a) is int:
            if b >= 0:
                return a ** b
            if a == 0:
                raise ArithmeticError_("zero raised to a negative power")
            return Fraction(1, a ** -b)
        return a ** b  # Fraction ** int and float ** int are both exact enough
    a, b = _coerce_pair(a, b)
    if type(a) is Fraction:
        raise TypeError_("rational ** requires an integer exponent")
    if a < 0 and not float(b).is_integer():
        raise ArithmeticError_("negative base with fractional exponent")
    return a ** b


def num_intdiv(a, b):
    if type(a) is not int or type(b) is not int:
        raise TypeError_("// requires integers, got %r and %r" % (a, b))
    if b == 0:
        raise ArithmeticError_("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def num_mod(a, b):
    if type(a) is not int or type(b) is not int:
        raise TypeError_("mod requires integers, got %r and %r" % (a, b))
    if b == 0:
        raise ArithmeticError_("division by zero")
    return a % b


def _cmp_exact(a, b):
    # exact scalar comparison across int / Fraction / float
    if type(a) is float and not math.isinf(a) and not math.isnan(a):
        a = Fraction(a)
    if type(b) is float and not math.isinf(b) and not math.isnan(b):
        b = Fraction(b)
    if a == b:
        return 0
    return -1 if a < b else 1


def compare_numeric(a, b):
    """-1 / 0 / 1, or raise UncertaintyError for overlapping Breals.

    A point Breal compares like its value; disjoint intervals compare by
    position; touching intervals are decidable only for strict relations,
    so we decide what we can and raise otherwise.
    """
    if type(a) is Breal or type(b) is Breal:
        a = to_breal(a)
        b = to_breal(b)
        if a.lo == a.hi == b.lo == b.hi:
            return 0
        if _cmp_exact(a.hi, b.lo) < 0:
            return -1
        if _cmp_exact(a.lo, b.hi) > 0:
            return 1
        raise UncertaintyError("comparison of overlapping bounded reals: %r vs %r" % (a, b))
    return _cmp_exact(a, b)


def num_min(a, b):
    return a if compare_numeric(a, b) <= 0 else b


def num_max(a, b):
    return a if compare_numeric(a, b) >= 0 else b


# ----------------------------------------------------------------------
# arrays

def dim_create(dims):
    """Build a fresh array of the given dimensions, vars at the leaves."""
    if not dims:
        raise DomainError("dim: empty dimension list")
    for d in dims:
        if not isinstance(d, int) or isinstance(d, bool):
            raise TypeError_("dim: dimensions must be integers, got %r" % (d,))
        if d < 1:
            raise DomainError("dim: dimensions must be >= 1, got %d" % d)

    def build(ds):
        n, rest = ds[0], ds[1:]
        if rest:
            return Struct("[]", [build(rest) for _ in range(n)])
        return Struct("[]", [Var() for _ in range(n)])

    return build(list(dims))


def array_dims(t):
    """Dimensions of an array: descend while every argument is an array
    of one common arity."""
    t = deref(t)
    if type(t) is not Struct or t.name != "[]":
        raise TypeError_("dim: not an array: %r" % (t,))
    dims = []
    while type(t) is Struct and t.name == "[]":
        dims.append(len(t.args))
        first = deref(t.args[0])
        if type(first) is Struct and first.name == "[]":
            arity = len(first.args)
            if all(type(deref(a)) is Struct and deref(a).name == "[]"
                   and len(deref(a).args) == arity for a in t.args):
                t = first
                continue
        break
    return dims


def subscript_get(array, indices):
    """Generalised arg/3: select an element along a list of indices."""
    t = deref(array)
    for ix in indices:
        ix = deref(ix)
        if type(ix) is Var:
            raise InstantiationError("subscript: unbound index")
        if not isinstance(ix, int) or isinstance(ix, bool):
            raise TypeError_("subscript: index must be an integer: %r" % (ix,))
        if type(t) is Var:
            raise InstantiationError("subscript: unbound array")
        if type(t) is not Struct:
            raise TypeError_("subscript: not a compound term: %r" % (t,))
        if not 1 <= ix <= len(t.args):
            raise RangeError("subscript: index %d out of range for %s/%d"
                             % (ix, t.name, len(t.args)))
        t = deref(t.args[ix - 1])
    return t


# ----------------------------------------------------------------------
# evaluation

def eval_arith(t):
    """Evaluate an arithmetic expression term to a Python numeric value.
    A float result out of range raises ArithmeticError_."""
    try:
        t = deref(t)
        ty = type(t)
        if ty is Var:
            raise InstantiationError("arithmetic: unbound variable")
        if ty in (int, Fraction, float, Breal):
            return t
        if ty is Atom:
            raise TypeError_("arithmetic: not a number: %s" % t.name)
        if ty is not Struct:
            raise TypeError_("arithmetic: not an expression: %r" % (t,))

        name, args = t.name, t.args
        n = len(args)
        if name == "subscript" and n == 2:
            from .terms import proper_list
            idx = proper_list(args[1])
            if idx is None:
                raise TypeError_("subscript: index list must be a proper list")
            return eval_arith(subscript_get(args[0], idx))
        if n == 1:
            x = eval_arith(args[0])
            if name == "-":
                return num_neg(x)
            if name == "+":
                return x
            if name == "abs":
                return num_abs(x)
            raise TypeError_("arithmetic: unknown function %s/1" % name)
        if n == 2:
            x = eval_arith(args[0])
            y = eval_arith(args[1])
            if name == "+":
                return num_add(x, y)
            if name == "-":
                return num_sub(x, y)
            if name == "*":
                return num_mul(x, y)
            if name == "/":
                return num_div(x, y)
            if name == "//":
                return num_intdiv(x, y)
            if name == "mod":
                return num_mod(x, y)
            if name == "min":
                return num_min(x, y)
            if name == "max":
                return num_max(x, y)
            if name == "^" or name == "**":
                return num_pow(x, y)
            raise TypeError_("arithmetic: unknown function %s/2" % name)
        raise TypeError_("arithmetic: unknown function %s/%d" % (name, n))
    except OverflowError:
        raise ArithmeticError_("arithmetic: float overflow") from None
