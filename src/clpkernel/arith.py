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

A float result that is undefined (NaN, as of ``1.0Inf - 1.0Inf``) raises
ArithmeticError_, as division by zero and float overflow do, so no
variable is ever bound to NaN.  An integer or rational power ``^`` /
``**`` whose result would have more than MAX_INT_BITS bits (2**22, about
1.3 million decimal digits) raises RangeError before it is computed:
``a ** b`` has ``floor(b * log2(a)) + 1`` bits, and the float product
estimates that within far less than a bit.
A bounded real's power that big is computed from its endpoints' float
powers instead, each widened by one ulp, as C's ``pow`` is accurate to
within one; past the largest float it saturates to infinity.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import (ArithmeticError_, DomainError, InstantiationError,
                     RangeError, TypeError_, UncertaintyError)
from .terms import (_NUM_RANK, Atom, Breal, Struct, Var, _cmp_scalar, deref,
                    proper_list, show)

_MAXF = sys.float_info.max

#: the most bits the result of an exact power may have
MAX_INT_BITS = 1 << 22


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
    if lo != lo or hi != hi:  # an infinity less itself
        raise ArithmeticError_("arithmetic: undefined")
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
        raise TypeError_("breal ** requires an integer exponent, got %s"
                         % show(n))
    if n == 0:
        return Breal(1.0, 1.0)
    if n < 0:
        return breal_div(Breal(1.0, 1.0), breal_pow(x, -n))
    xl, xh = _exact_bounds(x)
    exact = not any(type(v) is Fraction and _power_too_big(v, n)
                    for v in (xl, xh))

    def p(v):
        """Bounds on v ** n: exact, or from a float power when the exact
        one would pass MAX_INT_BITS."""
        if isinstance(v, float) and math.isinf(v):
            r = math.inf if n % 2 == 0 or v > 0 else -math.inf
            return r, r
        if exact:
            r = v ** n
            return r, r
        try:
            m = abs(float(v)) ** n
        except OverflowError:  # of the result, or of n converted
            m = math.inf if abs(v) > 1 else 0.0
        lo, hi = ((_MAXF, math.inf) if m == math.inf
                  else (math.nextafter(m, 0.0), math.nextafter(m, math.inf)))
        return (lo, hi) if v > 0 or n % 2 == 0 else (-hi, -lo)

    (al, ah), (bl, bh) = p(xl), p(xh)
    if n % 2 == 0 and xl < 0 < xh:
        return _outward(Fraction(0), max(ah, bh))
    return _outward(min(al, bl), max(ah, bh))


def _power_too_big(a, b):
    """Whether the exact power a ** b of an int or a rational a would have
    more than MAX_INT_BITS bits: m ** abs(b), m a's larger term, has
    ``floor(abs(b) * log2(m)) + 1`` bits.  An exponent of MAX_INT_BITS or
    more is too big for any m > 1, and is never converted to a float."""
    m = max(abs(a.numerator), a.denominator)
    b = abs(b)
    return m > 1 and (b >= MAX_INT_BITS or b * math.log2(m) >= MAX_INT_BITS)


# ----------------------------------------------------------------------
# the coercion lattice

def _coerce_pair(a, b):
    ra, rb = _NUM_RANK[type(a)], _NUM_RANK[type(b)]
    if ra == rb:
        return a, b
    hi = max(ra, rb)
    if hi == 3:
        return to_breal(a), to_breal(b)
    if hi == 2:
        return float(a), float(b)
    return Fraction(a), Fraction(b)


def _finite(r, a, b):
    """The result r of a float operation on a and b, or an error when it
    is undefined (NaN) or an infinity from finite operands (overflow)."""
    if type(r) is float and not math.isfinite(r):
        if r != r:
            raise ArithmeticError_("arithmetic: undefined")
        if math.isfinite(a) and math.isfinite(b):
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
        # an int or a rational grows with b
        if type(a) is not float and _power_too_big(a, b):
            raise RangeError("arithmetic: a power of more than %d bits"
                             % MAX_INT_BITS)
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
        raise TypeError_("// requires integers, got %s and %s"
                         % (show(a), show(b)))
    if b == 0:
        raise ArithmeticError_("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def num_mod(a, b):
    if type(a) is not int or type(b) is not int:
        raise TypeError_("mod requires integers, got %s and %s"
                         % (show(a), show(b)))
    if b == 0:
        raise ArithmeticError_("division by zero")
    return a % b


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
        if a.hi < b.lo:
            return -1
        if a.lo > b.hi:
            return 1
        raise UncertaintyError("comparison of overlapping bounded reals: %r vs %r" % (a, b))
    return _cmp_scalar(a, b)


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
            raise TypeError_("dim: dimensions must be integers, got %s"
                             % show(d))
        if d < 1:
            raise DomainError("dim: dimensions must be >= 1, got %s" % show(d))

    # top-down on a stack: a popped array fills its arguments with the
    # next dimension's arrays, or with variables at the last dimension
    root = Struct("[]", [None] * dims[0])
    stack = [(root, 1)]
    while stack:
        t, depth = stack.pop()
        args = t.args
        if depth == len(dims):
            for i in range(len(args)):
                args[i] = Var()
            continue
        for i in range(len(args)):
            args[i] = Struct("[]", [None] * dims[depth])
            stack.append((args[i], depth + 1))
    return root


def array_dims(t):
    """Dimensions of an array: descend while every argument is an array
    of one common arity."""
    t = deref(t)
    if type(t) is not Struct or t.name != "[]":
        raise TypeError_("dim: not an array: %s" % show(t))
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
            raise TypeError_("subscript: index must be an integer: %s"
                             % show(ix))
        if type(t) is Var:
            raise InstantiationError("subscript: unbound array")
        if type(t) is not Struct:
            raise TypeError_("subscript: not a compound term: %s" % show(t))
        if not 1 <= ix <= len(t.args):
            raise RangeError("subscript: index %s out of range for %s/%d"
                             % (show(ix), t.name, len(t.args)))
        t = deref(t.args[ix - 1])
    return t


# ----------------------------------------------------------------------
# evaluation

_NUMBERS = (int, Fraction, float, Breal)

#: the evaluable functions, by name and arity
_FUNCTIONS = {("-", 1): num_neg, ("+", 1): lambda x: x, ("abs", 1): num_abs,
              ("+", 2): num_add, ("-", 2): num_sub, ("*", 2): num_mul,
              ("/", 2): num_div, ("//", 2): num_intdiv, ("mod", 2): num_mod,
              ("min", 2): num_min, ("max", 2): num_max, ("^", 2): num_pow,
              ("**", 2): num_pow}


def eval_arith(t):
    """Evaluate an arithmetic expression term to a Python numeric value.
    A float result out of range raises ArithmeticError_.

    An expression is evaluated from a work stack, so its size is bounded
    by memory, not by Python's stack: the arguments of a compound term
    are evaluated left to right, then its function is looked up, by a
    ``(name, arity)`` entry that waits below them, and applied to their
    values."""
    try:
        while type(t) is Var and t.ref is not None:
            t = t.ref
        if type(t) in _NUMBERS:
            return t
        values = []
        todo = [t]
        while todo:
            t = todo.pop()
            while type(t) is Var and t.ref is not None:
                t = t.ref
            ty = type(t)
            if ty is Struct:
                n = len(t.args)
                if n == 2:
                    # a function of two numbers, such as a counter's step,
                    # is applied at once
                    x, y = t.args
                    while type(x) is Var and x.ref is not None:
                        x = x.ref
                    while type(y) is Var and y.ref is not None:
                        y = y.ref
                    fn = _FUNCTIONS.get((t.name, 2))
                    if (fn is not None and type(x) in _NUMBERS
                            and type(y) in _NUMBERS):
                        values.append(fn(x, y))
                        continue
                if t.name == "subscript" and n == 2:
                    idx = proper_list(t.args[1])
                    if idx is None:
                        raise TypeError_("subscript: index list must be a "
                                         "proper list")
                    todo.append(subscript_get(t.args[0], idx))
                elif n == 1 or n == 2:
                    todo.append((t.name, n))
                    todo += reversed(t.args)
                else:
                    raise TypeError_("arithmetic: unknown function %s/%d"
                                     % (t.name, n))
            elif ty in _NUMBERS:
                values.append(t)
            elif ty is tuple:
                fn = _FUNCTIONS.get(t)
                if fn is None:
                    raise TypeError_("arithmetic: unknown function %s/%d" % t)
                if t[1] == 1:
                    values[-1] = fn(values[-1])
                else:
                    y = values.pop()
                    values[-1] = fn(values[-1], y)
            elif ty is Var:
                raise InstantiationError("arithmetic: unbound variable")
            elif ty is Atom:
                raise TypeError_("arithmetic: not a number: %s" % t.name)
            else:
                raise TypeError_("arithmetic: not an expression: %s" % show(t))
        return values[0]
    except OverflowError:
        raise ArithmeticError_("arithmetic: float overflow") from None
