"""Term representation.

The term zoo, mapped onto Python values:

* logic variables    -> Var (a mutable cell; identity is the variable)
* atoms              -> Atom (interned wrappers around their name)
* integers           -> int (arbitrary precision)
* rationals          -> fractions.Fraction (auto-normalised, denominator > 0)
* floats             -> float
* bounded reals      -> Breal (a pair of float bounds, lo <= hi)
* strings            -> str
* compound terms     -> Struct (mutable argument list, so setarg/3 works)
* suspensions        -> susp.Suspension objects appear directly as terms

Lists are './2' chains terminated by the atom '[]'; arrays are structs with
functor '[]' and arity N.  Numbers of equal value but different type are
*different* terms: 3, 3.0, 3_1 and 3.0__3.0 do not unify, although they
compare =:= where that is decidable.
"""

from __future__ import annotations

from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Decimal, Inexact,
                     localcontext)
from fractions import Fraction
from itertools import count
from types import MappingProxyType

#: creation serials of variables, and of choicepoint marks (store.py)
serials = count(1)

#: the attributes of every plain variable: one shared, read-only mapping
NO_ATTRS = MappingProxyType({})


class Var:
    """A logic variable: an assignable cell.

    ``ref`` is None while unbound, otherwise the term this variable was
    bound to (possibly another Var, forming a chain).  ``attrs`` maps
    attribute names to payloads, in the order they were attached: all
    that is attached to the variable, solver data such as ic's domain and
    the generic suspension lists (the ``suspend`` attribute).  A plain
    variable holds `NO_ATTRS`; an attributed one a dict that is replaced
    on every write, never changed in place, so the trail can restore the
    old one (attvar.py).  ``serial`` orders variables by
    age; it is drawn from the module-level counter `serials`.  ``stamp``
    is the trail stamp of ``attrs`` (store.py).

    No attribute of this class (or of any other class of the package) is
    written after import.  On CPython 3.11 and later such a write resets
    the class's type version, which throws away the interpreter's
    specialised attribute reads on its instances (PEP 659): ``.ref`` in
    `deref` and in the generated clause code would slow down two- to
    threefold.
    """

    __slots__ = ("ref", "serial", "name", "attrs", "stamp")
    _trailed = "attrs"  # the slot the store's value trail restores

    def __init__(self, name=None):
        self.serial = next(serials)
        self.ref = None
        self.name = name
        self.attrs = NO_ATTRS
        self.stamp = 0

    def __repr__(self):
        return "_%d%s" % (self.serial, "" if self.name is None else ":" + self.name)


class Atom:
    """An interned atom.  Atom('foo') is Atom('foo')."""

    __slots__ = ("name",)
    _table: dict = {}

    def __new__(cls, name):
        a = cls._table.get(name)
        if a is None:
            a = object.__new__(cls)
            a.name = name
            cls._table[name] = a
        return a

    def __repr__(self):
        return self.name

    def __reduce__(self):  # keep interning across copy/pickle
        return (Atom, (self.name,))


class Struct:
    """A compound term.  Arguments are held in a list so that setarg/3 can
    update them destructively (with trailing handled by the store).

    A `Struct` owns the list it is given: it keeps it, without a copy, so
    the caller passes a list that nothing else holds (a fresh literal, or
    ``list(...)`` of a sequence it keeps or of another term's ``args``).
    Otherwise a setarg/3 on one term would write into the other."""

    __slots__ = ("name", "args", "stamps")

    def __init__(self, name, args):
        self.name = name
        self.args = args
        self.stamps = None  # per argument, made by setarg/3's trailing

    @property
    def arity(self):
        return len(self.args)

    def __repr__(self):
        """Functional notation, every argument by its `show`.  Compound
        arguments are expanded from an explicit stack of pending text and
        terms, so the depth of a term is bounded by memory, not by
        Python's recursion limit."""
        out = []
        todo = [self]
        while todo:
            t = todo.pop()
            if type(t) is not Struct:
                out.append(t)  # text: arguments are pushed as their repr
                continue
            out.append(t.name + "(")
            todo.append(")")
            args = t.args
            for i in range(len(args) - 1, -1, -1):
                a = args[i]
                todo.append(a if type(a) is Struct else show(a))
                if i:
                    todo.append(", ")
        return "".join(out)


class Breal:
    """A bounded real: the true value lies somewhere in [lo, hi]."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = float(lo)
        hi = float(hi)
        if not lo <= hi:
            raise ValueError("breal bounds out of order: %r > %r" % (lo, hi))
        self.lo = lo
        self.hi = hi

    def __repr__(self):
        return "%r__%r" % (self.lo, self.hi)


NIL = Atom("[]")
TRUE = Atom("true")

# ranks for the standard order of terms: variables, numbers, atoms,
# strings, compound terms, then anything opaque (suspension handles)
_R_VAR, _R_NUM, _R_ATOM, _R_STR, _R_STRUCT, _R_OTHER = range(6)

# tie-break ranks among numbers of equal value
_NUM_RANK = {int: 0, Fraction: 1, float: 2, Breal: 3}


def deref(t):
    """Follow variable bindings to the representative term."""
    while type(t) is Var:
        r = t.ref
        if r is None:
            return t
        t = r
    return t


def is_number(t):
    return type(t) in (int, Fraction, float, Breal)


def is_callable_term(t):
    return type(t) is Atom or type(t) is Struct


def arg_at(i, t):
    """arg/3: 1-based argument access."""
    from .errors import RangeError, TypeError_
    t = deref(t)
    if type(t) is not Struct:
        raise TypeError_("arg: not a compound term: %s" % show(t))
    if not isinstance(i, int) or isinstance(i, bool):
        raise TypeError_("arg: index must be an integer: %s" % show(i))
    if not 1 <= i <= len(t.args):
        raise RangeError("arg: index %s out of range for %s/%d"
                         % (show(i), t.name, len(t.args)))
    return t.args[i - 1]


def mk_list(items, tail=NIL):
    out = tail
    for x in reversed(list(items)):
        out = Struct(".", [x, out])
    return out


def list_parts(t):
    """Split a list term into (elements, tail).  tail is NIL for proper lists."""
    items = []
    t = deref(t)
    while type(t) is Struct and t.name == "." and len(t.args) == 2:
        items.append(t.args[0])
        t = deref(t.args[1])
    return items, t


def proper_list(t):
    """Elements of a proper list, or None if t is not one."""
    items, tail = list_parts(t)
    return items if tail is NIL else None


def flatten_conj(t):
    """The goals of a ``,``-conjunction, left to right, dereferenced."""
    out = []
    stack = [t]
    while stack:
        g = deref(stack.pop())
        if type(g) is Struct and g.name == "," and len(g.args) == 2:
            stack += g.args[1], g.args[0]
        else:
            out.append(g)
    return out


def _num_bounds(t):
    # every number is viewed as an interval for ordering purposes
    if type(t) is Breal:
        return t.lo, t.hi
    return t, t


def _cmp_scalar(a, b):
    """-1, 0 or 1 for two values Python orders: strings by code point, and
    numbers (int, Fraction, float) exactly, as CPython compares them."""
    if a == b:
        return 0
    return -1 if a < b else 1


def compare_numbers(a, b):
    """Total order over numbers: by value, then by type rank.

    Breals order by lower bound, then upper bound; a scalar is treated as a
    point interval.  This makes the order total and consistent with the
    value order wherever values differ.
    """
    alo, ahi = _num_bounds(a)
    blo, bhi = _num_bounds(b)
    c = _cmp_scalar(alo, blo)
    if c:
        return c
    c = _cmp_scalar(ahi, bhi)
    if c:
        return c
    return _cmp_scalar(_NUM_RANK[type(a)], _NUM_RANK[type(b)])


def _rank_of(t):
    ty = type(t)
    if ty is Var:
        return _R_VAR
    if ty in (int, Fraction, float, Breal):
        return _R_NUM
    if ty is Atom:
        return _R_ATOM
    if ty is str:
        return _R_STR
    if ty is Struct:
        return _R_STRUCT
    return _R_OTHER


def compare_terms(a, b):
    """Standard order of terms: -1, 0 or 1.

    Var < numbers < atoms < strings < compound terms.  Variables order by
    age, compound terms by arity, then name, then arguments left to right.
    The first arguments of two compound terms are compared next, and the
    pairs of arguments after them wait on a work stack, so the depth of a
    term is bounded by memory, not by Python's stack.
    """
    todo = []
    while True:
        a = deref(a)
        b = deref(b)
        ra = _rank_of(a)
        rb = _rank_of(b)
        if ra != rb:
            return -1 if ra < rb else 1
        if ra == _R_STRUCT:
            n = len(a.args)
            if n != len(b.args):
                return -1 if n < len(b.args) else 1
            if a.name != b.name:
                return -1 if a.name < b.name else 1
            if n:
                todo += zip(a.args[:0:-1], b.args[:0:-1])
                a, b = a.args[0], b.args[0]
                continue
        else:
            if ra == _R_VAR:
                c = 0 if a is b else -1 if a.serial < b.serial else 1
            elif ra == _R_NUM:
                c = compare_numbers(a, b)
            elif ra == _R_ATOM:
                c = _cmp_scalar(a.name, b.name)
            elif ra == _R_STR:
                c = _cmp_scalar(a, b)
            else:
                # opaque values (suspensions): by identity, stable in a run
                c = 0 if a is b else -1 if id(a) < id(b) else 1
            if c:
                return c
        if not todo:
            return 0
        a, b = todo.pop()


def terms_equal(a, b):
    return compare_terms(a, b) == 0


def var_counts(t):
    """The occurrences of each unbound variable in t, keyed by the
    variable, in first-occurrence order."""
    counts = {}
    stack = [t]
    while stack:
        x = deref(stack.pop())
        if type(x) is Var:
            counts[x] = counts.get(x, 0) + 1
        elif type(x) is Struct:
            stack.extend(reversed(x.args))
    return counts


def term_vars(t):
    """All distinct unbound variables in t, in first-occurrence order."""
    return list(var_counts(t))


def copy_term(t, attr_hook=None):
    """Fresh copy with consistently renamed variables.

    ``attr_hook(old_var, fresh_var)`` is consulted for every attributed
    variable encountered, letting solvers copy their payloads (the engine
    routes this through the registered copy handlers).  Plain variables
    just become fresh plain variables, made in order of first occurrence.
    A compound term is copied with its constants in place; each of its
    variable and compound arguments waits on a work stack with the place
    its copy goes, so the depth of a term is bounded by memory, not by
    Python's stack.
    """
    mapping = {}
    out = [None]
    todo = [(t, out, 0)]
    while todo:
        x, dest, i = todo.pop()
        while type(x) is Var and x.ref is not None:
            x = x.ref
        ty = type(x)
        if ty is Var:
            nv = mapping.get(x)
            if nv is None:
                nv = mapping[x] = Var()
                if x.attrs and attr_hook is not None:
                    attr_hook(x, nv)
            dest[i] = nv
        elif ty is Struct:
            args = x.args
            s = Struct(x.name, list(args))  # its constants are copied already
            dest[i] = s
            k = len(args)
            for a in reversed(args):
                k -= 1
                if type(a) is Var or type(a) is Struct:
                    todo.append((a, s.args, k))
        else:
            dest[i] = x
    return out[0]


def is_variant(a, b):
    """True when a and b are identical up to a bijective variable renaming.
    Pairs of subterms are compared from a work stack, left to right, so
    any depth of nesting is walked in constant Python stack."""
    fwd = {}
    bwd = {}
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        x = deref(x)
        y = deref(y)
        tx, ty = type(x), type(y)
        if tx is Var or ty is Var:
            if tx is not Var or ty is not Var:
                return False
            if id(x) in fwd:
                if fwd[id(x)] is not y or bwd.get(id(y)) is not x:
                    return False
                continue
            if id(y) in bwd:
                return False
            fwd[id(x)] = y
            bwd[id(y)] = x
        elif tx is not ty:
            return False
        elif tx is Struct:
            if x.name != y.name or len(x.args) != len(y.args):
                return False
            stack += zip(reversed(x.args), reversed(y.args))
        elif compare_terms(x, y) != 0:
            return False
    return True


# ----------------------------------------------------------------------
# integers as decimal text, of any length

#: digits per str() or int() call: under the least limit CPython allows
#: for its own conversions (640; ``sys.get_int_max_str_digits()``)
_CHUNK = 256
_BASE = 10 ** _CHUNK


def int_text(n):
    """The decimal text of the int n.  Past _CHUNK digits n is converted
    to a `Decimal` by binary splitting, as CPython 3.12's
    ``_pylong.int_to_decimal_string`` does: the low and high halves of
    its bits are converted apart and joined as ``lo + hi * 2 ** half``,
    whose products `decimal` computes in subquadratic time.  A local
    context makes every step exact; the int/str conversion limit is
    neither read nor changed."""
    if -_BASE < n < _BASE:
        return str(n)
    with localcontext() as ctx:
        ctx.prec = MAX_PREC
        ctx.Emax = MAX_EMAX
        ctx.Emin = MIN_EMIN
        ctx.traps[Inexact] = True
        return str(_decimal(n, n.bit_length(), {}) if n > 0
                   else -_decimal(-n, n.bit_length(), {}))


#: ints of at most this many bits become a `Decimal` directly
_SPLIT_BITS = 128


def _decimal(n, bits, pows):
    """The `Decimal` of the int 0 <= n < 2 ** bits; ``pows`` caches the
    powers of two by exponent."""
    if bits <= _SPLIT_BITS:
        return Decimal(n)
    half = bits >> 1
    hi = n >> half
    return (_decimal(n - (hi << half), half, pows)
            + _decimal(hi, bits - half, pows) * _power(half, pows))


def _power(k, pows):
    """2 ** k as a `Decimal`, cached in ``pows``, from the powers already
    there where it can be."""
    p = pows.get(k)
    if p is None:
        if k <= _SPLIT_BITS:
            p = Decimal(2) ** k
        elif k - 1 in pows:
            p = pows[k - 1] * 2
        else:
            p = _power(k >> 1, pows) * _power(k - (k >> 1), pows)
        pows[k] = p
    return p


def int_value(digits):
    """The int of a string of decimal digits, split as int_text splits."""
    if len(digits) <= _CHUNK:
        return int(digits)
    pows = [(_CHUNK, _BASE)]
    while 2 * pows[-1][0] < len(digits):
        k, p = pows[-1]
        pows.append((2 * k, p * p))
    return _value(digits, pows, len(pows) - 1)


def _value(digits, pows, i):
    """The int of digits, at most 2 * k long for (k, 10 ** k) = pows[i]."""
    if len(digits) <= _CHUNK:
        return int(digits)
    k, p = pows[i]
    if len(digits) <= k:
        return _value(digits, pows, i - 1)
    return (_value(digits[:-k], pows, i - 1) * p
            + _value(digits[-k:], pows, i - 1))


def show(t):
    """repr(t) for an error message, with ints and rationals of any length
    in decimal."""
    if type(t) is int:
        return int_text(t)
    if type(t) is Fraction:
        return "Fraction(%s, %s)" % (int_text(t.numerator),
                                     int_text(t.denominator))
    return repr(t)
