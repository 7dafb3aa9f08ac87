"""Term output.

Two styles:

* normal: operator notation, list notation, subscript sugar, registered
  output transforms applied, attribute portray hooks shown (a constrained
  variable prints as ``_{1 .. 5}``);
* canonical: purely functional notation (lists excepted), all atoms that
  need it quoted, no transforms -- the output reparses to an equal term.

Unbound variables print from an explicit ``names`` map when given; other
variables print as ``_`` when they occur once in the printed term and as
``_G<serial>`` when repeated, so sharing stays visible.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .terms import Atom, Breal, Struct, Var, deref, list_parts

_ALPHA_ATOM = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_SYM_ATOM = re.compile(r"[+\-*/\\^<>=~:.?@#&$]+\Z")
_NO_QUOTE = {"[]", "{}", "!", ";"}


def atom_needs_quotes(name):
    if name in _NO_QUOTE:
        return False
    if name in (",", "|", "."):
        return True
    if _ALPHA_ATOM.match(name):
        return False
    if _SYM_ATOM.match(name):
        return False
    return True


def _quote_atom(name):
    return "'%s'" % name.replace("\\", "\\\\").replace("'", "\\'")


def _escape_string(s):
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _float_text(f):
    return repr(f)


class Writer:
    def __init__(self, ops=None, quoted=False, canonical=False, names=None,
                 registry=None, transforms=None):
        self.ops = ops
        self.quoted = quoted or canonical
        self.canonical = canonical
        self.names = names or {}
        self.registry = registry
        self.transforms = transforms if not canonical else None
        self._var_counts = {}

    # -- variables -------------------------------------------------------

    def _count_vars(self, t):
        stack = [t]
        while stack:
            x = deref(stack.pop())
            if isinstance(x, Var):
                self._var_counts[id(x)] = self._var_counts.get(id(x), 0) + 1
            elif isinstance(x, Struct):
                stack.extend(x.args)

    def _var_text(self, v):
        nm = self.names.get(id(v))
        base = None
        if nm is not None:
            base = nm
        elif self._var_counts.get(id(v), 0) <= 1:
            base = "_"
        else:
            base = "_G%d" % v.serial
        if not self.canonical and self.registry is not None and v.attrs:
            for name, payload in v.attrs.items():
                spec = self.registry.lookup(name)
                if spec is not None and spec.portray is not None:
                    txt = spec.portray(v, payload)
                    if txt is not None:
                        return ("_" if nm is None else base) + txt
        return base

    # -- entry point -------------------------------------------------------

    def format(self, t):
        self._var_counts = {}
        self._count_vars(t)
        return self._write(t, 1200, transform=True)

    # -- dispatch ----------------------------------------------------------

    def _write(self, t, maxprec, transform=True):
        """The text of t.  The last argument of a compound term, the right
        operand of an infix operator and the operand of a prefix operator
        are written in a loop, with the text that closes each enclosing
        term kept on a stack, so terms nested in those positions do not
        recurse."""
        t = deref(t)
        if type(t) is not Struct:
            return self._atomic_text(t)
        out = []
        closing = []
        while True:
            step = self._open_struct(t, maxprec, transform, out, closing)
            if step is None:
                break
            t, maxprec, transform = step
            t = deref(t)
            if type(t) is not Struct:
                out.append(self._atomic_text(t))
                break
        out.extend(reversed(closing))
        return "".join(out)

    def _atomic_text(self, t):
        if isinstance(t, Var):
            return self._var_text(t)
        if isinstance(t, bool):
            return "true" if t else "fail"
        if isinstance(t, int):
            return str(t)
        if isinstance(t, float):
            return _float_text(t)
        if isinstance(t, Fraction):
            return "%d_%d" % (t.numerator, t.denominator)
        if isinstance(t, Breal):
            return "%s__%s" % (_float_text(t.lo), _float_text(t.hi))
        if isinstance(t, str):
            if self.quoted:
                return '"%s"' % _escape_string(t)
            return t
        if isinstance(t, Atom):
            return self._atom_text(t.name)
        return "<%s@%x>" % (type(t).__name__, id(t))

    def _atom_text(self, name):
        if self.quoted and atom_needs_quotes(name):
            return _quote_atom(name)
        return name

    def _open_struct(self, t, maxprec, transform, out, closing):
        """Append the text of the compound term t up to the subterm it
        ends with, push the text that closes t, and return that subterm
        with its maximal priority and transform flag.  A term written
        whole returns None."""
        if transform and self.transforms is not None:
            fn = self.transforms(t.name, t.arity)
            if fn is not None:
                new = fn(t)
                if new is not t:
                    return new, maxprec, False

        # list notation
        if t.name == "." and t.arity == 2:
            out.append(self._write_list(t))
            return None

        if not self.canonical:
            # {Goal}
            if t.name == "{}" and t.arity == 1:
                out.append("{")
                closing.append("}")
                return t.args[0], 1200, True
            # subscript sugar: Base[I1, I2]
            if t.name == "subscript" and t.arity == 2:
                s = self._subscript_text(t)
                if s is not None:
                    out.append(s)
                    return None
            # operators
            if self.ops is not None:
                op = self._operator(t)
                if op is not None:
                    return self._open_op(t, maxprec, op, out, closing)

        if not t.args:
            out.append(self._atom_text(t.name) + "()")
            return None
        out.append(self._atom_text(t.name) + "(")
        for a in t.args[:-1]:
            out.append(self._write_arg(a) + ", ")
        closing.append(")")
        last = t.args[-1]
        if self._needs_arg_parens(last):
            out.append("(")
            closing.append(")")
        return last, 1200, True

    def _write_arg(self, t):
        """Argument / list-element position: full priority, but a term whose
        principal functor is ','/2 must be parenthesised to survive the
        reader's argument terminator."""
        s = self._write(t, 1200)
        if self._needs_arg_parens(t):
            return "(%s)" % s
        return s

    def _needs_arg_parens(self, t):
        t = deref(t)
        return (not self.canonical and type(t) is Struct
                and t.name == "," and t.arity == 2)

    def _write_list(self, t):
        items, tail = list_parts(t)
        parts = [self._write_arg(x) for x in items]
        tail = deref(tail)
        if isinstance(tail, Atom) and tail.name == "[]":
            return "[%s]" % ", ".join(parts)
        return "[%s|%s]" % (", ".join(parts), self._write_arg(tail))

    def _subscript_text(self, t):
        base, idx = t.args
        base = deref(base)
        if isinstance(base, Var):
            base_s = self._var_text(base)
        elif isinstance(base, Struct) and base.name == "subscript" and base.arity == 2:
            base_s = self._subscript_text(base)
            if base_s is None:
                return None
        else:
            return None
        items, tail = list_parts(idx)
        if not (isinstance(deref(tail), Atom) and deref(tail).name == "[]") or not items:
            return None
        return "%s[%s]" % (base_s, ", ".join(self._write_arg(i) for i in items))

    def _operator(self, t):
        """(kind, (priority, type)) of the operator t is written with, or
        None."""
        if t.arity == 2:
            entry = self.ops.infix_op(t.name)
            if entry is not None:
                return "infix", entry
        elif t.arity == 1:
            entry = self.ops.prefix_op(t.name)
            if entry is not None:
                return "prefix", entry
            entry = self.ops.postfix_op(t.name)
            if entry is not None:
                return "postfix", entry
        return None

    def _open_op(self, t, maxprec, op, out, closing):
        """`_open_struct` for a term written in operator notation."""
        kind, (prio, typ) = op
        name = self._atom_text(t.name)
        if prio > maxprec:
            out.append("(")
            closing.append(")")
        if kind == "postfix":
            sub = prio if typ == "yf" else prio - 1
            out.append("%s %s" % (self._write(t.args[0], sub), name))
            return None
        if kind == "prefix":
            out.append(name + " ")
            return t.args[0], prio if typ == "fy" else prio - 1, True
        lmax = prio - 1 if typ in ("xfx", "xfy") else prio
        rmax = prio if typ == "xfy" else prio - 1
        left = self._write(t.args[0], lmax)
        out.append(left + (", " if t.name == "," else " %s " % name))
        return t.args[1], rmax, True


def write_term(t, ops=None, quoted=False, canonical=False, names=None,
               registry=None, transforms=None):
    w = Writer(ops=ops, quoted=quoted, canonical=canonical, names=names,
               registry=registry, transforms=transforms)
    return w.format(t)
