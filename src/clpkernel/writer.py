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

import math
import re
from fractions import Fraction

from .terms import Atom, Breal, Struct, Var, deref, list_parts, var_counts

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


def float_text(f):
    """A float as the reader reads it back: an infinity as ECLiPSe writes
    it, ``1.0Inf`` or ``-1.0Inf``."""
    if math.isinf(f):
        return "1.0Inf" if f > 0 else "-1.0Inf"
    return repr(f)


def _operand_prios(kind, entry):
    """The maximal priorities of an operator's operands, left to right."""
    prio, typ = entry
    if kind == "infix":
        return (prio - 1 if typ in ("xfx", "xfy") else prio,
                prio if typ == "xfy" else prio - 1)
    return (prio if typ in ("fy", "yf") else prio - 1,)


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

    def _var_text(self, v):
        nm = self.names.get(id(v))
        base = None
        if nm is not None:
            base = nm
        elif self._var_counts.get(v, 0) <= 1:
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
        self._var_counts = var_counts(t)
        return self._write(t, 1200, transform=True)

    # -- dispatch ----------------------------------------------------------

    def _write(self, t, maxprec, transform=True):
        """The text of t.  A work stack holds the subterms still to write,
        each with its maximal priority and transform flag, between the
        pieces of text that separate and close them, so no nesting of
        terms recurses."""
        out = []
        todo = [(t, maxprec, transform)]
        while todo:
            item = todo.pop()
            if type(item) is str:
                out.append(item)
                continue
            t, maxprec, transform = item
            t = deref(t)
            if type(t) is Struct:
                todo.extend(reversed(self._parts(t, maxprec, transform)))
            else:
                out.append(self._atomic_text(t))
        return "".join(out)

    def _atomic_text(self, t):
        if isinstance(t, Var):
            return self._var_text(t)
        if isinstance(t, bool):
            return "true" if t else "fail"
        if isinstance(t, int):
            return str(t)
        if isinstance(t, float):
            return float_text(t)
        if isinstance(t, Fraction):
            return "%d_%d" % (t.numerator, t.denominator)
        if isinstance(t, Breal):
            return "%s__%s" % (float_text(t.lo), float_text(t.hi))
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

    def _parts(self, t, maxprec, transform):
        """The text of the compound term t as a list of pieces in order:
        strings, and (subterm, maximal priority, transform flag) items to
        write in their place."""
        if transform and self.transforms is not None:
            fn = self.transforms(t.name, t.arity)
            if fn is not None:
                new = fn(t)
                if new is not t:
                    return [(new, maxprec, False)]

        # list notation
        if t.name == "." and t.arity == 2:
            return self._list_parts(t)

        if not self.canonical:
            # {Goal}
            if t.name == "{}" and t.arity == 1:
                return ["{", (t.args[0], 1200, True), "}"]
            # subscript sugar: Base[I1, I2]
            if t.name == "subscript" and t.arity == 2:
                parts = self._subscript_parts(t)
                if parts is not None:
                    return parts
            # operators
            if self.ops is not None:
                op = self._operator(t)
                if op is not None:
                    return self._op_parts(t, maxprec, op)

        if not t.args:
            return [self._atom_text(t.name) + "()"]
        parts = [self._atom_text(t.name) + "("]
        for a in t.args:
            parts += self._arg_parts(a)
            parts.append(", ")
        parts[-1] = ")"
        return parts

    def _arg_parts(self, t):
        """Argument / list-element position: full priority, but a term that
        would show a ',' operator outside brackets is bracketed, as the
        reader ends an argument at a bare ','."""
        t = deref(t)
        if type(t) is not Struct:
            return [self._atomic_text(t)]
        if self._shows_comma(t):
            return ["(", (t, 1200, True), ")"]
        return [(t, 1200, True)]

    def _shows_comma(self, t):
        """True when t, written at full priority, shows a ',' operator
        outside brackets."""
        if self.canonical:
            return False
        todo = [(t, 1200)]
        while todo:
            t, maxprec = todo.pop()
            t = deref(t)
            if type(t) is not Struct:
                continue
            if t.name == "," and t.arity == 2:
                return True
            op = self._operator(t) if self.ops is not None else None
            if op is not None and op[1][0] <= maxprec:
                for arg, sub in zip(t.args, _operand_prios(*op)):
                    if sub >= 1000:  # where a ',' term fits unbracketed
                        todo.append((arg, sub))
        return False

    def _list_parts(self, t):
        items, tail = list_parts(t)
        parts = ["["]
        for x in items:
            parts += self._arg_parts(x)
            parts.append(", ")
        tail = deref(tail)
        if isinstance(tail, Atom) and tail.name == "[]":
            parts[-1] = "]"
        else:
            parts[-1] = "|"
            parts += self._arg_parts(tail)
            parts.append("]")
        return parts

    def _subscript_parts(self, t):
        """Base[I1, ...][J1, ...] for a chain of subscript/2 terms whose
        innermost base is a variable and whose indices are proper,
        non-empty lists, or None."""
        layers = []
        while type(t) is Struct and t.name == "subscript" and t.arity == 2:
            items, tail = list_parts(t.args[1])
            tail = deref(tail)
            if not (items and isinstance(tail, Atom) and tail.name == "[]"):
                return None
            layers.append(items)
            t = deref(t.args[0])
        if not isinstance(t, Var):
            return None
        parts = [self._var_text(t)]
        for items in reversed(layers):
            parts.append("[")
            for x in items:
                parts += self._arg_parts(x)
                parts.append(", ")
            parts[-1] = "]"
        return parts

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

    def _op_parts(self, t, maxprec, op):
        """`_parts` for a term written in operator notation."""
        kind, (prio, typ) = op
        name = self._atom_text(t.name)
        subs = _operand_prios(*op)
        if kind == "postfix":
            parts = self._operand(t.args[0], subs[0])
            parts.append(" " + name)
        elif kind == "prefix":
            parts = [name + " "] + self._operand(t.args[0], subs[0])
        else:
            parts = self._operand(t.args[0], subs[0])
            parts.append(", " if t.name == "," else " %s " % name)
            parts += self._operand(t.args[1], subs[1])
        if prio > maxprec:
            return ["("] + parts + [")"]
        return parts

    def _operand(self, t, maxprec):
        """An operand of an operator.  An atom that is an operator itself
        is bracketed, so that it is not read as one."""
        t = deref(t)
        if type(t) is Struct:
            return [(t, maxprec, True)]
        text = self._atomic_text(t)
        if type(t) is Atom and (self.ops.prefix_op(t.name)
                                or self.ops.infix_op(t.name)
                                or self.ops.postfix_op(t.name)):
            return ["(" + text + ")"]
        return [text]


def write_term(t, ops=None, quoted=False, canonical=False, names=None,
               registry=None, transforms=None):
    w = Writer(ops=ops, quoted=quoted, canonical=canonical, names=names,
               registry=registry, transforms=transforms)
    return w.format(t)
