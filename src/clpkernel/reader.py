"""Tokenizer and parser.

Standard Prolog term syntax plus the extensions:

* rational literals       1_3          (numerator _ denominator)
* bounded-real literals   0.99__1.01   (lower __ upper)
* array subscripts        M[3,4]       -- only when a variable token (or a
                                       chained subscript) is *immediately*
                                       followed by '[', no layout between
* struct sugar            emp{age:A}   -- an atom immediately followed by
                                       '{' parses as with(emp, [age:A]);
                                       a term macro turns it into the
                                       positional struct
* arrays                  [](a, b, c)  -- '[]' used as a functor

Every token carries an ``adjacent`` flag (no layout separates it from the
previous token), which is what makes the subscript and struct-sugar rules
expressible.  A prefix '-' immediately followed by a numeric literal folds
into a negative literal; for a bounded real the sign applies to the first
endpoint lexically (-1.01__-0.99 has lo = -1.01).

The parser applies registered term macros bottom-up while building, via a
``macro_hook`` callable, so arguments are already transformed when an
enclosing term is handed to its own transformer.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ReaderError
from .terms import Atom, Breal, Struct, Var, mk_list

# ----------------------------------------------------------------------
# operator tables

PREFIX_TYPES = ("fy", "fx")
INFIX_TYPES = ("xfx", "xfy", "yfx")
POSTFIX_TYPES = ("xf", "yf")
ALL_TYPES = PREFIX_TYPES + INFIX_TYPES + POSTFIX_TYPES


class Ops:
    """An operator table with a chain of parent tables (imports).

    Entries are (priority, type, exported); parent lookup only sees
    exported entries.
    """

    def __init__(self, parents=()):
        self.prefix = {}
        self.infix = {}
        self.postfix = {}
        self.parents = list(parents)

    def declare(self, priority, optype, name, exported=False):
        from .errors import DomainError
        if optype not in ALL_TYPES:
            raise DomainError("bad operator type: %r" % (optype,))
        if not isinstance(priority, int) or not 0 <= priority <= 1200:
            raise DomainError("operator priority must be in 0..1200: %r" % (priority,))
        table = (self.prefix if optype in PREFIX_TYPES
                 else self.infix if optype in INFIX_TYPES else self.postfix)
        if priority == 0:
            table.pop(name, None)
        else:
            table[name] = (priority, optype, exported)

    def copy(self):
        """A table with the same entries and parents, to change on its own."""
        new = Ops(self.parents)
        new.prefix = dict(self.prefix)
        new.infix = dict(self.infix)
        new.postfix = dict(self.postfix)
        return new

    def _lookup(self, which, name, exported_only=False):
        entry = getattr(self, which).get(name)
        if entry is not None and (not exported_only or entry[2]):
            return entry[:2]
        for p in self.parents:
            got = p._lookup(which, name, exported_only=True)
            if got is not None:
                return got
        return None

    def prefix_op(self, name):
        return self._lookup("prefix", name)

    def infix_op(self, name):
        return self._lookup("infix", name)

    def postfix_op(self, name):
        return self._lookup("postfix", name)


_STANDARD = [
    (1200, "xfx", ":-"), (1200, "xfx", "-->"),
    (1200, "fx", ":-"), (1200, "fx", "?-"),
    (1150, "fx", "local"), (1150, "fx", "export"), (1150, "fx", "import"),
    (1150, "fx", "dynamic"), (1150, "fx", "discontiguous"),
    (1150, "fx", "demon"),
    (1100, "xfy", ";"),
    (1100, "xfy", "do"),
    (1050, "xfy", "->"),
    (1000, "xfy", ","),
    (900, "fy", "\\+"),
    (700, "xfx", "="), (700, "xfx", "\\="),
    (700, "xfx", "=="), (700, "xfx", "\\=="),
    (700, "xfx", "@<"), (700, "xfx", "@>"), (700, "xfx", "@=<"), (700, "xfx", "@>="),
    (700, "xfx", "is"), (700, "xfx", "=.."),
    (700, "xfx", "=:="), (700, "xfx", "=\\="),
    (700, "xfx", "<"), (700, "xfx", ">"), (700, "xfx", "=<"), (700, "xfx", ">="),
    (650, "xfx", "of"),
    (600, "xfy", ":"),
    (500, "yfx", "+"), (500, "yfx", "-"), (500, "yfx", "/\\"), (500, "yfx", "\\/"),
    (400, "yfx", "*"), (400, "yfx", "/"), (400, "yfx", "//"),
    (400, "yfx", "mod"), (400, "yfx", "rem"), (400, "yfx", "<<"), (400, "yfx", ">>"),
    (200, "xfx", "**"),
    (200, "xfy", "^"),
    (200, "fy", "-"), (200, "fy", "+"), (200, "fy", "\\"),
]


def _build_standard_ops():
    ops = Ops()
    for prio, typ, name in _STANDARD:
        ops.declare(prio, typ, name, exported=True)
    return ops


_STANDARD_OPS = _build_standard_ops()


def standard_ops():
    """A fresh copy of the standard operator table, built once at import."""
    return _STANDARD_OPS.copy()


# ----------------------------------------------------------------------
# tokenizer

class Token:
    __slots__ = ("kind", "val", "line", "col", "adjacent")

    def __init__(self, kind, val, line, col, adjacent):
        self.kind = kind
        self.val = val
        self.line = line
        self.col = col
        self.adjacent = adjacent

    def __repr__(self):
        return "Token(%s, %r)" % (self.kind, self.val)


_NUM = r"\d+\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|\d+"
_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<lc>%[^\n]*)"
    r"|(?P<bc>/\*.*?\*/)"
    r"|(?P<breal>(?:" + _NUM + r")__-?(?:" + _NUM + r"))"
    r"|(?P<float>\d+\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)"
    r"|(?P<rat>\d+_\d+)"
    r"|(?P<int>\d+)"
    r"|(?P<name>[a-z][A-Za-z0-9_]*)"
    r"|(?P<var>[A-Z_][A-Za-z0-9_]*)"
    r"|(?P<qatom>'(?:[^'\\]|\\x[0-9a-fA-F]+\\|\\.|'')*')"
    r"|(?P<str>\"(?:[^\"\\]|\\x[0-9a-fA-F]+\\|\\.|\"\")*\")"
    r"|(?P<sym>[+\-*/\\^<>=~:.?@#&$]+)"
    r"|(?P<solo>[()\[\]{},|!;])",
    re.DOTALL)

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "a": "\a", "b": "\b",
            "f": "\f", "v": "\v", "\\": "\\", "'": "'", '"': '"', "`": "`",
            "\n": ""}


def _unescape(body, quote, filename, line, col):
    out = []
    i = 0
    while i < len(body):
        c = body[i]
        if c == quote and i + 1 < len(body) and body[i + 1] == quote:
            out.append(quote)
            i += 2
        elif c == "\\":
            i += 1
            if i >= len(body):
                raise ReaderError("dangling escape", filename, line, col)
            e = body[i]
            if e in _ESCAPES:
                out.append(_ESCAPES[e])
                i += 1
            elif e == "x":
                j = body.index("\\", i) if "\\" in body[i:] else -1
                if j < 0:
                    raise ReaderError("unterminated \\x escape", filename, line, col)
                out.append(chr(int(body[i + 1:j], 16)))
                i = j + 1
            else:
                raise ReaderError("unknown escape \\%s" % e, filename, line, col)
        else:
            out.append(c)
            i += 1
    return "".join(out)


def tokenize(text, filename=None):
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    adjacent = False
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        col = pos - line_start + 1
        if m is None:
            if text.startswith("/*", pos):
                raise ReaderError("unterminated block comment", filename, line, col)
            raise ReaderError("unexpected character %r" % text[pos], filename, line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind == "sym" and lexeme.startswith("/*"):
            # the comment regex failed to find a closing '*/'
            raise ReaderError("unterminated block comment", filename, line, col)
        if kind in ("ws", "lc", "bc"):
            adjacent = False
        elif kind == "breal":
            lo_txt, hi_txt = lexeme.split("__", 1)
            tokens.append(Token("breal", (float(lo_txt), float(hi_txt)), line, col, adjacent))
            adjacent = True
        elif kind == "float":
            tokens.append(Token("float", float(lexeme), line, col, adjacent))
            adjacent = True
        elif kind == "rat":
            num_txt, den_txt = lexeme.split("_", 1)
            if int(den_txt) == 0:
                raise ReaderError("rational with zero denominator", filename, line, col)
            tokens.append(Token("rat", Fraction(int(num_txt), int(den_txt)), line, col, adjacent))
            adjacent = True
        elif kind == "int":
            tokens.append(Token("int", int(lexeme), line, col, adjacent))
            adjacent = True
        elif kind == "name":
            tokens.append(Token("atom", lexeme, line, col, adjacent))
            adjacent = True
        elif kind == "var":
            tokens.append(Token("var", lexeme, line, col, adjacent))
            adjacent = True
        elif kind == "qatom":
            tokens.append(Token("atom", _unescape(lexeme[1:-1], "'", filename, line, col),
                                line, col, adjacent))
            adjacent = True
        elif kind == "str":
            tokens.append(Token("str", _unescape(lexeme[1:-1], '"', filename, line, col),
                                line, col, adjacent))
            adjacent = True
        elif kind == "sym":
            if lexeme == ".":
                nxt = text[m.end():m.end() + 1]
                if nxt == "" or nxt.isspace() or nxt == "%":
                    tokens.append(Token("end", ".", line, col, adjacent))
                else:
                    tokens.append(Token("atom", ".", line, col, adjacent))
            else:
                tokens.append(Token("atom", lexeme, line, col, adjacent))
            adjacent = True
        else:  # solo
            if lexeme in "!;":
                tokens.append(Token("atom", lexeme, line, col, adjacent))
            else:
                tokens.append(Token("punct", lexeme, line, col, adjacent))
            adjacent = True
        line += lexeme.count("\n")
        if "\n" in lexeme:
            line_start = pos + lexeme.rindex("\n") + 1
        pos = m.end()
    tokens.append(Token("eof", None, line, n - line_start + 1, False))
    return tokens


# ----------------------------------------------------------------------
# parser

_NUMERIC_KINDS = ("int", "rat", "float", "breal")


class Parser:
    def __init__(self, tokens, ops, macro_hook=None, filename=None):
        self.tokens = tokens
        self.i = 0
        self.ops = ops
        self.macro_hook = macro_hook
        self.filename = filename
        self.varmap = {}

    # -- plumbing ------------------------------------------------------

    def peek(self, ahead=0):
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self):
        t = self.tokens[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def error(self, msg, tok=None):
        tok = tok or self.peek()
        raise ReaderError(msg, self.filename, tok.line, tok.col)

    def expect_punct(self, p):
        t = self.next()
        if t.kind != "punct" or t.val != p:
            self.error("expected %r" % p, t)
        return t

    def _mk(self, name, args):
        t = Struct(name, args)
        if self.macro_hook is not None:
            t = self.macro_hook(t)
        return t

    def _var(self, name):
        if name == "_":
            return Var("_")
        v = self.varmap.get(name)
        if v is None:
            v = Var(name)
            self.varmap[name] = v
        return v

    def _can_start_term(self, tok):
        if tok.kind in ("eof", "end"):
            return False
        if tok.kind == "punct":
            return tok.val in "([{"
        return True

    # -- grammar -------------------------------------------------------

    def parse(self, maxprec, punct_ops=True):
        left, lprec = self.parse_primary(maxprec, punct_ops)
        return self.parse_infix(left, lprec, maxprec, punct_ops)

    def parse_arg(self):
        """An argument or list element: any term, but a bare ',' or '|'
        ends it (conjunctions need parentheses there)."""
        return self.parse(1200, punct_ops=False)[0]

    def parse_infix(self, left, lprec, maxprec, punct_ops=True):
        while True:
            tok = self.peek()
            if tok.kind == "atom":
                name = tok.val
            elif tok.kind == "punct" and tok.val == ",":
                if not punct_ops:
                    return left, lprec
                name = ","
            elif tok.kind == "punct" and tok.val == "|":
                if not punct_ops:
                    return left, lprec
                name = "|"
            else:
                return left, lprec
            entry = self.ops.infix_op(name) if name not in (",", "|") else \
                (1000, "xfy") if name == "," else (1100, "xfy")
            if entry is None:
                post = self.ops.postfix_op(name)
                if post is not None:
                    prio, typ = post
                    lmax = prio - 1 if typ == "xf" else prio
                    if prio <= maxprec and lprec <= lmax:
                        self.next()
                        left = self._mk(name, [left])
                        lprec = prio
                        continue
                return left, lprec
            prio, typ = entry
            lmax = prio - 1 if typ in ("xfx", "xfy") else prio
            rmax = prio if typ == "xfy" else prio - 1
            if prio > maxprec or lprec > lmax:
                return left, lprec
            if not self._can_start_term(self.peek(1)):
                return left, lprec
            self.next()
            right, _ = self.parse(rmax, punct_ops)
            if name == "|":
                name = ";"  # '|' as an infix is an alias for disjunction
            left = self._mk(name, [left, right])
            lprec = prio

    def parse_primary(self, maxprec, punct_ops=True):
        tok = self.next()
        kind = tok.kind

        if kind in ("int", "float", "rat", "str"):
            return tok.val, 0
        if kind == "breal":
            lo, hi = tok.val
            if lo > hi:
                self.error("breal bounds out of order: %r > %r" % (lo, hi), tok)
            return Breal(lo, hi), 0
        if kind == "var":
            return self.maybe_subscript(self._var(tok.val)), 0
        if kind == "punct":
            return self.parse_punct_primary(tok)
        if kind == "atom":
            return self.parse_atom_primary(tok, maxprec, punct_ops)
        self.error("unexpected token", tok)

    def parse_punct_primary(self, tok):
        if tok.val == "(":
            t, _ = self.parse(1200)
            self.expect_punct(")")
            return t, 0
        if tok.val == "[":
            if self.peek().kind == "punct" and self.peek().val == "]":
                self.next()
                return self.atom_or_apply("[]"), 0
            items = [self.parse_arg()]
            tail = Atom("[]")
            while True:
                nxt = self.next()
                if nxt.kind == "punct" and nxt.val == ",":
                    items.append(self.parse_arg())
                elif nxt.kind == "punct" and nxt.val == "|":
                    tail = self.parse_arg()
                    self.expect_punct("]")
                    break
                elif nxt.kind == "punct" and nxt.val == "]":
                    break
                else:
                    self.error("expected ',' '|' or ']' in list", nxt)
            out = tail
            for x in reversed(items):
                out = self._mk(".", [x, out])
            return out, 0
        if tok.val == "{":
            if self.peek().kind == "punct" and self.peek().val == "}":
                self.next()
                return self.atom_or_apply("{}"), 0
            t, _ = self.parse(1200)
            self.expect_punct("}")
            return self._mk("{}", [t]), 0
        self.error("unexpected %r" % tok.val, tok)

    def atom_or_apply(self, name):
        """An atom, or name(Args...) when '(' follows adjacently."""
        nxt = self.peek()
        if nxt.kind == "punct" and nxt.val == "(" and nxt.adjacent:
            self.next()
            args = [self.parse_arg()]
            while True:
                t = self.next()
                if t.kind == "punct" and t.val == ",":
                    args.append(self.parse_arg())
                elif t.kind == "punct" and t.val == ")":
                    break
                else:
                    self.error("expected ',' or ')' in argument list", t)
            return self._mk(name, args)
        return Atom(name)

    def parse_atom_primary(self, tok, maxprec, punct_ops=True):
        name = tok.val
        nxt = self.peek()

        # functor application: atom immediately followed by '('
        if nxt.kind == "punct" and nxt.val == "(" and nxt.adjacent:
            return self.atom_or_apply(name), 0

        # struct sugar: atom immediately followed by '{'
        if nxt.kind == "punct" and nxt.val == "{" and nxt.adjacent:
            self.next()
            fields = []
            if not (self.peek().kind == "punct" and self.peek().val == "}"):
                fields.append(self.parse_arg())
                while True:
                    t = self.next()
                    if t.kind == "punct" and t.val == ",":
                        fields.append(self.parse_arg())
                    elif t.kind == "punct" and t.val == "}":
                        break
                    else:
                        self.error("expected ',' or '}' in struct fields", t)
            else:
                self.next()
            return self._mk("with", [Atom(name), mk_list(fields)]), 0

        # negative numeric literals: prefix '-' adjacent to a number token
        if name == "-" and nxt.kind in _NUMERIC_KINDS and nxt.adjacent:
            self.next()
            if nxt.kind == "breal":
                lo, hi = nxt.val
                lo = -lo
                if lo > hi:
                    self.error("breal bounds out of order", nxt)
                return Breal(lo, hi), 0
            return -nxt.val, 0

        # prefix operator
        pre = self.ops.prefix_op(name)
        if pre is not None and self._can_start_term(nxt) and not self._starts_infix_only(nxt):
            prio, typ = pre
            if prio <= maxprec:
                sub = prio if typ == "fy" else prio - 1
                operand, _ = self.parse(sub, punct_ops)
                return self._mk(name, [operand]), prio

        return Atom(name), 0

    def _starts_infix_only(self, tok):
        """True when tok is an atom usable only as an infix operator here,
        e.g. the '=' in (- = ...): then '-' must be read as an atom."""
        if tok.kind != "atom":
            return False
        name = tok.val
        if self.ops.infix_op(name) is None and self.ops.postfix_op(name) is None:
            return False
        if self.ops.prefix_op(name) is not None:
            return False
        # an operator atom followed by '(' is a functor call, not an operator
        after = self.peek(1)
        if after.kind == "punct" and after.val == "(" and after.adjacent:
            return False
        return True

    def maybe_subscript(self, base):
        """Wrap a variable (or chained subscript) in subscript/2 terms for
        each immediately following '[...]' group."""
        while True:
            nxt = self.peek()
            if not (nxt.kind == "punct" and nxt.val == "[" and nxt.adjacent):
                return base
            self.next()
            idx = [self.parse_arg()]
            while True:
                t = self.next()
                if t.kind == "punct" and t.val == ",":
                    idx.append(self.parse_arg())
                elif t.kind == "punct" and t.val == "]":
                    break
                else:
                    self.error("expected ',' or ']' in subscript", t)
            base = self._mk("subscript", [base, mk_list(idx)])

    def at_eof(self):
        return self.peek().kind == "eof"

    def read_clause(self):
        """One term terminated by '.'; returns (term, varmap) and resets
        the variable map for the next clause."""
        self.varmap = {}
        start = self.peek()
        term, _ = self.parse(1200)
        t = self.next()
        if t.kind != "end":
            self.error("operator expected before %r, or missing '.'"
                       % (t.val,), t)
        vm = self.varmap
        return term, vm, (start.line, start.col)


def parse_term(text, ops=None, macro_hook=None, filename=None):
    """Parse a single term (a trailing '.' is allowed but not required)."""
    p = Parser(tokenize(text, filename), ops or standard_ops(), macro_hook, filename)
    term, _ = p.parse(1200)
    t = p.next()
    if t.kind not in ("eof", "end"):
        p.error("unexpected trailing input", t)
    if not p.at_eof():
        t2 = p.peek()
        if t2.kind != "eof":
            p.error("unexpected trailing input", t2)
    return term, p.varmap


def read_terms(text, ops=None, macro_hook=None, filename=None):
    """Yield (term, varmap, (line, col)) for each clause in text."""
    p = Parser(tokenize(text, filename), ops or standard_ops(), macro_hook, filename)
    while not p.at_eof():
        yield p.read_clause()
