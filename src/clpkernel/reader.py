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
``macro_hook`` callable called on the compounds whose (name, arity) is in
``macro_keys``, so arguments are already transformed when an enclosing
term is handed to its own transformer.  It keeps what it has still to
finish on explicit stacks, not Python's, so the depth of a term is
bounded by memory.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import ReaderError
from .terms import NIL, Atom, Breal, Struct, Var, mk_list

# ----------------------------------------------------------------------
# operator tables

PREFIX_TYPES = ("fy", "fx")
INFIX_TYPES = ("xfx", "xfy", "yfx")
POSTFIX_TYPES = ("xf", "yf")
ALL_TYPES = PREFIX_TYPES + INFIX_TYPES + POSTFIX_TYPES


#: ',' and '|' as the reader takes them, whatever the table says
_READ_INFIX = {",": (1000, "xfy"), "|": (1100, "xfy")}  # '|' reads as ';'

#: bumped on every change to any operator table or its parents, which
#: makes every table rebuild its merged views on the next lookup
_changes = [0]


class Ops:
    """An operator table with a chain of parent tables (imports).

    ``prefix``, ``infix`` and ``postfix`` map the name of each operator
    declared here to (priority, type); ``exports`` holds the same for the
    exported ones, the only ones a table importing this one sees.  `views`
    merges a table with what it sees of its parents, so a lookup is one
    dict read per kind.
    """

    def __init__(self, parents=()):
        self.prefix = {}
        self.infix = {}
        self.postfix = {}
        self.exports = ({}, {}, {})
        self.parents = list(parents)
        self._views = self._exported = None
        self._stamp = self._exported_stamp = -1

    def declare(self, priority, optype, name, exported=False):
        from .errors import DomainError
        if optype not in ALL_TYPES:
            raise DomainError("bad operator type: %r" % (optype,))
        if not isinstance(priority, int) or not 0 <= priority <= 1200:
            raise DomainError("operator priority must be in 0..1200: %r" % (priority,))
        kind = (0 if optype in PREFIX_TYPES
                else 1 if optype in INFIX_TYPES else 2)
        table = (self.prefix, self.infix, self.postfix)[kind]
        exports = self.exports[kind]
        table.pop(name, None)
        exports.pop(name, None)
        if priority != 0:
            table[name] = (priority, optype)
            if exported:
                exports[name] = (priority, optype)
        _changes[0] += 1

    def add_parent(self, ops):
        self.parents.append(ops)
        _changes[0] += 1

    def copy(self):
        """A table with the same entries and parents, to change on its own."""
        new = Ops(self.parents)
        new.prefix = dict(self.prefix)
        new.infix = dict(self.infix)
        new.postfix = dict(self.postfix)
        new.exports = tuple(dict(d) for d in self.exports)
        return new

    def views(self):
        """(prefix, infix, postfix, read_infix): the first three map the
        name of every operator of that kind this table sees (its own, then
        each parent's exported ones, in order) to (priority, type).  The
        reader takes the infix operators from ``read_infix``, in which ','
        and '|' always have the priorities the reader gives them."""
        if self._stamp != _changes[0]:
            prefix, infix, postfix = self._merged(False, [])
            read_infix = dict(infix)
            read_infix.update(_READ_INFIX)
            self._views = prefix, infix, postfix, read_infix
            self._stamp = _changes[0]
        return self._views

    def _merged(self, exported_only, path):
        if exported_only and self._exported_stamp == _changes[0]:
            return self._exported
        path.append(self)
        views = ({}, {}, {})
        for p in reversed(self.parents):
            if p not in path:  # an import cycle adds nothing new
                for view, seen in zip(views, p._merged(True, path)):
                    view.update(seen)
        path.pop()
        own = self.exports if exported_only else (self.prefix, self.infix,
                                                  self.postfix)
        for view, entries in zip(views, own):
            view.update(entries)
        if exported_only:
            self._exported, self._exported_stamp = views, _changes[0]
        return views

    def prefix_op(self, name):
        return self.views()[0].get(name)

    def infix_op(self, name):
        return self.views()[1].get(name)

    def postfix_op(self, name):
        return self.views()[2].get(name)


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


_NUM = r"\d+\.\d+(?:[eE][+-]?\d+|Inf)?|\d+[eE][+-]?\d+|\d+"
# One alternation, the most frequent lexemes first.  Branches that share a
# first character keep their order (a block comment before a symbol atom,
# the numeric forms longest first); the last branch takes any other
# character, which the scan reports as unexpected.
_LEXEME_RE = re.compile(
    r"\s+"
    r"|[a-z][A-Za-z0-9_]*"
    r"|[()\[\]{},|!;]"
    r"|[A-Z_][A-Za-z0-9_]*"
    r"|(?:" + _NUM + r")__-?(?:" + _NUM + r")"
    r"|\d+\.\d+(?:[eE][+-]?\d+|Inf)?|\d+[eE][+-]?\d+"
    r"|\d+_\d+|\d+"
    r"|%[^\n]*"
    r"|/\*.*?\*/"
    r"|[+\-*/\\^<>=~:.?@#&$]+"
    r"|'(?:[^'\\]|\\x[0-9a-fA-F]+\\|\\.|'')*'"
    r"|\"(?:[^\"\\]|\\x[0-9a-fA-F]+\\|\\.|\"\")*\""
    r"|.",
    re.DOTALL)


def _char_class(c):
    """The class of a lexeme that starts with c."""
    if c.isspace():
        return "ws"
    if c.isdecimal():
        return "num"
    if "a" <= c <= "z":
        return "atom"
    if "A" <= c <= "Z" or c == "_":
        return "var"
    if c in "()[]{},|":
        return "punct"
    if c in "!;":
        return "atom"
    if c in "+-*/\\^<>=~:.?@#&$":
        return "sym"
    return {"%": "comment", "'": "'", '"': '"'}.get(c, "bad")


_CLASS = {chr(n): _char_class(chr(n)) for n in range(128)}

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


def _number(lexeme, filename, line, col):
    """(kind, value) of a numeric lexeme."""
    if lexeme.isdigit():
        return "int", int(lexeme)
    if "__" in lexeme:
        lo_txt, hi_txt = lexeme.split("__", 1)
        return "breal", (_float(lo_txt, filename, line, col),
                         _float(hi_txt, filename, line, col))
    if "_" in lexeme:
        num_txt, den_txt = lexeme.split("_", 1)
        if int(den_txt) == 0:
            raise ReaderError("rational with zero denominator", filename, line, col)
        return "rat", Fraction(int(num_txt), int(den_txt))
    return "float", _float(lexeme, filename, line, col)


def _float(lexeme, filename, line, col):
    """The value of a float lexeme; ``1.0Inf`` is infinity, as in ECLiPSe."""
    if lexeme[-1] != "f":
        return float(lexeme)
    if lexeme != "1.0Inf":
        raise ReaderError("an infinite float is written 1.0Inf", filename,
                          line, col)
    return math.inf


def tokenize(text, filename=None):
    """The tokens of text, layout and comments left out, ending with an
    ``eof`` token.  One regex scan splits the text into lexemes; each is
    classified by its first character."""
    tokens = []
    append = tokens.append
    classes = _CLASS
    line = 1
    line_start = 0  # offset of the first character of the line
    pos = 0  # offset of the lexeme
    adjacent = False
    for lex in _LEXEME_RE.findall(text):
        c = lex[0]
        cls = classes.get(c) or _char_class(c)
        if cls == "ws":
            if "\n" in lex:
                line += lex.count("\n")
                line_start = pos + lex.rindex("\n") + 1
            pos += len(lex)
            adjacent = False
            continue
        col = pos - line_start + 1
        if cls == "atom" or cls == "punct" or cls == "var":
            append(Token(cls, lex, line, col, adjacent))
        elif cls == "sym":
            if lex == ".":
                nxt = text[pos + 1:pos + 2]
                kind = "end" if nxt == "" or nxt.isspace() or nxt == "%" else "atom"
                append(Token(kind, ".", line, col, adjacent))
            elif lex[:2] == "/*":
                if len(lex) < 4 or lex[-2:] != "*/":
                    # the block comment branch found no closing '*/'
                    raise ReaderError("unterminated block comment", filename, line, col)
                if "\n" in lex:
                    line += lex.count("\n")
                    line_start = pos + lex.rindex("\n") + 1
                pos += len(lex)
                adjacent = False
                continue
            else:
                append(Token("atom", lex, line, col, adjacent))
        elif cls == "num":
            kind, val = _number(lex, filename, line, col)
            append(Token(kind, val, line, col, adjacent))
        elif cls == "comment":
            pos += len(lex)
            adjacent = False
            continue
        elif (cls == "'" or cls == '"') and len(lex) > 1:
            val = _unescape(lex[1:-1], c, filename, line, col)
            append(Token("atom" if c == "'" else "str", val, line, col, adjacent))
            if "\n" in lex:
                line += lex.count("\n")
                line_start = pos + lex.rindex("\n") + 1
        else:
            raise ReaderError("unexpected character %r" % c, filename, line, col)
        pos += len(lex)
        adjacent = True
    tokens.append(Token("eof", None, line, pos - line_start + 1, False))
    return tokens


# ----------------------------------------------------------------------
# parser

_NUMERIC_KINDS = ("int", "rat", "float", "breal")
_LITERAL_KINDS = ("int", "rat", "float", "str")

# What an open construct on the parser's stack waits for.  Each frame
# ends with the priority context to resume in: (maxprec, punct).
_INFIX = "infix"          # (tag, name, left operand, priority, ...)
_PREFIX = "prefix"        # (tag, name, priority, ...)
_PAREN = "paren"          # (tag, ...): a ')'
_CURLY = "curly"          # (tag, ...): a '}', then {}/1
_ARGS = "args"            # (tag, name, args, ...): ',' or ')'
_SUGAR = "sugar"          # (tag, name, fields, ...): ',' or '}'
_LIST = "list"            # (tag, items, ...): ',' '|' or ']'
_TAIL = "tail"            # (tag, items, ...): ']' after the tail
_SUBSCRIPT = "subscript"  # (tag, base, indices, ...): ',' or ']'
_CLOSE = {
    _ARGS: (")", "expected ',' or ')' in argument list"),
    _SUGAR: ("}", "expected ',' or '}' in struct fields"),
    _LIST: ("]", "expected ',' '|' or ']' in list"),
    _SUBSCRIPT: ("]", "expected ',' or ']' in subscript"),
}


def _infix_only(tok, after, prefix, infix, postfix):
    """True when the atom tok can only be an infix or postfix operator
    here, e.g. the '=' in (- = ...): then a prefix operator before it is
    read as an atom.  An operator atom followed by '(' is a functor call,
    not an operator."""
    name = tok.val
    if name in prefix or (name not in infix and name not in postfix):
        return False
    return not (after.kind == "punct" and after.val == "(" and after.adjacent)


class Parser:
    """Reads terms from a token list.  ``macro_hook`` is called on each
    compound term whose (name, arity) is in ``macro_keys`` as it is built,
    innermost first, and its result is used in place of the term."""

    def __init__(self, tokens, ops, macro_hook=None, filename=None,
                 macro_keys=()):
        self.tokens = tokens
        self.i = 0
        self.ops = ops
        self.macro_hook = macro_hook
        self.macro_keys = macro_keys
        self.filename = filename
        self.varmap = {}

    # -- plumbing ------------------------------------------------------

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def error(self, msg, tok=None):
        tok = tok or self.peek()
        raise ReaderError(msg, self.filename, tok.line, tok.col)

    def at_eof(self):
        return self.tokens[self.i].kind == "eof"

    # -- grammar -------------------------------------------------------

    def parse(self, maxprec, punct_ops=True):
        """A term of priority at most maxprec; returns (term, priority).
        With punct_ops false a bare ',' or '|' ends the term, as in an
        argument or a list element.

        Operator-precedence parsing in one loop: a primary term is read,
        then the infix and postfix operators that fit the context.  What
        an open construct still waits for (an operator's right operand,
        the next argument, a closing bracket) is a frame on an explicit
        stack, with the left operands and arguments read so far and the
        context to resume in, so nesting depth is bounded by memory."""
        toks = self.tokens
        i = self.i
        prefix, infix, postfix, read_infix = self.ops.views()
        hook = self.macro_hook
        keys = self.macro_keys
        varmap = self.varmap
        error = self.error
        frames = []
        punct = punct_ops

        def mk(name, args):
            t = Struct(name, args)
            if (name, len(args)) in keys:
                return hook(t)
            return t

        while True:
            # -- a primary term, in the context (maxprec, punct)
            tok = toks[i]
            kind = tok.kind
            i += 1
            lprec = 0
            if kind == "atom":
                name = tok.val
                nxt = toks[i]
                nkind = nxt.kind
                if nkind == "punct" and nxt.adjacent and nxt.val in "({":
                    # a functor application, or struct sugar: name{...}
                    i += 1
                    if nxt.val == "(":
                        frames.append((_ARGS, name, [], maxprec, punct))
                        maxprec, punct = 1200, False
                        continue
                    if toks[i].kind == "punct" and toks[i].val == "}":
                        i += 1
                        left = mk("with", [Atom(name), NIL])
                    else:
                        frames.append((_SUGAR, name, [], maxprec, punct))
                        maxprec, punct = 1200, False
                        continue
                elif name == "-" and nkind in _NUMERIC_KINDS and nxt.adjacent:
                    # a negative numeric literal
                    i += 1
                    if nkind == "breal":
                        lo, hi = nxt.val
                        if -lo > hi:
                            error("breal bounds out of order", nxt)
                        left = Breal(-lo, hi)
                    else:
                        left = -nxt.val
                else:
                    pre = prefix.get(name)
                    if (pre is not None and pre[0] <= maxprec
                            and nkind != "eof" and nkind != "end"
                            and (nkind != "punct" or nxt.val in "([{")
                            and not (nkind == "atom" and _infix_only(
                                nxt, toks[i + 1], prefix, infix, postfix))):
                        prio, typ = pre
                        frames.append((_PREFIX, name, prio, maxprec, punct))
                        maxprec = prio if typ == "fy" else prio - 1
                        continue
                    left = Atom(name)
            elif kind == "var":
                name = tok.val
                if name == "_":
                    left = Var("_")
                else:
                    left = varmap.get(name)
                    if left is None:
                        left = varmap[name] = Var(name)
                nxt = toks[i]
                if nxt.kind == "punct" and nxt.val == "[" and nxt.adjacent:
                    i += 1
                    frames.append((_SUBSCRIPT, left, [], maxprec, punct))
                    maxprec, punct = 1200, False
                    continue
            elif kind in _LITERAL_KINDS:
                left = tok.val
            elif kind == "punct":
                val = tok.val
                if val == "(":
                    frames.append((_PAREN, maxprec, punct))
                    maxprec, punct = 1200, True
                    continue
                if val != "[" and val != "{":
                    error("unexpected %r" % val, tok)
                nxt = toks[i]
                if nxt.kind == "punct" and nxt.val == ("]" if val == "[" else "}"):
                    # '[]' or '{}': an atom, or a functor when '(' follows
                    i += 1
                    name = val + nxt.val
                    nxt = toks[i]
                    if nxt.kind == "punct" and nxt.val == "(" and nxt.adjacent:
                        i += 1
                        frames.append((_ARGS, name, [], maxprec, punct))
                        maxprec, punct = 1200, False
                        continue
                    left = Atom(name)
                elif val == "[":
                    frames.append((_LIST, [], maxprec, punct))
                    maxprec, punct = 1200, False
                    continue
                else:
                    frames.append((_CURLY, maxprec, punct))
                    maxprec, punct = 1200, True
                    continue
            elif kind == "breal":
                lo, hi = tok.val
                if lo > hi:
                    error("breal bounds out of order: %r > %r" % (lo, hi), tok)
                left = Breal(lo, hi)
            else:
                error("unexpected token", tok)

            # -- infix and postfix operators, then the enclosing frames
            while True:
                tok = toks[i]
                kind = tok.kind
                if kind == "atom":
                    name = tok.val
                    entry = read_infix.get(name)
                    if entry is None:
                        post = postfix.get(name)
                        if post is not None:
                            prio, typ = post
                            if prio <= maxprec and lprec <= (
                                    prio - 1 if typ == "xf" else prio):
                                i += 1
                                left = mk(name, [left])
                                lprec = prio
                                continue
                elif kind == "punct" and punct and tok.val in ",|":
                    name = tok.val
                    entry = _READ_INFIX[name]
                else:
                    entry = None
                if entry is not None:
                    prio, typ = entry
                    if prio <= maxprec and lprec <= (
                            prio if typ == "yfx" else prio - 1):
                        nxt = toks[i + 1]
                        nkind = nxt.kind
                        if (nkind != "eof" and nkind != "end"
                                and (nkind != "punct" or nxt.val in "([{")):
                            i += 1
                            frames.append((_INFIX, ";" if name == "|" else name,
                                           left, prio, maxprec, punct))
                            maxprec = prio if typ == "xfy" else prio - 1
                            break

                # the term in this context is complete
                if not frames:
                    self.i = i
                    return left, lprec
                f = frames.pop()
                tag = f[0]
                if tag is _INFIX:
                    _, name, first, lprec, maxprec, punct = f
                    left = Struct(name, [first, left])
                    if (name, 2) in keys:
                        left = hook(left)
                    continue
                if tag is _PREFIX:
                    _, name, lprec, maxprec, punct = f
                    left = mk(name, [left])
                    continue
                tok = toks[i]
                i += 1
                sep = tok.val if tok.kind == "punct" else None
                lprec = 0
                if tag is _PAREN or tag is _CURLY:
                    close = ")" if tag is _PAREN else "}"
                    if sep != close:
                        error("expected %r" % close, tok)
                    _, maxprec, punct = f
                    if tag is _CURLY:
                        left = mk("{}", [left])
                    continue
                if tag is _TAIL:
                    if sep != "]":
                        error("expected %r" % "]", tok)
                    _, items, maxprec, punct = f
                else:
                    # a sequence: arguments, list elements, struct fields
                    # or indices, separated by ','
                    items = f[-3]
                    items.append(left)
                    if sep == "," or (sep == "|" and tag is _LIST):
                        frames.append(f if sep == "," else (_TAIL,) + f[1:])
                        maxprec, punct = 1200, False
                        break
                    close, expected = _CLOSE[tag]
                    if sep != close:
                        error(expected, tok)
                    maxprec, punct = f[-2:]
                if tag is _ARGS:
                    left = Struct(f[1], items)
                    if (f[1], len(items)) in keys:
                        left = hook(left)
                elif tag is _LIST or tag is _TAIL:
                    if tag is _LIST:
                        left = NIL
                    if (".", 2) in keys:
                        for x in reversed(items):
                            left = hook(Struct(".", [x, left]))
                    else:
                        for x in reversed(items):
                            left = Struct(".", [x, left])
                elif tag is _SUGAR:
                    left = mk("with", [Atom(f[1]), mk_list(items)])
                else:  # _SUBSCRIPT: Base[I, ...], perhaps followed by more
                    left = mk("subscript", [f[1], mk_list(items)])
                    nxt = toks[i]
                    if nxt.kind == "punct" and nxt.val == "[" and nxt.adjacent:
                        i += 1
                        frames.append((_SUBSCRIPT, left, [], maxprec, punct))
                        maxprec, punct = 1200, False
                        break

    def read_clause(self):
        """One term terminated by '.'; returns (term, varmap) and resets
        the variable map for the next clause."""
        self.varmap = {}
        start = self.tokens[self.i]
        term, _ = self.parse(1200)
        t = self.next()
        if t.kind != "end":
            self.error("operator expected before %r, or missing '.'"
                       % (t.val,), t)
        return term, self.varmap, (start.line, start.col)


def parse_term(text, ops=None, filename=None, macro_hook=None,
               macro_keys=()):
    """Parse a single term (a trailing '.' is allowed but not required);
    ``macro_hook`` and ``macro_keys`` are the `Parser`'s."""
    p = Parser(tokenize(text, filename), ops or standard_ops(), macro_hook,
               filename, macro_keys)
    term, _ = p.parse(1200)
    t = p.next()
    if t.kind not in ("eof", "end"):
        p.error("unexpected trailing input", t)
    if not p.at_eof():
        p.error("unexpected trailing input", p.peek())
    return term, p.varmap


def read_terms(text, ops=None, filename=None):
    """Yield (term, varmap, (line, col)) for each clause in text."""
    p = Parser(tokenize(text, filename), ops or standard_ops(), filename=filename)
    while not p.at_eof():
        yield p.read_clause()
