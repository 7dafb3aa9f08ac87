"""A reference resolver and a generator of programs for it to judge.

Written against plain Python data, independently of the engine in
``src/``, as `brute` is for the ic solver, so the two cannot share a bug.
An atom is a ``str``, an integer an ``int``, a variable a `Var`, and a
compound term a tuple ``(name, arg1, ..., argn)``; a list is built from
``"."`` cells and ends in ``"[]"``.  A substitution is a dict from
variables to terms, copied by every unification, which checks occurs.

`Resolver` is SLD resolution in Prolog's order: clauses in source order,
goals left to right, every answer yielded as its substitution.  It knows
``,``, ``;``, ``->`` (with and without an else branch), ``\\+``, ``!``,
``true``, ``fail``, ``=``, ``\\=``, ``==``, ``findall/3`` and ``call/N``.
A cut is a `Cut` exception raised when its goal is backtracked into: it
unwinds every generator between it and the call whose clause it cuts,
and that call stops trying clauses.  ``\\+``, ``findall/3``, ``call/N``
and the condition of ``->`` are opaque to it (ISO 13211-1, 7.7 and 7.8).

`random_program` makes a seeded stratified program, so every query
ends: predicate i calls only predicates before it, or itself on a
numeral its first argument holds, one ``s/1`` smaller.
"""

from __future__ import annotations

import re


class Var:
    """A variable: equal only to itself."""

    __slots__ = ("name",)

    def __init__(self, name="_"):
        self.name = name

    def __repr__(self):
        return self.name


class Cut(Exception):
    """A cut backtracked into: unwinds to the call owning ``barrier``."""

    def __init__(self, barrier):
        super().__init__()
        self.barrier = barrier


class Inconclusive(Exception):
    """The query left the ground the resolver shares with the engine: a
    binding would make a cyclic term (the engine checks no occurs), or
    the search took more steps than the budget."""


def walk(t, s):
    while type(t) is Var and t in s:
        t = s[t]
    return t


def resolve(t, s):
    """``t`` with every bound variable replaced by its value."""
    t = walk(t, s)
    if type(t) is tuple:
        return (t[0],) + tuple(resolve(a, s) for a in t[1:])
    return t


def _occurs(v, t, s):
    t = walk(t, s)
    if t is v:
        return True
    return type(t) is tuple and any(_occurs(v, a, s) for a in t[1:])


def unify(a, b, s):
    """The substitution that unifies ``a`` and ``b`` under ``s``, or None."""
    s = dict(s)
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        x, y = walk(x, s), walk(y, s)
        if x is y:
            continue
        if type(y) is Var:
            x, y = y, x
        if type(x) is Var:
            if _occurs(x, y, s):
                raise Inconclusive("cyclic term")
            s[x] = y
        elif type(x) is tuple and type(y) is tuple:
            if len(x) != len(y) or x[0] != y[0]:
                return None
            todo.extend(zip(x[1:], y[1:]))
        elif type(x) is not type(y) or x != y:
            return None
    return s


def rename(t, fresh):
    """A copy of ``t`` with each variable replaced by its fresh one."""
    if type(t) is Var:
        v = fresh.get(t)
        if v is None:
            v = fresh[t] = Var(t.name)
        return v
    if type(t) is tuple:
        return (t[0],) + tuple(rename(a, fresh) for a in t[1:])
    return t


def make_list(items, tail="[]"):
    for x in reversed(items):
        tail = (".", x, tail)
    return tail


def canonical(terms):
    """``terms`` with variables numbered by first occurrence: two answers
    are variants exactly when their canonical forms are equal."""
    numbers = {}

    def number(t):
        if type(t) is Var:
            return ("$VAR", numbers.setdefault(t, len(numbers)))
        if type(t) is tuple:
            return (t[0],) + tuple(number(a) for a in t[1:])
        return t
    return tuple(number(t) for t in terms)


def indicator(t):
    return (t, 0) if type(t) is str else (t[0], len(t) - 1)


class Resolver:
    """A program's clauses, ``(head, body)`` pairs, and the search over
    them.  ``budget`` bounds the goals one query may run."""

    def __init__(self, clauses, budget=20000):
        self.preds = {}
        for head, body in clauses:
            self.preds.setdefault(indicator(head), []).append((head, body))
        self.budget = budget
        self.steps = 0

    def answers(self, goal, terms, limit):
        """``terms`` resolved by each of the first ``limit`` answers of
        ``goal``."""
        self.steps = 0
        out = []
        if limit:
            for s in self.opaque(goal, {}):
                out.append([resolve(t, s) for t in terms])
                if len(out) == limit:
                    break
        return out

    def opaque(self, goal, s):
        """The answers of ``goal`` with a cut barrier of its own."""
        barrier = object()
        try:
            yield from self.solve(goal, s, barrier)
        except Cut as c:
            if c.barrier is not barrier:
                raise

    def solve(self, goal, s, barrier):
        """The answers of ``goal``, a cut in it cutting to ``barrier``."""
        self.steps += 1
        if self.steps > self.budget:
            raise Inconclusive("more than %d steps" % self.budget)
        goal = walk(goal, s)
        if type(goal) is Var:
            raise Inconclusive("unbound goal")
        name, n = indicator(goal)
        args = goal[1:] if n else ()
        if (name, n) == (",", 2):
            for s1 in self.solve(args[0], s, barrier):
                yield from self.solve(args[1], s1, barrier)
        elif (name, n) == (";", 2):
            c = walk(args[0], s)
            if type(c) is tuple and indicator(c) == ("->", 2):
                yield from self.if_then_else(c[1], c[2], args[1], s, barrier)
            else:
                yield from self.solve(c, s, barrier)
                yield from self.solve(args[1], s, barrier)
        elif (name, n) == ("->", 2):
            yield from self.if_then_else(args[0], args[1], "fail", s, barrier)
        elif (name, n) == ("!", 0):
            yield s
            raise Cut(barrier)
        elif (name, n) == ("true", 0):
            yield s
        elif (name, n) in (("fail", 0), ("false", 0)):
            return
        elif (name, n) == ("=", 2):
            s1 = unify(args[0], args[1], s)
            if s1 is not None:
                yield s1
        elif (name, n) == ("\\=", 2):
            if unify(args[0], args[1], s) is None:
                yield s
        elif (name, n) == ("==", 2):
            if resolve(args[0], s) == resolve(args[1], s):
                yield s
        elif (name, n) == ("\\+", 1):
            for _ in self.opaque(args[0], s):
                return
            yield s
        elif (name, n) == ("findall", 3):
            items = [rename(resolve(args[0], s1), {})
                     for s1 in self.opaque(args[1], s)]
            s1 = unify(args[2], make_list(items), s)
            if s1 is not None:
                yield s1
        elif name == "call" and n >= 1:
            g = walk(args[0], s)
            if n > 1:
                g = (g,) + args[1:] if type(g) is str else g + args[1:]
            yield from self.opaque(g, s)
        else:
            clauses = self.preds.get((name, n))
            if clauses is None:
                raise LookupError("no procedure %s/%d" % (name, n))
            yield from self.call(goal, clauses, s)

    def if_then_else(self, cond, then, orelse, s, barrier):
        for s1 in self.opaque(cond, s):
            break
        else:
            yield from self.solve(orelse, s, barrier)
            return
        yield from self.solve(then, s1, barrier)

    def call(self, goal, clauses, s):
        """The answers of a call to a predicate: each clause, renamed,
        whose head unifies with ``goal``, then its body."""
        barrier = object()
        try:
            for head, body in clauses:
                fresh = {}
                s1 = unify(rename(head, fresh), goal, s)
                if s1 is not None:
                    yield from self.solve(rename(body, fresh), s1, barrier)
        except Cut as c:
            if c.barrier is not barrier:
                raise


# ----------------------------------------------------------------------
# Prolog text

_PLAIN = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


def atom_text(name):
    if _PLAIN.match(name) or name in ("[]", "!"):
        return name
    return "'%s'" % name.replace("\\", "\\\\").replace("'", "\\'")


def text(t):
    """``t`` in Prolog syntax, every compound term in functional notation."""
    if type(t) is Var:
        return t.name
    if type(t) is int:
        return str(t)
    if type(t) is str:
        return atom_text(t)
    return "%s(%s)" % (atom_text(t[0]), ", ".join(text(a) for a in t[1:]))


def clause_text(head, body):
    if body == "true":
        return "%s." % text(head)
    return "%s :- %s." % (text(head), text(body))


# ----------------------------------------------------------------------
# random programs

#: names shared by the predicates, so some name is used at two arities
NAMES = ("p", "q", "r")
ATOMS = ("a", "b", "c")


class Program:
    """A generated program: its clauses as data and as Prolog text, and
    queries, each a goal whose variables are named ``A``, ``B``, ..."""

    def __init__(self, clauses, queries):
        self.clauses = clauses
        self.queries = queries
        self.text = "\n".join(clause_text(h, b) for h, b in clauses) + "\n"


def numeral(rng):
    t = 0
    for _ in range(rng.randrange(3)):
        t = ("s", t)
    return t


class _Gen:
    def __init__(self, rng, sigs, counted):
        self.rng = rng
        self.sigs = sigs          # (name, arity) in stratum order
        self.counted = counted    # stratum numbers holding a numeral first

    def term(self, pool, depth=1):
        rng = self.rng
        k = rng.randrange(10)
        if k < 4 and pool:
            return rng.choice(pool)
        if k < 6:
            return rng.choice(ATOMS)
        if k < 8 or not depth:
            return rng.randrange(3)
        if k < 9:
            return ("f", self.term(pool, depth - 1))
        return ("g", self.term(pool, depth - 1), self.term(pool, depth - 1))

    def call(self, j, pool):
        """A goal calling predicate j, with a numeral first if j needs one."""
        name, arity = self.sigs[j]
        args = [self.term(pool) for _ in range(arity)]
        if j in self.counted:
            args[0] = numeral(self.rng)
        return (name, *args) if args else name

    def goal(self, i, pool, depth=0):
        """A body goal of predicate i: control constructs nest at most two
        deep, and only a predicate after the first calls."""
        rng = self.rng
        kinds = ["test"] * 2 + ["control"]
        if depth < 2:
            kinds += ["or"] * 2 + ["if", "not"] * 2
        if i:
            kinds += ["call"] * 7 + ["findall"] * 2 + ["metacall"] * 2
        kind = rng.choice(kinds)
        if kind == "test":
            return (rng.choice(("=", "=", "\\=", "==")),
                    rng.choice(pool), self.term(pool))
        if kind == "control":
            return rng.choice(("!", "!", "true", "fail"))
        if kind == "or":
            return (";", self.conj(i, pool, depth + 1),
                    self.conj(i, pool, depth + 1))
        if kind == "if":
            ite = ("->", self.conj(i, pool, depth + 1),
                   self.conj(i, pool, depth + 1))
            return (";", ite, self.conj(i, pool, depth + 1)) \
                if rng.random() < 0.7 else ite
        if kind == "not":
            return ("\\+", self.conj(i, pool, depth + 1))
        g = self.call(rng.randrange(i), pool)
        if kind == "call":
            return g
        if kind == "findall":
            tmpl = rng.choice(pool + [("f", rng.choice(pool))])
            if rng.random() < 0.3:
                g = (",", g, "!")
            return ("findall", tmpl, g, rng.choice(pool))
        k = rng.randrange(3)
        if k == 0:
            return ("call", (",", g, "!"))
        if k == 1 or type(g) is str:
            return ("call", g)
        cut = rng.randrange(1, len(g))
        return ("call", g[:cut] if cut > 1 else g[0], *g[cut:])

    def conj(self, i, pool, depth, n=None):
        if n is None:
            n = self.rng.randint(1, 2)
        goals = [self.goal(i, pool, depth) for _ in range(n)]
        out = goals.pop() if goals else "true"
        while goals:
            out = (",", goals.pop(), out)
        return out

    def clauses(self, i):
        rng = self.rng
        name, arity = self.sigs[i]
        out = []
        for _ in range(rng.randint(1, 4)):
            pool = [Var("X%d" % k) for k in range(3)]
            args = [self.term(pool) for _ in range(arity)]
            body = self.conj(i, pool, 0, rng.randint(0, 3))
            if i in self.counted:
                shape = rng.randrange(3)
                if shape == 0:
                    args[0] = 0
                elif shape == 1:
                    n = Var("N")
                    rec = (name, n, *args[1:])
                    args[0] = ("s", n)
                    body = (",", rec, body) if rng.random() < 0.5 \
                        else (",", body, rec)
                else:
                    args[0] = pool[0]
            out.append(((name, *args) if args else name, body))
        return out


def random_program(rng, npreds=5):
    """A stratified program of ``npreds`` predicates of one to four
    clauses each, over the names in `NAMES` at arities 0 to 2, and one
    query per predicate."""
    sigs = []
    while len(sigs) < npreds:
        sig = (rng.choice(NAMES), rng.choice((0, 1, 1, 2, 2)))
        if sig not in sigs:
            sigs.append(sig)
    counted = {i for i, (_, arity) in enumerate(sigs)
               if arity and rng.random() < 0.3}
    gen = _Gen(rng, sigs, counted)
    clauses = [c for i in range(npreds) for c in gen.clauses(i)]
    queries = []
    for i in range(npreds):
        pool = [Var("A"), Var("B")]
        queries.append(gen.call(i, pool))
    return Program(clauses, queries)
