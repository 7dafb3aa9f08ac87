"""User clauses compiled to Python functions.

After the compiled code of Warren's abstract machine, every clause runs
as a Python function that matches its head against a goal's arguments
and builds its body (`Clause`).  The functions are generated from Python
source, once per clause shape in a process, so clauses that differ only
in their names and constants share one piece of code.  A predicate's
clauses are indexed on their first argument (`index_key`,
`first_arg_switch`).
"""

from __future__ import annotations

from fractions import Fraction

from .terms import TRUE, Atom, Breal, Struct, Var, deref


class Clause:
    """A user clause, compiled to a Python function on its first call.

    When the clause is added, one walk over its terms (`_compile`) takes
    its *shape*, a tuple that says everything about the clause except the
    values in it, and its parameters, those values: functor names,
    constants and the attributed variables.  The body's top-level
    conjunction is split into goals there and ``true`` dropped.  The
    clause is a snapshot taken when it is added, as ISO ``assert`` does:
    later bindings of its variables do not change it.  ``key`` is the
    first-argument index key (None for a variable).

    The first call makes ``fn``: the factory generated for the shape
    (`_factory`, once per shape in a process) is called with the
    parameters, and the shape and parameters are dropped.  ``fn(args,
    engine, store, module, cut, cont)`` matches the head against the
    goal's arguments and returns False or the body's continuation: one
    ``(goal, module, cut, next)`` cell per goal, ending in ``cont``.
    ``store`` is the engine's.  Goals the head match woke run in
    `Engine.solve`, before the first body goal.  An attributed variable
    of the clause is copied with ``engine._copy_attr_hook``.
    """

    __slots__ = ("key", "shape", "params", "fn")

    def __init__(self, head, body):
        h = deref(head)
        args = h.args if type(h) is Struct else ()
        self.key = index_key(args[0]) if args else None
        self.shape, self.params = _compile(args, body)
        self.fn = None

    def compile(self):
        """Make and return ``fn``."""
        make = _FACTORIES.get(self.shape)
        if make is None:
            make = _FACTORIES[self.shape] = _factory(self.shape)
        fn = self.fn = make(*self.params)
        self.shape = self.params = None
        return fn


def _compile(args, body):
    """The shape and the parameters of a clause with head arguments
    ``args``.  The shape is the head's arity, the number of body goals,
    then the tokens of the head arguments and of the goals, each term in
    prefix order: a compound term of arity n is ``-1 - n`` (its name a
    parameter), a variable's first occurrence ``"F"`` (``"A"``, with the
    variable as a parameter, if it has attributes), a later occurrence the
    variable's number, and a constant ``"K"`` (its value a parameter).
    Variables are numbered by first occurrence, head then body."""
    goals = []
    stack = [body]
    while stack:
        g = deref(stack.pop())
        if type(g) is Struct and g.name == "," and len(g.args) == 2:
            stack += g.args[1], g.args[0]
        elif g is not TRUE:
            goals.append(g)
    shape = [len(args), len(goals)]
    params = []
    slots = {}
    stack = [*reversed(goals), *reversed(args)]
    while stack:
        t = stack.pop()
        while type(t) is Var and t.ref is not None:
            t = t.ref
        ty = type(t)
        if ty is Struct:
            shape.append(-1 - len(t.args))
            params.append(t.name)
            stack += reversed(t.args)
        elif ty is Var:
            i = slots.get(t)
            if i is None:
                slots[t] = len(slots)
                shape.append("A" if t.attrs else "F")
                if t.attrs:
                    params.append(t)
            else:
                shape.append(i)
        else:
            shape.append("K")
            params.append(t)
    return tuple(shape), params


#: the factory of every clause shape generated so far in this process.
#: It holds code only: no clause, term or predicate.
_FACTORIES = {}

#: parameters beyond this many are read from a tuple: compiling a closure
#: over thousands of cells takes time superlinear in their number
_CELLS = 64


def _factory(shape):
    """Generate, compile and return the factory for clauses of a shape:
    called with a clause's parameters, it returns the clause's function."""
    gen = _Codegen(shape)
    body = gen.clause()
    names = ["p%d" % i for i in range(min(gen.np, _CELLS))]
    if gen.np > _CELLS:
        names.append("*P")
    source = ("def make(%s):\n"
              "    def clause(args, engine, store, module, cut, cont):\n"
              "%s\n"
              "    return clause\n" % (", ".join(names), body))
    namespace = {"Var": Var, "Struct": Struct, "_open": _open,
                 "_const": _const}
    exec(compile(source, "<clause>", "exec"), namespace)
    return namespace["make"]


def _open(g, name, n):
    """What a head compound term with this name and arity meets in the
    goal: the goal term's argument list, an unbound variable, or None
    when neither."""
    while type(g) is Var:
        if g.ref is None:
            return g
        g = g.ref
    if type(g) is Struct and g.name == name and len(g.args) == n:
        return g.args
    return None


def _const(x, k, store):
    """Match a head constant against a goal term that is not it: bind an
    unbound variable, else compare atoms by identity, a `Breal` by its
    bounds and anything else by type and then value."""
    while type(x) is Var:
        if x.ref is None:
            return store.bind(x, k)
        x = x.ref
    ty = type(k)
    if x is k:
        return True
    if type(x) is not ty or ty is Atom:
        return False
    if ty is Breal:
        return x.lo == k.lo and x.hi == k.hi
    return x == k


class _Node:
    """A compound term met while generating code: its number ``j``, its
    name parameter, how many arguments are ``left`` to generate, the next
    argument's index ``k``, the expressions of its arguments as built,
    and the node it is an argument of (None for a head argument)."""

    __slots__ = ("j", "name", "left", "k", "vals", "parent")

    def __init__(self, j, name, left, parent):
        self.j = j
        self.name = name
        self.left = left
        self.k = 0
        self.vals = []
        self.parent = parent


def _is_compound(tok):
    return type(tok) is int and tok < 0


class _Codegen:
    """Writes the body of a clause function from a shape.

    Variables live in locals ``v<i>``, parameters are ``p<n>`` (items of
    the tuple ``P`` beyond the first `_CELLS`), and each compound term
    has a number ``j``.  The code is flat: whatever the size of the
    terms, no statement nests deeper than a few levels, and no
    expression holds more than one compound term.

    The head is matched against the goal's arguments in place.  A first
    occurrence takes the goal subterm as it is, a later one unifies with
    it, and a constant is matched by `_const` unless the goal subterm is
    that very constant.  A compound term takes what it meets from
    `_open`: against a compound goal term it is matched argument by
    argument; against an unbound variable it is built and bound with one
    ``bind``, and its arguments are not matched.  A compound term whose
    arguments are all variables and constants is done in one ``if``.
    Any other keeps its choice in ``m<j>`` (True when matched) and what
    it met in ``s<j>``; its arguments are generated after it, each for
    both choices, and it is built into ``t<j>`` after its last argument.
    Fresh variables are made and the copy hook called in prefix order,
    as a recursive build would.  The body is built after the head
    matched, one statement per compound term below a goal."""

    def __init__(self, shape):
        self.shape = shape
        self.pos = 0
        self.lines = []
        self.np = 0  # parameters used
        self.nv = 0  # variables numbered
        self.nj = 0  # compound terms numbered

    def emit(self, depth, text):
        self.lines.append("    " * depth + text)

    def take(self):
        self.pos += 1
        return self.shape[self.pos - 1]

    def param(self):
        n = self.np
        self.np += 1
        return "p%d" % n if n < _CELLS else "P[%d]" % (n - _CELLS)

    def leaf(self, tok):
        """A variable or constant token as (kind, variable, parameter)."""
        if tok == "F" or tok == "A":
            self.nv += 1
            return tok, "v%d" % (self.nv - 1), tok == "A" and self.param()
        if type(tok) is int:
            return "again", "v%d" % tok, None
        return "const", None, self.param()

    def match_leaf(self, d, leaf, src):
        kind, v, p = leaf
        if kind == "F" or kind == "A":
            self.emit(d, "%s = %s" % (v, src))
            return
        if kind == "again":
            self.emit(d, "if not store.unify(%s, %s):" % (v, src))
        else:
            self.emit(d, "if %s is not %s and not _const(%s, %s, store):"
                      % (src, p, src, p))
        self.emit(d + 1, "return False")

    def build_leaf(self, d, leaf):
        """Emit what building the leaf takes; return its expression."""
        kind, v, p = leaf
        if kind == "F" or kind == "A":
            self.emit(d, "%s = Var()" % v)
            if kind == "A":
                self.emit(d, "engine._copy_attr_hook(%s, %s)" % (p, v))
            return v
        return v if kind == "again" else p

    def clause(self):
        arity, ngoals = self.take(), self.take()
        roots = ["a%d" % k for k in range(arity)]
        self.head(roots)
        if arity:
            self.lines.insert(0, "        %s, = args" % ", ".join(roots))
        goals = [self.build(2) for _ in range(ngoals)]
        if not goals:
            self.emit(2, "return cont")
        else:
            for g in reversed(goals[1:]):
                self.emit(2, "cont = (%s, module, cut, cont)" % g)
            self.emit(2, "return (%s, module, cut, cont)" % goals[0])
        return "\n".join(self.lines)

    def head(self, roots):
        """Emit the matching of the head arguments, whose goal arguments
        are the locals ``roots``: a head argument that is a first
        occurrence renames its root instead."""
        node = _Node(None, None, len(roots), None)
        while node is not None:
            if not node.left:
                if node.j is not None:
                    self.close(node)
                node = node.parent
                continue
            k = node.k
            node.k += 1
            node.left -= 1
            tok = self.take()
            src = roots[k] if node.j is None else "s%d[%d]" % (node.j, k)
            if _is_compound(tok):
                node = self.open(node, src, -1 - tok) or node
                continue
            leaf = self.leaf(tok)
            if node.j is None:
                if leaf[0] == "F" or leaf[0] == "A":
                    roots[k] = leaf[1]
                else:
                    self.match_leaf(2, leaf, src)
                continue
            # this leaf and the leaves right after it, for both choices
            group = [(leaf, src)]
            while node.left and not _is_compound(self.shape[self.pos]):
                node.left -= 1
                group.append((self.leaf(self.take()),
                              "s%d[%d]" % (node.j, node.k)))
                node.k += 1
            self.emit(2, "if m%d:" % node.j)
            for leaf, src in group:
                self.match_leaf(3, leaf, src)
            self.emit(2, "else:")
            n = len(self.lines)
            for leaf, _ in group:
                node.vals.append(self.build_leaf(3, leaf))
            if len(self.lines) == n:  # constants and later occurrences
                self.lines.pop()

    def open(self, parent, src, n):
        """Emit the matching of a head compound of arity n met at ``src``.
        A compound whose arguments are all leaves is done here; for any
        other, return its node, whose arguments come next."""
        emit = self.emit
        name = self.param()
        j = self.nj
        self.nj += 1
        if any(map(_is_compound, self.shape[self.pos:self.pos + n])):
            emit(2, "s%d = _open(%s, %s, %d)%s" % (
                j, src, name, n,
                "" if parent.j is None else " if m%d else False" % parent.j))
            emit(2, "if s%d is None:" % j)
            emit(3, "return False")
            emit(2, "m%d = type(s%d) is list" % (j, j))
            return _Node(j, name, n, parent)
        d = 2 if parent.j is None else 3
        if d == 3:
            emit(2, "if m%d:" % parent.j)
        leaves = [self.leaf(self.take()) for _ in range(n)]
        emit(d, "s = _open(%s, %s, %d)" % (src, name, n))
        emit(d, "if s is None:")
        emit(d + 1, "return False")
        emit(d, "if type(s) is list:")
        for i, leaf in enumerate(leaves):
            self.match_leaf(d + 1, leaf, "s[%d]" % i)
        if not n:
            emit(d + 1, "pass")
        emit(d, "else:")
        built = "Struct(%s, [%s])" % (name, ", ".join(
            [self.build_leaf(d + 1, leaf) for leaf in leaves]))
        emit(d + 1, "if not store.bind(s, %s):" % built)
        emit(d + 2, "return False")
        if d == 3:
            emit(2, "else:")
            emit(3, "t%d = Struct(%s, [%s])" % (j, name, ", ".join(
                [self.build_leaf(3, leaf) for leaf in leaves])))
            parent.vals.append("t%d" % j)
        return None

    def close(self, node):
        """Emit the build of a head compound after its last argument, and
        its binding when it met an unbound variable."""
        j, parent = node.j, node.parent
        self.emit(2, "if not m%d:" % j)
        self.emit(3, "t%d = Struct(%s, [%s])" % (j, node.name,
                                               ", ".join(node.vals)))
        if parent.j is None:
            self.emit(3, "if not store.bind(s%d, t%d):" % (j, j))
        else:
            self.emit(3, "if m%d and not store.bind(s%d, t%d):"
                      % (parent.j, j, j))
            parent.vals.append("t%d" % j)
        self.emit(4, "return False")

    def build(self, d):
        """Emit the build of the next term; return its expression."""
        tok = self.take()
        if not _is_compound(tok):
            return self.build_leaf(d, self.leaf(tok))
        node = _Node(self.nj, self.param(), -1 - tok, None)
        self.nj += 1
        while True:
            if not node.left:
                expr = "Struct(%s, [%s])" % (node.name, ", ".join(node.vals))
                if node.parent is None:
                    return expr
                self.emit(d, "t%d = %s" % (node.j, expr))
                node.parent.vals.append("t%d" % node.j)
                node = node.parent
                continue
            node.left -= 1
            tok = self.take()
            if _is_compound(tok):
                node = _Node(self.nj, self.param(), -1 - tok, node)
                self.nj += 1
            else:
                node.vals.append(self.build_leaf(d, self.leaf(tok)))


#: the index key of every bounded real and every opaque value
_OTHER_KEY = ("other",)


def index_key(t):
    """The first-argument index key of a term; None for an unbound
    variable.  A compound term's key is its name and arity; an atom
    (interned), a string, an integer, a float and a rational are their
    own keys; bounded reals and opaque values share one key.  Terms that
    do not unify may have equal keys (``3``, ``3.0`` and ``3_1``), so a
    key may select too many clauses, never too few."""
    while type(t) is Var:
        if t.ref is None:
            return None
        t = t.ref
    ty = type(t)
    if ty is Struct:
        return (t.name, len(t.args))
    if ty is Atom or ty is int or ty is str or ty is float or ty is Fraction:
        return t
    return _OTHER_KEY


def first_arg_switch(clauses):
    """The first-argument switch over a predicate's clauses: a dict from
    each index key some clause has to the tuple of the clauses a goal
    with that key may match (every clause under None, the key of an
    unbound argument), and the tuple of the clauses whose first argument
    is a variable, which a goal with any other key may match."""
    table = {}
    rest = []
    for c in clauses:
        if c.key is None:
            rest.append(c)
            for tried in table.values():
                tried.append(c)
        else:
            tried = table.get(c.key)
            if tried is None:
                tried = table[c.key] = rest.copy()
            tried.append(c)
    table = {key: tuple(tried) for key, tried in table.items()}
    table[None] = tuple(clauses)
    return table, tuple(rest)
