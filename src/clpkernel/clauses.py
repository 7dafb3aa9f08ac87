"""User clauses and predicates compiled to Python functions.

After the compiled code of Warren's abstract machine, every clause runs
as a Python function that matches its head against a goal's arguments
and builds its body (`Clause`).  The functions are generated from Python
source, once per clause shape in a process, so clauses that differ only
in their names and constants share one piece of code.  A predicate runs
as one more function, its code (`pred_code`).  The code of a predicate
of one clause runs that clause, inline unless it is long, with no
switch: there is nothing to choose.  The code of a predicate of several
clauses switches on the goal's first argument as WAM's
``switch_on_term`` does: it tests a few keys in a chain, or reads many
from a dict, and enters the candidate clauses; a single candidate whose
key the chain tested runs inline, its first argument matched from what
the test proved.  The code of a predicate also resolves the calls of the
clause it inlines: a body goal that names a predicate of the same
module, with clauses and no builtin, and is no control construct,
becomes a cell holding that `Pred` and the goal's arguments, and no goal
term is built.  A clause's own function resolves nothing, as every
engine that loads a prelude shares it.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalError
from .reader import read_terms
from .terms import (NO_ATTRS, TRUE, Atom, Breal, Struct, Var, deref,
                    flatten_conj, show)


class Clause:
    """A user clause, compiled to a Python function on its first call.

    When the clause is added, one walk over its terms (`_compile`) takes
    its *shape*, a tuple that says everything about the clause except the
    values in it, its parameters, those values: functor names, constants
    and the attributed variables, and ``calls``, the call site of each
    body goal: the name and arity of the predicate it may call and the
    index of the parameter that holds its name (an atom goal's atom), or
    None for a variable, another constant or a control construct.  The
    body's top-level conjunction is split into goals there and ``true``
    dropped.  The clause is a snapshot taken when it is added, as ISO
    ``assert`` does: later bindings of its variables do not change it.
    ``key`` is the first-argument index key (None for a variable).

    The first call makes ``fn``: the factory generated for the shape
    (`_factory`, once per shape in a process) is called with the
    parameters.  The shape, parameters and call sites are kept, as the
    code of the clause's predicate may inline the clause and resolve its
    calls (`pred_code`).  ``fn(args, engine, store, module, cut, cont)``
    matches the head against the goal's arguments and returns False or
    the body's continuation: one ``(goal, module, cut, next)`` cell per
    goal, ending in ``cont``.  ``store`` is the engine's.  Goals the head
    match woke run in `Engine.solve`, before the first body goal.  An
    attributed variable of the clause is copied with
    ``engine._copy_attr_hook``.
    """

    __slots__ = ("key", "shape", "params", "calls", "fn")

    def __init__(self, head, body):
        h = deref(head)
        args = h.args if type(h) is Struct else ()
        self.key = index_key(args[0]) if args else None
        self.shape, self.params, self.calls = _compile(args, body)
        self.fn = None

    def compile(self):
        """Make and return ``fn``."""
        fn = self.fn = _cached(_FACTORIES, self.shape, _factory)(*self.params)
        return fn


def _compile(args, body):
    """The shape, the parameters and the call sites of a clause with head
    arguments ``args``.  The shape is the head's arity, the number of body
    goals, then the tokens of the head arguments and of the goals, each
    term in prefix order: a compound term of arity n is ``-1 - n`` (its
    name a parameter), a variable's first occurrence ``"F"`` (``"A"``,
    with the variable as a parameter, if it has attributes), a later
    occurrence the variable's number, and a constant ``"K"`` (its value a
    parameter).  Variables are numbered by first occurrence, head then
    body.  The call sites are those of `Clause.calls`, one per goal."""
    goals = [g for g in flatten_conj(body) if g is not TRUE]
    shape = [len(args), len(goals)]
    params = []
    calls = []
    slots = {}
    for k, root in enumerate((*args, *goals)):
        if k >= len(args):  # goals are dereferenced by flatten_conj
            ty = type(root)
            key = ((root.name, len(root.args)) if ty is Struct
                   else (root.name, 0) if ty is Atom else None)
            calls.append(None if key is None or key in _CONTROL
                         else (*key, len(params)))
        stack = [root]
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
    return tuple(shape), params, calls


#: the control constructs, which `Engine.solve` runs itself whatever a
#: module defines
_CONTROL = frozenset({(",", 2), (";", 2), ("->", 2), ("!", 0), ("true", 0),
                      ("fail", 0), ("false", 0)})


#: the factories of the clause shapes generated in this process, oldest
#: first.  It holds code only: no clause, term or predicate.
_FACTORIES = {}

#: each factory cache keeps at most this many shapes: a process that makes
#: clauses of ever new shapes would otherwise keep code without bound.  A
#: whole tier-1 test run makes about 2,400 clause and 2,000 predicate
#: shapes.
CACHE_CAP = 4096


def _cached(cache, shape, build):
    """The factory of shape in cache, built by build(shape) and added when
    missing, after dropping the oldest entries of a full cache."""
    make = cache.get(shape)
    if make is None:
        while len(cache) >= CACHE_CAP:
            del cache[next(iter(cache))]
        make = cache[shape] = build(shape)
    return make

#: parameters beyond this many are read from a tuple: compiling a closure
#: over thousands of cells takes time superlinear in their number
_CELLS = 64


def _factory(shape):
    """Generate, compile and return the factory for clauses of a shape:
    called with a clause's parameters, it returns the clause's function."""
    gen = _Codegen(shape)
    return _make(gen, [], "clause(args, engine, store, module, cut, cont)",
                 gen.clause())


def _make(gen, names, header, body):
    """Compile the factory of a function with this header and body, whose
    parameters are ``names`` and those ``gen`` numbered."""
    names = names + ["p%d" % i for i in range(min(gen.np, _CELLS))]
    if gen.np > _CELLS:
        names.append("*P")
    name = header[:header.index("(")]
    source = ("def make(%s):\n"
              "    def %s:\n"
              "%s\n"
              "    return %s\n" % (", ".join(names), header, body, name))
    namespace = {"Var": Var, "Struct": Struct, "Fraction": Fraction,
                 "NO_ATTRS": NO_ATTRS, "_open": _open, "_const": _const,
                 "_KEYED": _KEYED, "enter": enter}
    exec(compile(source, "<%s>" % name, "exec"), namespace)
    return namespace["make"]


def _open(g, name, n):
    """What a head compound term with this name and arity, below another
    head compound term, meets in the goal: the goal term's argument list,
    an unbound variable, or None when neither.  The code matches a
    compound met at the top of a head argument in place
    (`_Codegen.open`)."""
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
    the node it is an argument of (None for a head argument), and whether
    its arguments are matched only when ``m<j>`` says it met a compound
    term (``cond``): not so for the head's arguments, nor for a first
    argument whose key the predicate's code has tested."""

    __slots__ = ("j", "name", "left", "k", "vals", "parent", "cond")

    def __init__(self, j, name, left, parent, cond=True):
        self.j = j
        self.name = name
        self.left = left
        self.k = 0
        self.vals = []
        self.parent = parent
        self.cond = cond


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
    that very constant.  A compound term is matched against a compound
    goal term argument by argument; against an unbound variable it is
    built and bound once, and its arguments are not matched.  One met at
    a head argument, or at an argument of a first argument whose key the
    predicate's code has tested, is matched by the code itself, as WAM's
    ``get_structure`` is: it dereferences the goal term, tests its name
    and arity, and binds a variable by `bind`, in place when the variable
    has no attributes.  One below another compound term takes what it
    meets from `_open` and binds with ``store.bind``: matching those in
    place too would add the same dozen lines at every level, and a
    clause's first call, most of it CPython's ``compile()``, pays for
    every line.  A compound term whose arguments are all variables and
    constants is done in one statement.  Any other keeps its choice in
    ``m<j>`` (True when matched) and what it met in ``s<j>``; its
    arguments are generated after it, each for both choices, and it is
    built into ``t<j>`` after its last argument.
    Fresh variables are made and the copy hook called in prefix order,
    as a recursive build would.  The body is built after the head
    matched, one statement per compound term below a goal.

    Inlined in a predicate's code that has tested the first argument's
    key, a clause skips that argument's constant, and reads a compound
    term's arguments from the goal term with no `_open`; its own
    arguments need no ``m<j>``, as it cannot meet a variable."""

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

    def match_args(self, d, leaves, src):
        """Emit the match of a compound's leaf arguments against the
        items of the list ``src``."""
        if leaves and all(kind == "F" or kind == "A" for kind, _, _ in leaves):
            self.emit(d, "%s, = %s" % (", ".join([v for _, v, _ in leaves]),
                                       src))
            return
        if src != "s":
            self.emit(d, "s = %s" % src)
        for i, leaf in enumerate(leaves):
            self.match_leaf(d, leaf, "s[%d]" % i)
        if not leaves:
            self.emit(d, "pass")

    def build_leaf(self, d, leaf):
        """Emit what building the leaf takes; return its expression."""
        kind, v, p = leaf
        if kind == "F" or kind == "A":
            self.emit(d, "%s = Var()" % v)
            if kind == "A":
                self.emit(d, "engine._copy_attr_hook(%s, %s)" % (p, v))
            return v
        return v if kind == "again" else p

    def clause(self, first=None, inline=False, resolved=()):
        """The body of a clause function.  ``inline`` for a clause inlined
        in its predicate's code, which computes the cut height itself;
        ``first`` is then the local holding the goal's first argument,
        dereferenced, when the code has tested that it has the key of the
        head's first argument, and ``resolved`` the positions of the body
        goals whose name parameter holds the predicate they call: each
        becomes a resolved cell ``(pred, args, None, next)``."""
        arity, ngoals = self.take(), self.take()
        roots = ["a%d" % k for k in range(arity)]
        if first is not None:
            roots[0] = first
        self.head(roots, first is not None)
        if first is not None:
            roots[0] = "_"
        if roots and roots != ["_"]:
            self.lines.insert(0, "        %s, = args" % ", ".join(roots))
        if inline and len(resolved) < ngoals:
            self.emit(2, "cut = len(store.choicepoints)")
        cells = [self.build(2, True) + ", None" if k in resolved
                 else self.build(2) + ", module, cut"
                 for k in range(ngoals)]
        if not cells:
            self.emit(2, "return cont")
        else:
            for cell in reversed(cells[1:]):
                self.emit(2, "cont = (%s, cont)" % cell)
            self.emit(2, "return (%s, cont)" % cells[0])
        return "\n".join(self.lines)

    def head(self, roots, proven=False):
        """Emit the matching of the head arguments, whose goal arguments
        are the locals ``roots``: a head argument that is a first
        occurrence renames its root instead.  When ``proven``, the first
        goal argument has the first head argument's key: a constant there
        is matched already, and a compound term's arguments are read from
        it directly."""
        node = _Node(None, None, len(roots), None, False)
        while node is not None:
            if not node.left:
                if node.cond:
                    self.close(node)
                node = node.parent
                continue
            k = node.k
            node.k += 1
            node.left -= 1
            tok = self.take()
            src = roots[k] if node.j is None else "s%d[%d]" % (node.j, k)
            if _is_compound(tok):
                node = self.open(node, src, -1 - tok, proven) or node
                proven = False
                continue
            leaf = self.leaf(tok)
            if not node.cond:
                if node.j is None and (leaf[0] == "F" or leaf[0] == "A"):
                    roots[k] = leaf[1]
                elif not proven:
                    self.match_leaf(2, leaf, src)
                proven = False
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

    def open(self, parent, src, n, proven=False):
        """Emit the matching of a head compound of arity n met at ``src``.
        A compound whose arguments are all leaves is done here; for any
        other, and for one met at a ``proven`` compound goal term, return
        its node, whose arguments come next.  One met where no ``m<j>``
        guards it (``parent.cond`` false) is matched in place."""
        emit = self.emit
        name = self.param()
        j = self.nj
        self.nj += 1
        nested = any(map(_is_compound, self.shape[self.pos:self.pos + n]))
        if proven and nested:
            emit(2, "s%d = %s.args" % (j, src))
            return _Node(j, name, n, parent, False)
        if proven:
            self.match_args(2, [self.leaf(self.take()) for _ in range(n)],
                            src + ".args")
            return None
        if not parent.cond:
            s = "s%d" % j if nested else "s"
            emit(2, "%s = %s" % (s, src))
            emit(2, "while True:")
            emit(3, "if type(%s) is not Var:" % s)
            emit(4, "if type({0}) is not Struct or {0}.name != {1} "
                    "or len({0}.args) != {2}:".format(s, name, n))
            emit(5, "return False")
            if nested:
                emit(4, "%s = %s.args" % (s, s))
                emit(4, "m%d = True" % j)
            else:
                leaves = [self.leaf(self.take()) for _ in range(n)]
                self.match_args(4, leaves, "s.args")
            emit(4, "break")
            emit(3, "if %s.ref is None:" % s)
            if nested:
                emit(4, "m%d = False" % j)
            else:
                emit(4, "t = Struct(%s, [%s])" % (name, ", ".join(
                    [self.build_leaf(4, leaf) for leaf in leaves])))
                self.bind(4, s, "t")
            emit(4, "break")
            emit(3, "%s = %s.ref" % (s, s))
            return _Node(j, name, n, parent) if nested else None
        if nested:
            emit(2, "s%d = _open(%s, %s, %d) if m%d else False"
                 % (j, src, name, n, parent.j))
            emit(2, "if s%d is None:" % j)
            emit(3, "return False")
            emit(2, "m%d = type(s%d) is list" % (j, j))
            return _Node(j, name, n, parent)
        leaves = [self.leaf(self.take()) for _ in range(n)]
        emit(2, "if m%d:" % parent.j)
        emit(3, "s = _open(%s, %s, %d)" % (src, name, n))
        emit(3, "if s is None:")
        emit(4, "return False")
        emit(3, "if type(s) is list:")
        self.match_args(4, leaves, "s")
        emit(3, "else:")
        emit(4, "if not store.bind(s, Struct(%s, [%s])):" % (name, ", ".join(
            [self.build_leaf(4, leaf) for leaf in leaves])))
        emit(5, "return False")
        emit(2, "else:")
        emit(3, "t%d = Struct(%s, [%s])" % (j, name, ", ".join(
            [self.build_leaf(3, leaf) for leaf in leaves])))
        parent.vals.append("t%d" % j)
        return None

    def bind(self, d, var, term):
        """Emit the binding of the unbound variable ``var`` to ``term``:
        in place when it has no attributes, trailed by `Store.bind`'s
        rule, written here once; else through ``store.bind``, so its
        hooks run."""
        self.emit(d, "if %s.attrs is NO_ATTRS:" % var)
        self.emit(d + 1, "%s.ref = %s" % (var, term))
        self.emit(d + 1, "if (cps := store.choicepoints) and "
                         "%s.serial <= cps[-1].var_serial:" % var)
        self.emit(d + 2, "store.trail.append((\"bind\", %s))" % var)
        self.emit(d, "elif not store.bind(%s, %s):" % (var, term))
        self.emit(d + 1, "return False")

    def close(self, node):
        """Emit the build of a head compound after its last argument, and
        its binding when it met an unbound variable."""
        j, parent = node.j, node.parent
        self.emit(2, "if not m%d:" % j)
        self.emit(3, "t%d = Struct(%s, [%s])" % (j, node.name,
                                               ", ".join(node.vals)))
        if not parent.cond:
            self.bind(3, "s%d" % j, "t%d" % j)
            return
        self.emit(3, "if m%d and not store.bind(s%d, t%d):"
                  % (parent.j, j, j))
        self.emit(4, "return False")
        parent.vals.append("t%d" % j)

    def build(self, d, call=False):
        """Emit the build of the next term; return its expression, or for
        a ``call`` the expressions of its name parameter and of its
        argument list."""
        tok = self.take()
        if not _is_compound(tok):
            if call:
                return "%s, ()" % self.param()
            return self.build_leaf(d, self.leaf(tok))
        node = _Node(self.nj, self.param(), -1 - tok, None)
        self.nj += 1
        while True:
            if not node.left:
                args = ", ".join(node.vals)
                if node.parent is None:
                    return ("%s, [%s]" if call else "Struct(%s, [%s])") % (
                        node.name, args)
                self.emit(d, "t%d = Struct(%s, [%s])" % (node.j, node.name,
                                                        args))
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

#: the types whose terms have keys of their own
_KEYED = frozenset({Struct, Atom, int, float, str, Fraction})


def index_key(t):
    """The first-argument index key of a term; None for an unbound
    variable.  A compound term's key is its name and arity, an atom
    (interned) is its own key, and a number or a string is keyed by its
    type and value, so ``3``, ``3.0`` and ``3_1`` have different keys, as
    head matching tells them apart; bounded reals and opaque values share
    one key."""
    while type(t) is Var:
        if t.ref is None:
            return None
        t = t.ref
    ty = type(t)
    if ty is Struct:
        return (t.name, len(t.args))
    if ty is Atom:
        return t
    if ty in _KEYED:
        return ty, t
    return _OTHER_KEY


def enter(engine, module, cands, i, args, cut, cont):
    """The continuation of the i-th of a call's candidate clauses, or
    False if its head does not match; a choicepoint to retry from the
    next candidate, if there is one, is pushed first.  Its ``alt`` keeps
    the call's tuple of candidates, so a clause added later is not tried
    by the call."""
    store = engine.store
    if i + 1 < len(cands):
        m = store.push_choicepoint()
        m.alt, m.cont = (module, cands, i + 1, args), cont
    c = cands[i]
    return (c.fn or c.compile())(args, engine, store, module, cut, cont)


#: predicates with more first-argument keys than this find a call's
#: candidate clauses in a dict; the others test the keys one by one
_CHAIN = 8

#: a single candidate clause with a longer shape is entered, not inlined
#: in its predicate's code: its code is made once, as the clause's own
_INLINE = 64

#: the factories of the predicate shapes generated in this process, oldest
#: first, at most `CACHE_CAP` of them.  It holds code only: no clause, term
#: or predicate.
_PREDS = {}

#: the test of a chain for a first-argument key of each type, on the
#: dereferenced goal argument ``x``; a compound key is tested by name and
#: arity, and None stands for the key bounded reals and opaque values share
_TESTS = {Atom: "x is {0}",
          int: "type(x) is int and x == {0}",
          float: "(x is {0} or type(x) is float and x == {0})",
          str: "type(x) is str and x == {0}",
          Fraction: "type(x) is Fraction and x == {0}",
          None: "type(x) not in _KEYED"}


def pred_code(pred):
    """Make the code of a predicate, keep it as ``pred.code`` and return
    it: ``code(args, engine, cont)`` returns the continuation of the
    call's first candidate clause, or False.

    A predicate of one clause runs it as a predicate without keys runs
    its clauses: inline when its shape is short, else entered, with no
    switch.  For several clauses, as Warren's ``switch_on_term``, the
    code selects the candidates by the goal's first argument: the clauses
    with its key (`index_key`) and those whose first argument is a
    variable, in source order, or every clause for an unbound argument.
    It enters them with `enter`, which pushes a retry mark when there are
    several.

    A predicate with up to `_CHAIN` keys tests them in a chain, each by
    its type and value; its code is generated from Python source once per
    predicate shape (`_PREDS`), like a clause's.  A single candidate with
    a short shape runs inline, and when the chain has tested its key the
    match of its first argument starts from what the test proved.  A
    predicate with more keys reads its candidates from a dict
    (`_indexed`).

    A body goal of an inlined clause is resolved when it names a
    predicate of the same module that has clauses and no builtin (its
    call site, `Clause.calls`): the `Pred` replaces the goal's name
    parameter, the shape records the goal's position, and the code
    builds the cell ``(pred, args, None, next)`` where it would build the
    goal term.  A predicate without clauses yet, which `add_builtin` may
    still take, is not resolved, nor a `PredName` goal."""
    clauses = pred.clauses
    table, rest = _switch(clauses)
    if len(table) > _CHAIN:
        code = pred.code = _indexed(pred.module, table, rest, tuple(clauses))
        return code
    shape = [pred.arity]
    params = []
    preds = pred.module.preds

    def run(cands):
        if not cands:
            shape.append(0)
        elif len(cands) > 1 or len(cands[0].shape) > _INLINE:
            shape.append(1)
            params.append(cands)
        else:
            c = cands[0]
            ps = list(c.params)
            resolved = []
            for k, call in enumerate(c.calls):
                # a PredName, a subclass of str, is no module's to resolve
                callee = call and type(call[0]) is str and preds.get(call[:2])
                if callee and callee.builtin is None and callee.clauses:
                    resolved.append(k)
                    ps[call[2]] = callee
            shape.append((c.shape, tuple(resolved)))
            params.extend(ps)

    run(tuple(clauses))
    if len(clauses) > 1 and table:
        for key, cands in table.items():
            if key is _OTHER_KEY:
                shape.append(None)
            elif type(key) is Atom:
                shape.append(Atom)
                params.append(key)
            elif key[0] in _TESTS:  # a number's or a string's type and value
                shape.append(key[0])
                params.append(key[1])
            else:  # a compound term's name and arity
                shape.append(key[1])
                params.append(key[0])
            run(cands)
        run(rest)
    make = _cached(_PREDS, tuple(shape), _pred_factory)
    code = pred.code = make(pred.module, *params)
    return code


def _switch(clauses):
    """The candidates of each first-argument key some clause has, in
    source order, and the clauses whose first argument is a variable,
    which a goal with any other key may match."""
    table = {}
    rest = []
    for c in clauses:
        key = c.key
        if key is None:
            rest.append(c)
            for cands in table.values():
                cands.append(c)
            continue
        cands = table.get(key)
        if cands is None:
            cands = table[key] = rest.copy()
        cands.append(c)
    return {key: tuple(cands) for key, cands in table.items()}, tuple(rest)


def _pred_factory(shape):
    """Generate, compile and return the factory for predicates of a
    shape: called with the module and the parameters, it returns the
    predicate's code.  The shape is the arity, the run of an unbound first
    argument (of every call when there is nothing to switch on), then, if
    the predicate has several clauses and some has a key, each key's test
    and run, and the run of a key no clause has.  A test is a type, an
    arity or None (`_TESTS`); a run is 0 (no candidate), 1 (a tuple of
    candidates, entered) or, for the one candidate inlined, its shape and
    the positions of its body goals resolved (`pred_code`)."""
    gen = _Codegen(shape)
    if len(shape) == 2:  # nothing to switch on
        _run(gen, 2, shape[1], False)
    else:
        gen.emit(2, "x = args[0]")
        gen.emit(2, "while type(x) is Var:")
        gen.emit(3, "if x.ref is None:")
        _run(gen, 4, shape[1], False)
        gen.emit(3, "x = x.ref")
        for i in range(2, len(shape) - 1, 2):
            test = shape[i]
            if test is None:
                gen.emit(2, "if %s:" % _TESTS[None])
            elif type(test) is int:
                gen.emit(2, "if type(x) is Struct and x.name == %s "
                            "and len(x.args) == %d:" % (gen.param(), test))
            else:
                gen.emit(2, "if %s:" % _TESTS[test].format(gen.param()))
            _run(gen, 3, shape[i + 1], test is not None)
        _run(gen, 2, shape[-1], False)
    return _make(gen, ["module"], "pred(args, engine, cont)",
                 "        store = engine.store\n" + "\n".join(gen.lines))


def _run(gen, d, run, proven):
    """Emit, at depth d, the code that enters a run's candidates (see
    `_pred_factory`): a clause inlined matches its first argument from
    ``x`` when ``proven``."""
    if run == 0:
        gen.emit(d, "return False")
    elif run == 1:
        gen.emit(d, "return enter(engine, module, %s, 0, args, "
                    "len(store.choicepoints), cont)" % gen.param())
    else:
        sub = _Codegen(run[0])
        sub.np = gen.np
        indent = "    " * (d - 2)
        gen.lines += [indent + line for line in sub.clause(
            "x" if proven else None, True, run[1]).split("\n")]
        gen.np = sub.np


def _indexed(module, table, rest, every):
    """The code of a predicate with more keys than a chain tests."""
    def pred(args, engine, cont):
        key = index_key(args[0])
        cands = every if key is None else table.get(key, rest)
        if not cands:
            return False
        return enter(engine, module, cands, 0, args,
                     len(engine.store.choicepoints), cont)
    return pred


#: the directives a prelude may hold, by name and arity
_DECLARATIONS = frozenset({("export", 1), ("local", 1), ("op", 3),
                           ("demon", 1), ("dynamic", 1),
                           ("discontiguous", 1)})


def read_prelude(text):
    """The steps of loading a library's Prolog source, read with the
    standard operators and no macros: ``(name, arity, Clause)`` for a
    clause, the directive term for a declaration.  The clauses are
    snapshots holding no live variable, so every engine adds the same
    ones (`Engine._load_prelude`).  Any other directive is refused: a
    goal could bind variables in terms all engines share."""
    steps = []
    for t, _, _ in read_terms(text):
        if type(t) is Struct and t.name == ":-" and len(t.args) == 1:
            d = t.args[0]
            if (type(d) is not Struct
                    or (d.name, len(d.args)) not in _DECLARATIONS):
                raise InternalError("a prelude directive must be a "
                                    "declaration, not a goal: %s" % show(d))
            steps.append(d)
            continue
        head, body = (t.args if type(t) is Struct and t.name == ":-"
                      and len(t.args) == 2 else (t, TRUE))
        arity = len(head.args) if type(head) is Struct else 0
        steps.append((head.name, arity, Clause(head, body)))
    return steps
