"""Labeling search over finite integer domains.

indomain/1 enumerates the values of a domain variable in ascending
order, one choicepoint per value; labeling/1 applies it to a list in
input order.  The values are enumerated lazily from a snapshot of the
domain's bounds and holes, never built as a list, so labeling a domain
costs the values it tries and the holes it skips, not the domain's
width.  labeling/2 takes a selection strategy as its first
argument: input_order, or first_fail (always label a variable with the
fewest remaining values next, which tends to hit dead ends early).

count_solutions/2 counts how often a goal succeeds without keeping the
bindings.  Like findall, it refuses to count when a solution leaves
goals suspended: the count would silently ignore unproven constraints.
"""

from __future__ import annotations

import math
from itertools import filterfalse

from .errors import DomainError, TypeError_
from .ic import get_domain
from .terms import Atom, Var, deref, proper_list


def _size(lo, hi, holes):
    """Values in lo..hi without the holes.  Holes lie strictly between lo
    and hi, so each of them removes exactly one value."""
    return hi - lo + 1 - len(holes)


class _Values:
    """The values of an integral finite domain with holes, ascending:
    sized, and never built.  Iteration filters the holes out of lo..hi
    lazily, so taking k values costs k plus the holes passed over."""

    __slots__ = ("lo", "hi", "holes")

    def __init__(self, lo, hi, holes):
        self.lo, self.hi, self.holes = lo, hi, holes

    def __len__(self):
        return _size(self.lo, self.hi, self.holes)

    def __iter__(self):
        return filterfalse(self.holes.__contains__, range(self.lo, self.hi + 1))


def _finite_values(d):
    """Snapshot of an integral finite domain, ascending: a range when it
    has no holes, else a _Values."""
    if d.holes:
        return _Values(int(d.lo), int(d.hi), d.holes)
    return range(int(d.lo), int(d.hi) + 1)


def _require_finite(x):
    d = get_domain(x)
    if d is None or not d.integral or math.isinf(d.lo) or math.isinf(d.hi):
        raise DomainError("indomain: variable has no finite integer domain")
    return d


def _dom_size(x):
    d = get_domain(x)
    if d is None or math.isinf(d.lo) or math.isinf(d.hi):
        return math.inf
    return _size(int(d.lo), int(d.hi), d.holes)


def _pick(pending, dynamic):
    """(next variable, other unbound ones) of the (input position, term)
    pairs, or None when all are instantiated."""
    live = [(i, v) for i, (_, t) in enumerate(pending)
            for v in (deref(t),) if type(v) is Var]
    if not live:
        return None
    if dynamic:
        i, v = min(live, key=lambda iv: (_dom_size(iv[1]), pending[iv[0]][0]))
    else:
        i, v = live[0]
    return v, [pending[j] for j, _ in live if j != i]


def _label(engine, pending, dynamic):
    """Yield each labeling of the pending variables, one choicepoint per
    variable.  The woken goals run before the next variable is picked;
    after the last one, whoever resumes the generator runs them.  The
    variables being labeled are a stack of (variable, values left, mark,
    variables after it) levels, so labeling adds no Python frame per
    variable."""
    store = engine.store
    levels = []
    picked = _pick(pending, dynamic)
    while True:
        if picked is None:
            yield
        else:
            v, rest = picked
            values = iter(_finite_values(_require_finite(v)))
            levels.append((v, values, store.push_choicepoint(), rest))
        while levels and not _next_value(engine, *levels[-1]):
            store.drop_to(levels.pop()[2])
        if not levels:
            return
        picked = _pick(levels[-1][3], dynamic)


def _next_value(engine, v, values, mark, rest):
    """Bind v to its next value after which, unless v is the last
    variable, the woken goals succeed; False when no value is left."""
    store = engine.store
    for val in values:
        store.backtrack_to(mark)
        if store.bind(v, val) and (not rest or engine.drain()):
            return True
    return False


def bi_indomain(engine, args, module):
    x = deref(args[0])
    if type(x) is not Var:
        if isinstance(x, int):
            return True
        raise TypeError_("indomain: not an integer variable: %r" % (x,))
    return _label(engine, [(0, x)], False)


def bi_labeling2(engine, args, module):
    method = deref(args[0])
    if not isinstance(method, Atom):
        raise TypeError_("labeling: strategy must be an atom")
    if method.name in ("first_fail", "ff"):
        dynamic = True
    elif method.name == "input_order":
        dynamic = False
    else:
        raise DomainError("labeling: unknown strategy %s" % method.name)
    items = proper_list(args[1])
    if items is None:
        raise TypeError_("labeling: needs a proper list of variables")
    return _label(engine, list(enumerate(items)), dynamic)


def bi_count_solutions(engine, args, module):
    watermark = engine._sid
    n = 0
    for _ in engine.solve(args[0], module):
        engine.check_floundering(
            watermark, module, "count_solutions: a solution left goals delayed")
        n += 1
    return engine.store.unify(args[1], n)


_SEARCH_PRELUDE = """
:- export(labeling/1).

labeling([]).
labeling([X|Xs]) :-
    indomain(X),
    labeling(Xs).
"""


def install(engine):
    ic = engine.ic
    engine.add_builtin(ic, "indomain", 1, bi_indomain)
    engine.add_builtin(ic, "labeling", 2, bi_labeling2)
    engine.add_builtin(ic, "count_solutions", 2, bi_count_solutions)
    engine._load_prelude(_SEARCH_PRELUDE, ic, "<search>")
