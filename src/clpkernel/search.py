"""Labeling search over finite integer domains.

indomain/1 and labeling/1,2 bind variables to their values in ascending
order, one choicepoint per variable (`_label`), and return to the
resolution loop after each binding, so propagation runs before the next
variable is picked.  labeling/2 takes a selection strategy first:
input_order, or first_fail (label a variable with the fewest remaining
values next, which tends to hit dead ends early).  An int item counts as
labelled and any other item that is not a variable is a type error,
which labeling/2 raises when it is called.  The values are
enumerated lazily from a snapshot of the domain's bounds and holes,
never built as a list, so labeling a domain costs the values it tries
and the holes it skips, not its width.

count_solutions/2 counts how often a goal succeeds without keeping the
bindings.  Like findall, it refuses to count when a solution leaves
goals suspended: the count would silently ignore unproven constraints.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import filterfalse

from .builtins import all_solutions
from .clauses import read_prelude
from .errors import DomainError, TypeError_
from .ic import get_domain
from .terms import Atom, Var, deref, proper_list, show


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


def _require_finite(d):
    """d, the domain of a variable to label, if it is integral and finite."""
    if d is None or not d.integral or d.lo == -math.inf or d.hi == math.inf:
        raise DomainError("indomain: variable has no finite integer domain")
    return d


def _dom_size(x):
    d = get_domain(x)
    if d is None or d.lo == -math.inf or d.hi == math.inf:
        return math.inf
    return _size(int(d.lo), int(d.hi), d.holes)


def _pick(items, start, dynamic):
    """(next variable to label, the next pick's ``start``), or None when
    all terms are instantiated.  The items before ``start`` are
    instantiated.  In input order the pick is the first free item, and
    the next pick starts after it.  In first-fail order it is the first
    with the smallest domain, and the next pick starts at the first free
    item, since everything before it stays bound for the rest of the
    branch.  The scan reads each domain from the variable's attributes
    and stops at the first of size 2, the least a free variable can have.
    A variable without an integral domain counts as infinitely large, and
    so does an integral one with an infinite bound, so either is picked
    only when no free variable has a finite integral domain, and labeling
    it raises a DomainError."""
    best = first = None
    for i in range(start, len(items)):
        v = deref(items[i])
        if type(v) is Var:
            if not dynamic:
                return v, i + 1
            if first is None:
                first = i
            d = v.attrs.get("ic")
            if d is None or not d.integral:
                size = math.inf
            else:
                size = d.hi - d.lo + 1 - len(d.holes)
                if size == 2:
                    return v, first
            if best is None or size < best_size:
                best, best_size = (v, first), size
    return best


def _label(engine, items, dynamic, start, cont):
    """The step indomain/1 and labeling/2 return, partly applied: label
    the terms of ``items`` from position ``start`` on.  A variable's mark
    is its level, whose ``alt`` is `_next_value` over the variable and its
    values left; each value goes back to the loop, which runs the goals it
    woke before this step picks the next variable."""
    picked = _pick(items, start, dynamic)
    if picked is None:
        return cont
    v, start = picked
    values = iter(_finite_values(_require_finite(v.attrs.get("ic"))))
    m = engine.store.push_choicepoint()  # after the pick: see `store`
    m.alt = partial(_next_value, engine, v, values,
                    partial(_label, engine, items, dynamic, start))
    m.cont = cont
    return m.alt(m)


def _next_value(engine, v, values, step, mark):
    """Bind v to its next value and go on with ``step``, the labeling of
    the rest; False, with the mark dropped, when no value is left."""
    store = engine.store
    for val in values:
        store.backtrack_to(mark)
        if store.bind(v, val):
            return step, None, 0, mark.cont
    store.drop_to(mark)
    return False


def _labelled(x):
    """Whether the dereferenced item x of a labeling is labelled already:
    it is an int.  A variable is not, and any other term is a TypeError_."""
    if type(x) is Var:
        return False
    if type(x) is int:
        return True
    raise TypeError_("indomain: not an integer variable: %s" % show(x))


def bi_indomain(engine, args, module):
    x = deref(args[0])
    if _labelled(x):
        return True
    return partial(_label, engine, [x], False, 0), module


#: labeling/2 strategies: is the next variable picked by domain size?
_STRATEGIES = {"input_order": False, "first_fail": True, "ff": True}


def bi_labeling2(engine, args, module):
    method = deref(args[0])
    if not isinstance(method, Atom):
        raise TypeError_("labeling: strategy must be an atom")
    dynamic = _STRATEGIES.get(method.name)
    if dynamic is None:
        raise DomainError("labeling: unknown strategy %s" % method.name)
    items = proper_list(args[1])
    if items is None:
        raise TypeError_("labeling: needs a proper list of variables")
    for x in items:
        _labelled(deref(x))
    return partial(_label, engine, items, dynamic, 0), module


def bi_count_solutions(engine, args, module):
    return all_solutions(engine, args[0], module, None, args[1],
                         "count_solutions: a solution left goals delayed")


_SEARCH_SOURCE = """
:- export(labeling/1).

labeling([]).
labeling([X|Xs]) :-
    indomain(X),
    labeling(Xs).
"""
_SEARCH_PRELUDE = read_prelude(_SEARCH_SOURCE)


def install(engine):
    ic = engine.ic
    engine.add_builtin(ic, "indomain", 1, bi_indomain)
    engine.add_builtin(ic, "labeling", 2, bi_labeling2)
    engine.add_builtin(ic, "count_solutions", 2, bi_count_solutions)
    engine._load_prelude(_SEARCH_PRELUDE, ic)
