"""Labeling search over finite integer domains.

indomain/1 enumerates the values of a domain variable in ascending
order, one choicepoint per value; labeling/1 applies it to a list in
input order.  labeling/2 takes a selection strategy as its first
argument: input_order, or first_fail (always label a variable with the
fewest remaining values next, which tends to hit dead ends early).

count_solutions/2 counts how often a goal succeeds without keeping the
bindings.  Like findall, it refuses to count when a solution leaves
goals suspended: the count would silently ignore unproven constraints.
"""

from __future__ import annotations

import math

from .errors import DomainError, TypeError_
from .ic import get_domain
from .solve import CutBarrier
from .terms import Atom, Var, deref, proper_list


def _finite_values(d):
    """Snapshot of an integral finite domain, ascending."""
    holes = d.holes or frozenset()
    return [v for v in range(int(d.lo), int(d.hi) + 1) if v not in holes]


def _require_finite(x):
    d = get_domain(x)
    if d is None or not d.integral or math.isinf(d.lo) or math.isinf(d.hi):
        raise DomainError("indomain: variable has no finite integer domain")
    return d


def _dom_size(x):
    d = get_domain(x)
    if d is None or math.isinf(d.lo) or math.isinf(d.hi):
        return math.inf
    n = int(d.hi) - int(d.lo) + 1
    return n - len(d.holes) if d.holes else n


def bi_indomain(engine, args, module):
    x = deref(args[0])
    if type(x) is not Var:
        if isinstance(x, int):
            return True
        raise TypeError_("indomain: not an integer variable: %r" % (x,))
    values = _finite_values(_require_finite(x))

    def gen():
        store = engine.store
        mark = store.push_choicepoint()
        for v in values:
            store.backtrack_to(mark)
            if store.bind(x, v):
                yield
        store.drop_to(mark)
    return gen()


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

    def pick(pending):
        """-> (var, rest) or None when everything is instantiated."""
        live = [(i, v) for i, (_, t) in enumerate(pending)
                for v in (deref(t),) if type(v) is Var]
        if not live:
            return None
        if dynamic:
            i, v = min(live, key=lambda iv: (_dom_size(iv[1]), pending[iv[0]][0]))
        else:
            i, v = live[0]
        return v, live, i

    def label(pending):
        # pending: [(input position, term)]
        picked = pick(pending)
        if picked is None:
            yield
            return
        v, live, i = picked
        rest = [pending[j] for j, _ in live if j != i]
        values = _finite_values(_require_finite(v))
        store = engine.store
        mark = store.push_choicepoint()
        for val in values:
            store.backtrack_to(mark)
            if not store.bind(v, val):
                continue
            if not engine.drain():
                continue
            yield from label(rest)
        store.drop_to(mark)

    return label(list(enumerate(items)))


def bi_count_solutions(engine, args, module):
    goal = args[0]
    store = engine.store
    mark = store.push_choicepoint()
    watermark = engine._sid
    n = 0
    for _ in engine.solve(goal, module, CutBarrier()):
        engine.check_floundering(
            watermark, module, "count_solutions: a solution left goals delayed")
        n += 1
    store.drop_to(mark)
    return store.unify(args[1], n)


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
    engine.load(_SEARCH_PRELUDE, module=ic, filename="<search>")
