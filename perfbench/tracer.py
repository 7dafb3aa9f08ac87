"""Per-layer counts and self times, taken by wrapping the engine from outside.

A layer is a module of ``clpkernel``.  Inside ``with Tracer() as t:``
chosen functions of each layer are replaced by wrappers that count calls,
note outcomes and time a span.  The wrappers keep a span stack, so a
layer's self time is its spans' time minus the time of the spans they
enclose.  A module-level function is replaced in every ``clpkernel``
module that imported it by name.  Builtins and attribute handlers are
captured when an engine registers them, so the engine must be created
inside the ``with`` block.

What is left unwrapped falls to whatever span encloses it: the bodies of
``Engine.solve`` and the other resolution generators (their frames
suspend, so they cannot hold a span), the ``builtins`` module, and
``fractions`` (its operators are timed by a separate cProfile pass).
``Engine.solve`` is counted but not timed, and the solve layer's self time
is computed by the caller as the rest of the traced time.  Each span
includes the tracer's own bookkeeping for that call.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import Counter
from types import GeneratorType

from clpkernel import (arith, attvar, expand, ic, reader, search, solve,
                       store, susp, terms, writer)

LAYERS = ("reader", "expand", "solve", "terms", "store", "susp", "attvar",
          "arith", "ic", "search", "writer")

_deref = terms.deref
_get_domain = ic.get_domain


class _Trail(list):
    """The store's trail, counting entries by kind as they are pushed and
    the entries undone as they are popped."""

    __slots__ = ("counts",)

    def append(self, entry):
        self.counts["store.trail." + entry[0]] += 1
        list.append(self, entry)

    def pop(self, *index):
        self.counts["store.unwound"] += 1
        return list.pop(self, *index)


class _Values(list):
    """The value list a labeling step iterates; counts each value taken."""

    __slots__ = ("tracer",)

    def __iter__(self):
        for v in list.__iter__(self):
            self.tracer.value_taken()
            yield v


def _domain_state(x):
    x = _deref(x)
    if type(x) is not terms.Var:
        return x
    d = _get_domain(x)
    return None if d is None else (d.lo, d.hi, d.integral, d.holes)


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.self_s = Counter()
        self._stack = []
        self._patches = []
        self._narrowing_depth = 0
        self._value_pending = False
        self._drain_pending = False

    # ------------------------------------------------------------------
    # installing and removing the wrappers

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self):
        for module, name, layer, kw in (
                (reader, "tokenize", "reader", {}),
                (expand, "expand_clause", "expand", {}),
                (terms, "copy_term", "terms", {"count": "terms.copy_term.calls"}),
                (arith, "eval_arith", "arith", {"count": "arith.eval.calls"}),
                (arith, "compare_numeric", "arith", {}),
                (search, "_finite_values", "search", {"leave": self._values}),
                (search, "_dom_size", "search", {}),
                (search, "_require_finite", "search", {}),
                (writer, "write_term", "writer", {"leave": self._written}),
        ):
            self._patch_function(module, name, self._span(
                layer, getattr(module, name), **kw))
        for name in ("impose_min", "impose_max", "exclude_value",
                     "impose_integrality"):
            self._patch_function(ic, name, self._narrowing(getattr(ic, name)))

        Parser, Engine, Store, Scheduler = (reader.Parser, solve.Engine,
                                            store.Store, susp.Scheduler)
        for cls, name, layer, kw in (
                (Parser, "read_clause", "reader", {"count": "reader.clauses"}),
                (Parser, "parse", "reader", {}),
                (Engine, "drain", "solve", {"count": "solve.drain.calls",
                                            "enter": self._drain_enter,
                                            "leave": self._drain_leave}),
                (Store, "unify", "store", {"count": "store.unify.calls",
                                           "leave": self._unified}),
                (Store, "bind", "store", {"count": "store.bind.calls",
                                          "enter": self._bind_enter,
                                          "leave": self._bind_leave}),
                (Store, "trail_value", "store",
                 {"count": "store.trail_value.calls"}),
                (Store, "push_choicepoint", "store",
                 {"count": "store.choicepoints"}),
                (Store, "backtrack_to", "store", {"count": "store.backtracks"}),
                (Store, "commit_to", "store", {}),
                (Store, "drop_to", "store", {}),
                (Store, "set_slot", "store", {}),
                (Store, "register_undo", "store", {}),
                (Store, "set_arg", "store", {}),
                (Store, "unifiable", "store", {}),
                (Scheduler, "schedule", "susp", {"enter": self._queued,
                                                 "leave": self._scheduled}),
                (Scheduler, "pop_runnable", "susp",
                 {"count": "susp.pop.calls", "leave": self._popped}),
        ):
            self._patch(cls, name, self._span(layer, getattr(cls, name), **kw))
        self._patch(Engine, "solve", self._counted("solve.goals", Engine.solve))
        self._patch(Engine, "add_builtin", self._registering_builtins(
            Engine.add_builtin))
        self._patch(attvar.AttributeRegistry, "register",
                    self._registering_hooks(attvar.AttributeRegistry.register))
        self._patch(Store, "__init__", self._counting_trail(Store.__init__))

    def __exit__(self, *exc):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        return False

    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _patch_function(self, module, name, wrapper):
        """Replace a function in its module and wherever it was imported
        by name into another clpkernel module."""
        original = getattr(module, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "clpkernel" or mod_name.startswith("clpkernel."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    # ------------------------------------------------------------------
    # wrappers

    def _span(self, layer, fn, count=None, enter=None, leave=None):
        """Time fn as a span of the layer; ``enter(args)`` runs first and
        ``leave(token, result, args)`` may replace the result."""
        stack, self_s, counts = self._stack, self.self_s, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                if count is not None:
                    counts[count] += 1
                token = enter(args) if enter is not None else None
                result = fn(*args, **kwargs)
                if leave is not None:
                    result = leave(token, result, args)
                return result
            finally:
                dt = clock() - t0
                self_s[layer] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
        return wrapper

    def _counted(self, count, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[count] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _resumed(self, layer, gen):
        """Time each resumption of a generator as a span of the layer."""
        stack, self_s, clock = self._stack, self.self_s, time.perf_counter
        try:
            while True:
                stack.append(0.0)
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    self_s[layer] += dt - stack.pop()
                    if stack:
                        stack[-1] += dt
                yield item
        finally:
            gen.close()

    def _narrowing(self, fn):
        """ic narrowing operations (engine, x, ...): count the outermost
        calls that changed x's domain or emptied it."""
        span = self._span("ic", fn)
        counts = self.counts

        def wrapper(engine, x, *rest):
            outermost = self._narrowing_depth == 0
            before = _domain_state(x) if outermost else None
            self._narrowing_depth += 1
            try:
                ok = span(engine, x, *rest)
            finally:
                self._narrowing_depth -= 1
            if outermost:
                if not ok:
                    counts["ic.wipeouts"] += 1
                elif _domain_state(x) != before:
                    counts["ic.narrowings"] += 1
            return ok
        return wrapper

    def _registering_builtins(self, add_builtin):
        """Wrap ic builtins (posts and woken demon runs) and the search
        builtins (whose generators are timed per resumption) as they are
        registered.  count_solutions is left alone: it runs a whole
        sub-search, which belongs to the layers it calls."""
        def wrapper(engine, module, name, arity, fn, exported=True):
            owner = getattr(fn, "__module__", None)
            if owner == ic.__name__:
                fn = self._span("ic", fn, enter=self._ic_enter,
                                leave=self._ic_leave)
            elif owner == search.__name__ and fn is not search.bi_count_solutions:
                fn = self._span("search", fn, leave=self._search_leave)
            return add_builtin(engine, module, name, arity, fn, exported)
        return wrapper

    def _registering_hooks(self, register):
        def wrapper(registry, spec):
            if spec.unify is not None:
                spec = dataclasses.replace(spec, unify=self._span(
                    "attvar", spec.unify, count="attvar.hook.calls"))
            return register(registry, spec)
        return wrapper

    def _counting_trail(self, init):
        counts = self.counts

        def wrapper(st, *args, **kwargs):
            init(st, *args, **kwargs)
            st.trail = _Trail(st.trail)
            st.trail.counts = counts
        return wrapper

    # ------------------------------------------------------------------
    # outcome hooks

    def _unified(self, token, ok, args):
        if not ok:
            self.counts["store.unify.fails"] += 1
        return ok

    def _queued(self, args):
        return sum(map(len, args[0].buckets))

    def _scheduled(self, queued, result, args):
        self.counts["susp.scheduled"] += sum(map(len, args[0].buckets)) - queued
        return result

    def _popped(self, token, s, args):
        if s is not None:
            self.counts["susp.pop.hits"] += 1
        return s

    def _ic_enter(self, args):
        engine, bargs = args[0], args[1]
        s = engine.current_suspension
        if s is not None and getattr(s.goal, "args", None) is bargs:
            self.counts["ic.runs"] += 1
            return self.counts["ic.narrowings"] + self.counts["ic.wipeouts"]
        self.counts["ic.posts"] += 1
        return None

    def _ic_leave(self, before, ok, args):
        if before is not None and (
                not ok or self.counts["ic.narrowings"]
                + self.counts["ic.wipeouts"] != before):
            self.counts["ic.useful_runs"] += 1
        return ok

    def _search_leave(self, token, result, args):
        if isinstance(result, GeneratorType):
            return self._resumed("search", result)
        return result

    def _values(self, token, values, args):
        self.counts["search.values_materialised"] += len(values)
        out = _Values(values)
        out.tracer = self
        return out

    def value_taken(self):
        """A labeling step took the next value; its bind comes next."""
        self.counts["search.values_tried"] += 1
        self._value_pending = True

    def _bind_enter(self, args):
        pending, self._value_pending = self._value_pending, False
        return pending

    def _bind_leave(self, pending, ok, args):
        # a labeling value that binds is judged by the drain that follows
        if pending and ok:
            self._drain_pending = True
        return ok

    def _drain_enter(self, args):
        pending, self._drain_pending = self._drain_pending, False
        return pending

    def _drain_leave(self, pending, ok, args):
        if pending and ok:
            self.counts["search.values_ok"] += 1
        return ok

    def _written(self, token, text, args):
        self.counts["writer.chars"] += len(text)
        return text
