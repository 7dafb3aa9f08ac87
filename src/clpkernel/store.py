"""The mutable store: bindings, destructive updates, trailing, backtracking.

Three kinds of trail entries:

* ('bind', var)                  -- reset var.ref to None on unwind
* ('val', owner, slot, old)      -- restore a slot to its old value
* ('undo', closure)              -- run an arbitrary undo action

Bind entries are conditional, as in Warren's abstract machine: a binding
is trailed only when the variable is no newer than the youngest live
choicepoint, that is when its serial is at most the ``var_serial`` its
mark took at push time.  A mark takes that serial from the variables'
own counter (`terms.serials`), so it is above every older variable's
serial and below every newer one's.  A newer variable was made after
every live choicepoint, so nothing reachable after backtracking to one
of them can refer to it; resetting it would be wasted work, and
deterministic recursion, which binds mostly fresh variables, would grow
the trail without bound.  Without any choicepoint nothing is trailed.
Code that keeps a variable across a backtrack must make it before the
mark it backtracks to (`search._label` picks a variable, then pushes the
mark of its level).

Value entries carry timestamp-based deduplication: a slot is trailed at
most once per choicepoint segment.  Timestamps are a plain monotone
counter, bumped on every choicepoint push and on every backtrack to a
mark, which restarts the mark's segment under a fresh stamp.  So the
stamps of dead (popped or cut) choicepoints and of undone segments are
never reused, and a simple equality test decides "already trailed in
this segment".  Two places make that test inline
against the top choicepoint's stamp: `set_slot`, the write behind every
solver update, so a trailed write costs one Python call, and
`Scheduler.schedule` (susp.py), which reads the stamp once per call and
applies the rule to the ``state`` write of each suspension it queues.
`trail_value` applies the same rule for `set_arg`, which writes the
argument itself.  Undo entries are never deduplicated: the closures may
be non-idempotent.

An integer slot means ``owner.args[slot]`` (struct arguments); a string
slot means ``setattr(owner, slot, ...)``.  Owners participating in value
trailing carry a ``_stamps`` dict mapping slot -> stamp of the last trail
entry.  Unwinding an entry leaves its stamp in the dict: the stamp
belongs to an undone segment, so it equals no live stamp, and a later
update in the restarted segment re-trails correctly.

Unification lives here too, because it is the operation that creates most
trail entries.  A binding sets ``ref``, trails it and runs the unify
handlers of both sides' attributes (attvar.py), which do all the waking:
the store holds no scheduler.  The store is usable standalone; the
engine injects the attribute registry.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalError, RangeError, TypeError_
from .terms import Atom, Breal, Struct, Var, deref, serials, show


class Mark:
    """A choicepoint handle: trail length, unique timestamp, a serial
    between those of the variables made before and after its push, and
    the ``alt`` and ``cont`` of `Engine.solve` (None on a bare mark)."""

    __slots__ = ("trail_len", "stamp", "index", "var_serial", "alive", "alt",
                 "cont")

    def __init__(self, trail_len, stamp, index, var_serial):
        self.trail_len = trail_len
        self.stamp = stamp
        self.index = index
        self.var_serial = var_serial
        self.alive = True
        self.alt = None
        self.cont = None

    def __repr__(self):
        return "<cp #%d stamp=%d trail=%d%s>" % (
            self.index, self.stamp, self.trail_len, "" if self.alive else " dead")


class Store:
    def __init__(self):
        self.trail = []
        self.choicepoints = []
        self._stamp_counter = 0
        self.attr_registry = None    # the engine's; None when standalone

    # ------------------------------------------------------------------
    # choicepoints and timestamps

    def current_stamp(self):
        cps = self.choicepoints
        return cps[-1].stamp if cps else 0

    def push_choicepoint(self):
        self._stamp_counter += 1
        m = Mark(len(self.trail), self._stamp_counter, len(self.choicepoints),
                 next(serials))
        self.choicepoints.append(m)
        return m

    def _check_live(self, mark):
        cps = self.choicepoints
        if not mark.alive or mark.index >= len(cps) or cps[mark.index] is not mark:
            raise InternalError("dead or foreign choicepoint mark: %r" % (mark,))

    def backtrack_to(self, mark):
        """Unwind the trail to the mark and discard younger choicepoints.
        The mark itself stays live and becomes the top choicepoint."""
        self._check_live(mark)
        self._unwind(mark.trail_len)
        cps = self.choicepoints
        while len(cps) > mark.index + 1:
            cps.pop().alive = False
        # the restarted segment: no slot is trailed in it yet
        self._stamp_counter += 1
        mark.stamp = self._stamp_counter

    def commit_to(self, mark):
        """Discard the mark and everything above it without unwinding
        (the cut operation: keep bindings, drop alternatives)."""
        self._check_live(mark)
        cps = self.choicepoints
        while len(cps) > mark.index:
            cps.pop().alive = False

    def drop_to(self, mark):
        """backtrack_to followed by removing the mark itself: restores the
        state at push time and leaves the choicepoint stack as it was."""
        self.backtrack_to(mark)
        self.choicepoints.pop().alive = False

    def _unwind(self, length):
        trail = self.trail
        while len(trail) > length:
            entry = trail.pop()
            kind = entry[0]
            if kind == "bind":
                entry[1].ref = None
            elif kind == "val":
                _, owner, slot, old = entry
                if type(slot) is str:
                    setattr(owner, slot, old)
                else:
                    owner.args[slot] = old
            else:  # undo closure
                entry[1]()

    # ------------------------------------------------------------------
    # trailing primitives

    def trail_value(self, owner, slot, old):
        """Record the old value of owner/slot, at most once per segment,
        for `set_arg`, which makes its own write; `set_slot` applies the
        same rule inline."""
        cur = self.current_stamp()
        stamps = owner._stamps
        if stamps is None:
            stamps = {}
            owner._stamps = stamps
        elif stamps.get(slot) == cur:
            return
        stamps[slot] = cur
        self.trail.append(("val", owner, slot, old))

    def set_slot(self, owner, slot, new):
        """Write ``owner.slot``, trailing its old value at most once per
        segment.  The stamp test is inline, so a write is one call."""
        old = getattr(owner, slot)
        if old is new:
            return
        cps = self.choicepoints
        cur = cps[-1].stamp if cps else 0
        stamps = owner._stamps
        if stamps is None:
            owner._stamps = {slot: cur}
            self.trail.append(("val", owner, slot, old))
        elif stamps.get(slot) != cur:
            stamps[slot] = cur
            self.trail.append(("val", owner, slot, old))
        setattr(owner, slot, new)

    def register_undo(self, closure):
        self.trail.append(("undo", closure))

    def set_arg(self, i, struct, new):
        """setarg/3: destructively update argument i (1-based), trailed."""
        struct = deref(struct)
        if type(struct) is not Struct:
            raise TypeError_("setarg: not a compound term: %s" % show(struct))
        if not isinstance(i, int) or isinstance(i, bool):
            raise TypeError_("setarg: index must be an integer: %s" % show(i))
        if not 1 <= i <= len(struct.args):
            raise RangeError("setarg: index %s out of range for %s/%d"
                             % (show(i), struct.name, len(struct.args)))
        self.trail_value(struct, i - 1, struct.args[i - 1])
        struct.args[i - 1] = new

    # ------------------------------------------------------------------
    # binding

    def bind(self, var, value):
        """Bind an unbound variable and run the attributes' unify handlers:
        its own, in the order they were attached, then, when it is aliased
        to a variable, those of the survivor's attributes it lacks, with
        payload None.

        Returns False when a handler vetoes the binding.  The partial
        state is left in place; the caller is expected to hold a
        choicepoint and backtrack on failure.

        Generated head code (`clauses._Codegen.bind`) binds a variable
        without attributes itself, by the same trail rule, so a change
        to the rule must change both.
        """
        if var.ref is not None:
            raise InternalError("bind: variable already bound")
        var.ref = value
        cps = self.choicepoints
        if cps and var.serial <= cps[-1].var_serial:
            self.trail.append(("bind", var))
        attrs = var.attrs
        if type(value) is Var:
            value = deref(value)
            if type(value) is Var and value.attrs:
                attrs = {**attrs, **{name: None for name in value.attrs
                                     if name not in attrs}}
        if attrs and self.attr_registry is not None:
            lookup = self.attr_registry.lookup
            for name, payload in attrs.items():
                spec = lookup(name)
                if spec is not None and spec.unify is not None:
                    if type(value) is Var:
                        # an earlier handler may have bound the survivor
                        value = deref(value)
                    if not spec.unify(value, payload, var):
                        return False
        return True

    # ------------------------------------------------------------------
    # unification

    def unify(self, a, b):
        """Structural unification, no occurs check.  Arguments are unified
        left to right, as the generated head code matches them, so the
        attributes' handlers run in the same order either way.

        On failure, bindings already made are *not* undone here; backtrack
        to a mark taken before the call to restore them.
        """
        stack = [(a, b)]
        while stack:
            x, y = stack.pop()
            x = deref(x)
            y = deref(y)
            if x is y:
                continue
            tx, ty = type(x), type(y)
            if tx is Var:
                if ty is Var:
                    # keep the older variable: bind the younger one to it
                    if x.serial < y.serial:
                        x, y = y, x
                if not self.bind(x, y):
                    return False
                continue
            if ty is Var:
                if not self.bind(y, x):
                    return False
                continue
            if tx is not ty:
                return False
            if tx is Struct:
                if x.name != y.name or len(x.args) != len(y.args):
                    return False
                stack.extend(zip(reversed(x.args), reversed(y.args)))
            elif tx is Atom:
                return False  # distinct interned atoms never unify
            elif tx is int or tx is float or tx is Fraction or tx is str:
                if x != y:
                    return False
            elif tx is Breal:
                if x.lo != y.lo or x.hi != y.hi:
                    return False
            else:
                return False  # opaque values unify only by identity
        return True

    def unifiable(self, a, b):
        """Non-destructive unifiability test."""
        mark = self.push_choicepoint()
        ok = self.unify(a, b)
        self.drop_to(mark)
        return ok
