"""The mutable store: bindings, destructive updates, trailing, backtracking.

Three kinds of trail entries:

* ('bind', var)                  -- reset var.ref to None on unwind
* ('val', owner, slot, old)      -- restore a slot to its old value:
                                    ``slot`` names it, is the index of a
                                    struct's argument, or is a function
                                    that restores several slots from old
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

Value entries follow one rule, after ECLiPSe's time stamps (Aggoun and
Beldiceanu, 1990): an owner is trailed at most once per choicepoint
segment, and an owner made after the youngest live choicepoint is not
trailed at all.  Every choicepoint carries a stamp from a plain monotone
counter, bumped on every push and on every backtrack to a mark, which
restarts the mark's segment under a fresh stamp; so the stamps of dead
(popped or cut) choicepoints and of undone segments are never reused.
An owner (a `Var`'s attributes, an ic `Domain`, a `Suspend` record, a
`Suspension`) carries one int, ``stamp``: the stamp of the segment in
which its slots are already safe.  A write to an owner whose stamp is
the top choicepoint's pushes nothing.  Otherwise `_save` pushes one
entry that holds every trailed slot of the owner and sets the stamp.
The owner's class names its one trailed slot in ``_trailed``;
a class with several (a `Domain`'s bounds, holes, integrality and wake
lists, a `Suspend` record's lists) sets ``_trailed`` to None and reads
them as one tuple with ``_saved(owner)``, which ``_restore(owner,
saved)`` writes back.  An owner
is stamped when it is made, so its writes in the segment that made it
push nothing: undoing that segment makes it unreachable.  A `Var` is
stamped 0 instead, as `Var()` must stay cheap, and judged by its
``serial`` as bindings are.  Without any choicepoint nothing is trailed.

`set_slot` makes the stamp test inline, so a write that needs no entry
is one call, and `save` serves a caller that writes the slots itself
(`ic._update`).  Three more places make the test inline against the top
choicepoint's stamp: `Scheduler.schedule` (susp.py), once per call, for
the ``state`` of each suspension it queues, `Engine.drain` for the
re-queue rule, and `ic._neq2` for the kill of its demon, the most
frequent state write.  Unwinding an entry leaves the owner's stamp as it
is: it belongs to an undone segment, so it equals no live stamp, and a
later write in the restarted segment is trailed again.

Two registers of the store are not trailed but saved in every
choicepoint, as a WAM's choicepoint saves the machine's registers: the
running priority, which `Engine.drain` writes while a woken goal runs,
and ``sid``, the sid last given to a suspension, the key of the
suspension table.  `backtrack_to` writes the priority back and takes
every suspension made after the push out of the table, killing it;
`commit_to` leaves both.  So the only undo closure the engine pushes is
the re-queue rule's (susp.py).

A struct's arguments are trailed one at a time, by `trail_value`, for
`set_arg`: an array written one cell per segment would otherwise copy
every cell each time.  A struct keeps one stamp per argument, in a list
made at its first trailed write, and its entries are
``('val', struct, index, old)``.  Undo entries are never deduplicated:
the closures may be non-idempotent.

Unification lives here too, because it is the operation that creates most
trail entries.  A binding sets ``ref``, trails it and runs the unify
handlers of both sides' attributes (attvar.py), which do all the waking:
the store holds no scheduler.  The store is usable standalone; the
engine injects the attribute registry.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalError, RangeError, TypeError_
from .susp import EXECUTED, MAIN_PRIORITY
from .terms import Atom, Breal, Struct, Var, deref, serials, show


class Mark:
    """A choicepoint handle: trail length, unique timestamp, a serial
    between those of the variables made before and after its push, the
    store's two registers at its push (the running priority and the sid
    last given to a suspension), and the ``alt`` and ``cont`` of
    `Engine.solve` (None on a bare mark)."""

    __slots__ = ("trail_len", "stamp", "index", "var_serial", "priority",
                 "sid", "alive", "alt", "cont")

    def __init__(self, trail_len, stamp, index, var_serial, priority, sid):
        self.trail_len = trail_len
        self.stamp = stamp
        self.index = index
        self.var_serial = var_serial
        self.priority = priority
        self.sid = sid
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
        # the registers a choicepoint saves: the priority of the running
        # goal, and the sid last given to a suspension, the key of the
        # suspension table (sid -> Suspension, in sid order)
        self.running_priority = MAIN_PRIORITY
        self.sid = 0
        self.suspensions = {}

    # ------------------------------------------------------------------
    # choicepoints and timestamps

    def current_stamp(self):
        cps = self.choicepoints
        return cps[-1].stamp if cps else 0

    def push_choicepoint(self):
        self._stamp_counter += 1
        m = Mark(len(self.trail), self._stamp_counter, len(self.choicepoints),
                 next(serials), self.running_priority, self.sid)
        self.choicepoints.append(m)
        return m

    def _check_live(self, mark):
        cps = self.choicepoints
        if not mark.alive or mark.index >= len(cps) or cps[mark.index] is not mark:
            raise InternalError("dead or foreign choicepoint mark: %r" % (mark,))

    def backtrack_to(self, mark):
        """Unwind the trail to the mark, put back the running priority it
        saved and discard younger choicepoints.  The mark itself stays
        live and becomes the top choicepoint.  The suspensions whose sid
        is above the mark's leave the table, newest first, and are killed
        by a plain write, so a stale queue entry of one is skipped.  Sids
        only grow: ``sid`` itself is not put back."""
        self._check_live(mark)
        self._unwind(mark.trail_len)
        self.running_priority = mark.priority
        if self.sid > mark.sid:
            table = self.suspensions
            while table and next(reversed(table)) > mark.sid:
                table.popitem()[1].state = EXECUTED
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
                ts = type(slot)
                if ts is str:
                    setattr(owner, slot, old)
                elif ts is int:
                    owner.args[slot] = old
                else:
                    slot(owner, old)
            else:  # undo closure
                entry[1]()

    # ------------------------------------------------------------------
    # trailing primitives

    def _save(self, owner, top):
        """The trail rule for an owner whose stamp is not the top
        choicepoint's: stamp it, and push one entry holding its trailed
        slots, unless it is a variable made after the top choicepoint."""
        owner.stamp = top.stamp
        if type(owner) is Var and owner.serial > top.var_serial:
            return
        slot = owner._trailed
        if slot is None:
            self.trail.append(("val", owner, type(owner)._restore,
                               owner._saved()))
        else:
            self.trail.append(("val", owner, slot, getattr(owner, slot)))

    def save(self, owner):
        """Trail owner's slots as a write to them would, for a caller
        that then writes them itself."""
        cps = self.choicepoints
        if cps:
            top = cps[-1]
            if owner.stamp != top.stamp:
                self._save(owner, top)

    def set_slot(self, owner, slot, new):
        """Write ``owner.slot``, trailing the owner at most once per
        segment.  The stamp test is inline, so a write is one call."""
        if getattr(owner, slot) is new:
            return
        cps = self.choicepoints
        if cps:
            top = cps[-1]
            if owner.stamp != top.stamp:
                self._save(owner, top)
        setattr(owner, slot, new)

    def trail_value(self, owner, slot, old):
        """Record the old value of argument ``slot`` of the struct owner,
        at most once per segment, for `set_arg`, which makes its own
        write.  The struct keeps one stamp per argument."""
        cps = self.choicepoints
        if not cps:
            return
        cur = cps[-1].stamp
        stamps = owner.stamps
        if stamps is None:
            stamps = owner.stamps = [-1] * len(owner.args)
        elif stamps[slot] == cur:
            return
        stamps[slot] = cur
        self.trail.append(("val", owner, slot, old))

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
