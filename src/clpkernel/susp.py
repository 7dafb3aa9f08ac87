"""Suspensions and the priority scheduler.

A suspension is a goal taken out of the active resolvent.  It moves
through three states:

    suspended --(waking event)--> scheduled --(drain)--> executed

Demons go back to ``suspended`` instead of ``executed`` when they are
picked for execution, so the same suspension keeps living in its
suspension lists and can fire again.  Every other state change goes
through the store's value trail, so backtracking revives killed
suspensions and un-schedules scheduled ones.  ``state`` is a
suspension's only trailed slot, and a suspension is stamped with the
current segment's stamp when it is made, so its state changes in that
segment push nothing: backtracking to a choicepoint pushed before it was
made takes it out of the suspension table and kills it
(`Store.backtrack_to`).  `Scheduler.schedule` makes its trailed writes
itself: it reads the top choicepoint's stamp once per call and applies
`Store.set_slot`'s once-per-segment rule inline to each suspension it
queues, pushing the same ``val`` entries.

The demon's reset to ``suspended`` when `Engine.drain` pops it is a
plain, untrailed write.  When the pop happens in the segment of the
entry's stamp (``s.stamp`` equals the store's current stamp), any
backtracking past the pop restores ``suspended``: through the
``scheduled`` entry that `Scheduler.schedule` trailed there, or, for a
suspension made in that segment, by killing it.  So a trailed reset
would add nothing.  A woken goal that is not a builtin runs in the
resolvent and may leave choicepoints, and a less urgent entry scheduled
before such a choicepoint may be popped after it.  Backtracking into the
choicepoint must then find the entry queued again, though the queue
itself is not trailed.  So the re-queue rule: a pop in another segment
than the entry's stamp (a younger one, or an older one after a cut)
pushes an undo entry, `Scheduler.requeue`, which puts the entry back in
state ``scheduled`` at the front of its bucket.  Every pop in the
benchmark's programs happens in the segment of the entry's stamp
(`tests/test_susp.py` checks this), so there the rule costs one stamp
comparison per pop.  A kill follows `Store.set_slot`'s rule, so a demon
killed in the segment that scheduled it adds no trail entry: the
scheduling's entry revives it.  Running a non-demon stays trailed.

Waking is two-stage on purpose: events only move suspensions into the
priority queue; the queued goals actually run when the resolution loop
next drains the queue, before its next goal, most urgent bucket first
(priority 1 is the most urgent of the 12 levels), FIFO within a bucket.
The queue itself is not trailed; stale entries (whose state was restored
by backtracking, or that were killed) are skipped when popped.  The
scheduler counts the entries in its buckets, stale ones included until
they are popped, so the loop sees in O(1) that nothing is queued.  It
also keeps ``low``: every bucket more urgent than ``low`` is empty.
Scheduling lowers it; a pop starts its scan there and leaves it at the
bucket where the scan stopped, so the empty buckets more urgent than the
most urgent queued entry are not rescanned on every pop.
"""

from __future__ import annotations

from collections import deque

from .errors import DomainError
from .terms import show

SUSPENDED = "suspended"
SCHEDULED = "scheduled"
EXECUTED = "executed"

NUM_PRIORITIES = 12
#: priority of the main resolvent: weaker than every suspension priority,
#: so a toplevel drain point runs everything that is scheduled
MAIN_PRIORITY = NUM_PRIORITIES + 1


class Suspension:
    """A suspended goal.  ``run`` is what a drain calls to run it,
    ``run(engine, s, module)``, returning a bool or a ``(goal, module)``
    pair as a builtin does; it is None for a goal that runs in the
    resolvent.  ``payload`` is free for a run to keep its data in.
    ``goal`` is the goal term, or, for a demon posted without one, a
    function of the suspension that builds it from the payload; whatever
    prints a suspension reads its goal through `goal_term`.  ``stamp`` is
    the trail stamp of ``state`` (store.py), the current one when the
    suspension is made by the engine."""

    __slots__ = ("sid", "goal", "priority", "module", "state", "demon",
                 "run", "payload", "stamp")
    _trailed = "state"

    def __init__(self, sid, goal, priority, module, demon=False, run=None,
                 stamp=0):
        if not isinstance(priority, int) or not 1 <= priority <= NUM_PRIORITIES:
            raise DomainError("suspension priority must be in 1..%d, got %s"
                              % (NUM_PRIORITIES, show(priority)))
        self.sid = sid
        self.goal = goal
        self.priority = priority
        self.module = module
        self.state = SUSPENDED
        self.demon = demon
        self.run = run
        self.payload = None
        self.stamp = stamp

    def goal_term(self):
        """The suspended goal as a term, built now when it was posted
        without one."""
        goal = self.goal
        return goal(self) if callable(goal) else goal

    def __repr__(self):
        return "<susp %d prio %d %s>" % (self.sid, self.priority, self.state)


class Scheduler:
    """Twelve FIFO buckets of scheduled suspensions.  ``count`` is the
    number of entries in the buckets, stale ones included.  Every bucket
    more urgent than ``low`` is empty.  ``store`` is the store whose
    trail records the scheduling."""

    def __init__(self, store):
        self.store = store
        self.buckets = [deque() for _ in range(NUM_PRIORITIES + 1)]  # index 1..12
        self.count = 0
        self.low = NUM_PRIORITIES + 1

    def schedule(self, susps):
        """Move suspended suspensions into the queue.  Already-scheduled and
        executed ones are skipped (redundant waking is harmless).  Each
        ``state`` write is trailed as `Store.set_slot` would trail it, at
        most once per segment, against the top choicepoint's stamp read
        once for the whole call."""
        store = self.store
        cps = store.choicepoints
        if cps:
            cur = cps[-1].stamp
            trail = store.trail
        else:  # nothing to undo: the entries go nowhere
            cur = 0
            trail = []
        buckets = self.buckets
        low = self.low
        n = 0
        for s in susps:
            if s.state == SUSPENDED:
                if s.stamp != cur:
                    s.stamp = cur
                    trail.append(("val", s, "state", SUSPENDED))
                s.state = SCHEDULED
                p = s.priority
                buckets[p].append(s)
                n += 1
                if p < low:
                    low = p
        self.count += n
        self.low = low

    def requeue(self, s):
        """Undo the pop of ``s``: the undo entry `Engine.drain` trails
        when it pops ``s`` in another segment than that of its stamp.
        ``s`` goes back to the front of its bucket, where the pop took it
        from."""
        s.state = SCHEDULED
        p = s.priority
        self.buckets[p].appendleft(s)
        self.count += 1
        if p < self.low:
            self.low = p

    def pop_runnable(self, priority_limit):
        """Most urgent scheduled suspension with priority < priority_limit,
        or None.  Skips stale queue entries (state reverted by
        backtracking or killed while queued).  The scan starts at ``low``
        and leaves it at the bucket it stopped in.  The limit is at most
        `MAIN_PRIORITY`, one past the last bucket."""
        buckets = self.buckets
        p = self.low
        while p < priority_limit:
            bucket = buckets[p]
            while bucket:
                s = bucket.popleft()
                self.count -= 1
                if s.state == SCHEDULED:
                    self.low = p
                    return s
            p += 1
        self.low = p
        return None
