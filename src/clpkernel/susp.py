"""Suspensions and the priority scheduler.

A suspension is a goal taken out of the active resolvent.  It moves
through three states:

    suspended --(waking event)--> scheduled --(drain)--> executed

Demons go back to ``suspended`` instead of ``executed`` when they are
picked for execution, so the same suspension keeps living in its
suspension lists and can fire again.  Every other state change goes
through the store's value trail, so backtracking revives killed
suspensions and un-schedules scheduled ones.  `Scheduler.schedule`
makes its trailed writes itself: it reads the top choicepoint's stamp
once per call and applies `Store.set_slot`'s once-per-segment rule
inline to each suspension it queues, pushing the same ``val`` entries.

The demon's reset to ``suspended`` is a plain, untrailed write.  It
relies on one invariant: when `Engine.drain` pops a demon, no choicepoint
pushed since the demon was scheduled is still alive (drain pushes no
mark per woken builtin, and a woken goal that pushes marks commits them
before the less urgent goals it left queued are popped).  So no live
choicepoint lies between the schedule and the pop, and the ``scheduled``
entry that `Scheduler.schedule` trailed already restores ``suspended`` on
any backtracking past the pop.  Usually the demon was scheduled in the
current trail segment (``s._stamps["state"]`` equals the store's current
stamp), where a trailed reset would add no entry anyway.  Killing a
suspension and running a non-demon stay trailed.

Waking is two-stage on purpose: events only move suspensions into the
priority queue; the queued goals actually run at the next drain point,
most urgent bucket first (priority 1 is the most urgent of the 12
levels), FIFO within a bucket.  The queue itself is not trailed; stale
entries (whose state was restored by backtracking, or that were killed)
are skipped when popped.  The scheduler counts the entries in its
buckets, stale ones included until they are popped, so `Engine.drain`
sees in O(1) that nothing is queued.  It also keeps ``low``: every
bucket more urgent than ``low`` is empty.  Scheduling lowers it; a pop
starts its scan there and leaves it at the bucket where the scan
stopped, so the empty buckets more urgent than the most urgent queued
entry are not rescanned on every pop.
"""

from __future__ import annotations

from collections import deque

from .errors import DomainError

SUSPENDED = "suspended"
SCHEDULED = "scheduled"
EXECUTED = "executed"

NUM_PRIORITIES = 12
#: priority of the main resolvent: weaker than every suspension priority,
#: so a toplevel drain point runs everything that is scheduled
MAIN_PRIORITY = NUM_PRIORITIES + 1


class Suspension:
    """A suspended goal.  ``payload`` is free for propagators to cache
    data in.  ``pred`` is the goal's builtin predicate, which a drain
    calls directly, or None for goals that go through the resolver."""

    __slots__ = ("sid", "goal", "priority", "module", "state", "demon",
                 "pred", "payload", "_stamps")

    def __init__(self, sid, goal, priority, module, demon=False, pred=None):
        if not isinstance(priority, int) or not 1 <= priority <= NUM_PRIORITIES:
            raise DomainError("suspension priority must be in 1..%d, got %r"
                              % (NUM_PRIORITIES, priority))
        self.sid = sid
        self.goal = goal
        self.priority = priority
        self.module = module
        self.state = SUSPENDED
        self.demon = demon
        self.pred = pred
        self.payload = None
        self._stamps = None

    def __repr__(self):
        return "<susp %d prio %d %s>" % (self.sid, self.priority, self.state)


class Scheduler:
    """Twelve FIFO buckets of scheduled suspensions.  ``count`` is the
    number of entries in the buckets, stale ones included.  Every bucket
    more urgent than ``low`` is empty."""

    def __init__(self):
        self.buckets = [deque() for _ in range(NUM_PRIORITIES + 1)]  # index 1..12
        self.count = 0
        self.low = NUM_PRIORITIES + 1

    def schedule(self, susps, store):
        """Move suspended suspensions into the queue.  Already-scheduled and
        executed ones are skipped (redundant waking is harmless).  Each
        ``state`` write is trailed as `Store.set_slot` would trail it, at
        most once per segment, against the top choicepoint's stamp read
        once for the whole call."""
        cps = store.choicepoints
        cur = cps[-1].stamp if cps else 0
        trail = store.trail
        buckets = self.buckets
        low = self.low
        n = 0
        for s in susps:
            if s.state == SUSPENDED:
                stamps = s._stamps
                if stamps is None:
                    s._stamps = {"state": cur}
                    trail.append(("val", s, "state", SUSPENDED))
                elif stamps.get("state") != cur:
                    stamps["state"] = cur
                    trail.append(("val", s, "state", SUSPENDED))
                s.state = SCHEDULED
                p = s.priority
                buckets[p].append(s)
                n += 1
                if p < low:
                    low = p
        self.count += n
        self.low = low

    def pop_runnable(self, priority_limit):
        """Most urgent scheduled suspension with priority < priority_limit,
        or None.  Skips stale queue entries (state reverted by
        backtracking or killed while queued).  The scan starts at ``low``
        and leaves it at the bucket it stopped in."""
        top = min(priority_limit, NUM_PRIORITIES + 1)
        buckets = self.buckets
        p = self.low
        while p < top:
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
