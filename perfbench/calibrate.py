"""A fixed piece of pure-Python work that tracks the machine's speed.

It does what the engine does most -- allocate small objects, recurse,
resume generators, look up dicts, add fractions -- with none of the
engine's code, so no change to the engine can move its time.  A timed run
interleaves it with the queries and scales every time by how fast it ran;
see ``run.timed_run``.
"""

from __future__ import annotations

from fractions import Fraction

#: the routine's median CPU time on the machine baseline_seed.json was
#: measured on (2-vCPU x86-64 virtual machine, Python 3.11)
REFERENCE_S = 0.009


class _Cell:
    __slots__ = ("head", "tail")

    def __init__(self, head, tail):
        self.head = head
        self.tail = tail


def _append(a, b):
    return b if a is None else _Cell(a.head, _append(a.tail, b))


def _nrev(xs):
    return None if xs is None else _append(_nrev(xs.tail), _Cell(xs.head, None))


def _records(n):
    for i in range(n):
        yield {"k%d" % (i % 17): i, "v": (i, i + 1)}


def _work():
    total = 0
    for _ in range(4):
        xs = None
        for i in range(90):
            xs = _Cell(i, xs)
        total += _nrev(xs).head
    for record in _records(3000):
        total += record["v"][1]
    q = Fraction(0)
    for i in range(1, 300):
        q += Fraction(1, i)
    return total, q


def sample(clock):
    """Seconds one run of the routine takes, by the given clock."""
    t0 = clock()
    _work()
    return clock() - t0
