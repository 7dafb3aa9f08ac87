"""Expected answers computed in plain Python, never with the engine.

Each function here takes the workload parameters the benchmark generated
and returns what a correct engine must print, or checks an answer the
engine printed.  Nothing in this module imports the engine.
"""

from __future__ import annotations

import itertools

#: number of solutions of the N-queens problem (OEIS A000170)
QUEENS_COUNTS = {6: 4, 7: 40, 8: 92}


def parse_int_list(text):
    """'[3, 1, 2]' -> [3, 1, 2]; raises ValueError on anything else."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError("not a list: %r" % text)
    body = text[1:-1].strip()
    return [int(x) for x in body.split(",")] if body else []


def queens_placement_ok(n, qs):
    """qs[i] is the row of the queen in column i: a permutation of 1..n
    with no two queens on one diagonal."""
    if sorted(qs) != list(range(1, n + 1)):
        return False
    return all(abs(qs[i] - qs[j]) != j - i
               for i in range(n) for j in range(i + 1, n))


COINS = (1, 5, 10, 25)


def coin_change_count(total):
    """Number of multisets of COINS summing to total (dynamic programming)."""
    ways = [1] + [0] * total
    for c in COINS:
        for t in range(c, total + 1):
            ways[t] += ways[t - c]
    return ways[total]


def magic_square_count():
    """3x3 magic squares over 1..9 (rows, columns, diagonals sum to 15),
    by enumerating all permutations."""
    lines = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8),
             (0, 4, 8), (2, 4, 6)]
    return sum(1 for p in itertools.permutations(range(1, 10))
               if all(p[a] + p[b] + p[c] == 15 for a, b, c in lines))


def send_more_solutions():
    """All [S,E,N,D,M,O,R,Y] with distinct digits, S and M nonzero and
    SEND + MORE = MONEY, by enumerating digit assignments."""
    out = []
    for s, e, n, d, m, o, r, y in itertools.permutations(range(10), 8):
        if s == 0 or m == 0:
            continue
        send = 1000 * s + 100 * e + 10 * n + d
        more = 1000 * m + 100 * o + 10 * r + e
        money = 10000 * m + 1000 * o + 100 * n + 10 * e + y
        if send + more == money:
            out.append([s, e, n, d, m, o, r, y])
    return out


def first_values(width, holes, k):
    """The k smallest values of 1..width that are not holes."""
    out = []
    v = 1
    while len(out) < k and v <= width:
        if v not in holes:
            out.append(v)
        v += 1
    return out


def domain_text(width, holes):
    """How the REPL prints an integer variable whose domain is 1..width
    without the holes: the remaining values as maximal runs, found by
    walking the sorted holes rather than the whole range."""
    lo, hi = 1, width
    hs = sorted(h for h in set(holes) if 1 <= h <= width)
    while hs and hs[0] == lo:
        hs.pop(0)
        lo += 1
    while hs and hs[-1] == hi:
        hs.pop()
        hi -= 1
    if not hs:
        return "_{%d..%d}" % (lo, hi)
    segs = []
    start = lo
    for h in hs:
        if h > start:
            segs.append((start, h - 1))
        start = h + 1
    segs.append((start, hi))
    return "_{[%s]}" % ", ".join(_seg(a, b) for a, b in segs)


def _seg(a, b):
    return str(a) if a == b else "%d..%d" % (a, b)
