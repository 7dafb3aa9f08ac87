"""The four workloads: fixed program text, seeded goals, answer checks.

Every workload builds a pool of queries from the seed.  The sizes that
set a query's cost are spread evenly over the workload's range and move
little or not at all with the seed; the seed chooses the content (list
elements, hole positions) and the order in which a run takes the pool,
round after round.  So two seeds give different goals at nearly the same
cost, and the run-to-run figures stay put.  Every pool holds 25 or 35
queries: a run is whole rounds, so its 50th and 90th percentiles then
fall in the middle of one query's samples, not between two queries whose
costs differ.  The engine sees only the goal text; the expected answers
come from ``oracles``.
"""

from __future__ import annotations

import oracles


class Query:
    """One goal.  ``show`` names the variables whose bindings are printed
    for each answer, ``limit`` caps the answers taken, ``check`` judges
    the printed answers (a list with one list of strings per answer),
    and ``inferences`` is the query's known predicate-call count, or None
    when it has to be counted."""

    __slots__ = ("goal", "show", "limit", "check", "inferences")

    def __init__(self, goal, show, limit, check, inferences=None):
        self.goal = goal
        self.show = show
        self.limit = limit
        self.check = check
        self.inferences = inferences


class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    def __init__(self, name, program, make_pool, trace_queries):
        self.name = name
        self.program = program
        self.make_pool = make_pool
        #: queries in the traced run's fixed batch
        self.trace_queries = trace_queries


def _int_list(xs):
    return "[%s]" % ",".join(str(x) for x in xs)


def _one_int(expected):
    return lambda answers: [[int(a) for a in ans] for ans in answers] \
        == [[expected]]


def _one_list(expected):
    return lambda answers: [[oracles.parse_int_list(a) for a in ans]
                            for ans in answers] == [[expected]]


# ----------------------------------------------------------------------
# core: naive reverse

CORE_PROGRAM = """
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).

nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
"""

CORE_POOL = 35
CORE_MIN, CORE_MAX = 30, 150


def core_pool(rng):
    # lengths at the quantiles of the density 1/n^2, so every length gets
    # about the same share of the measured time (nrev costs n^2); lengths
    # stay under the recursion ceiling of the generator-based solver
    out = []
    a, b = 1 / CORE_MIN, 1 / CORE_MAX
    for i in range(CORE_POOL):
        u = (i + 0.5) / CORE_POOL
        n = round(1 / (a - u * (a - b)))
        xs = [rng.randrange(1000) for _ in range(n)]
        out.append(Query("nrev(%s, R)" % _int_list(xs), ("R",), 1,
                         _one_list(xs[::-1]),
                         inferences=(n + 1) * (n + 2) // 2))
    return out


# ----------------------------------------------------------------------
# queens: search with disequality propagation

QUEENS_PROGRAM = """
queens(N, Qs, Method) :-
    length(Qs, N),
    Qs :: 1..N,
    ( fromto(Qs, [Q|Rest], Rest, []) do
        ( foreach(R, Rest), count(D, 1, _), param(Q) do
            Q #\\= R, Q + D #\\= R, Q - D #\\= R
        )
    ),
    labeling(Method, Qs).

count_queens(N, Method, C) :- count_solutions(queens(N, _, Method), C).
"""

QUEENS_COUNT_SIZES = (6, 7, 8)
QUEENS_METHODS = ("input_order", "first_fail")
#: first solutions for these N; their cost jumps from one N to the next,
#: so the set is fixed and the seed only orders the queries
QUEENS_FIRST_SIZES = tuple(range(9, 22))


def _queens_first_check(n):
    def check(answers):
        if len(answers) != 1:
            return False
        return oracles.queens_placement_ok(
            n, oracles.parse_int_list(answers[0][0]))
    return check


def queens_pool(rng):
    out = []
    # every counting query twice: the queens-8 counts are then a sixth of
    # the pool and the 90th percentile falls inside them, not at their edge
    for _ in range(2):
        for n in QUEENS_COUNT_SIZES:
            for method in QUEENS_METHODS:
                out.append(Query("count_queens(%d, %s, C)" % (n, method),
                                 ("C",), 1,
                                 _one_int(oracles.QUEENS_COUNTS[n])))
    for n in QUEENS_FIRST_SIZES:
        out.append(Query("queens(%d, Qs, first_fail)" % n, ("Qs",), 1,
                         _queens_first_check(n)))
    return out


# ----------------------------------------------------------------------
# linear: bounds propagation over linear equations

LINEAR_PROGRAM = """
coins(T, Count) :-
    [A, B, C, D] :: 0..T,
    1*A + 5*B + 10*C + 25*D #= T,
    count_solutions(labeling([D, C, B, A]), Count).

magic(Count) :-
    Sq = [A, B, C, D, E, F, G, H, I],
    Sq :: 1..9,
    alldifferent(Sq),
    A + B + C #= 15, D + E + F #= 15, G + H + I #= 15,
    A + D + G #= 15, B + E + H #= 15, C + F + I #= 15,
    A + E + I #= 15, C + E + G #= 15,
    count_solutions(labeling(Sq), Count).

send_more([S, E, N, D, M, O, R, Y]) :-
    [S, E, N, D, M, O, R, Y] :: 0..9,
    alldifferent([S, E, N, D, M, O, R, Y]),
    S #\\= 0, M #\\= 0,
    1000*S + 100*E + 10*N + D + 1000*M + 100*O + 10*R + E
        #= 10000*M + 1000*O + 100*N + 10*E + Y,
    labeling([S, E, N, D, M, O, R, Y]).
"""

LINEAR_COINS = 21
LINEAR_COINS_MIN, LINEAR_COINS_MAX = 20, 150
LINEAR_FIXED_REPEATS = 2


def linear_pool(rng):
    out = []
    span = LINEAR_COINS_MAX - LINEAR_COINS_MIN + 1
    for i in range(LINEAR_COINS):
        t = LINEAR_COINS_MIN + int((i + 0.5) * span / LINEAR_COINS)
        out.append(Query("coins(%d, Count)" % t, ("Count",), 1,
                         _one_int(oracles.coin_change_count(t))))
    magic = _one_int(oracles.magic_square_count())
    send_more = oracles.send_more_solutions()

    def send_more_check(answers):
        return len(answers) == 1 and \
            oracles.parse_int_list(answers[0][0]) in send_more

    for _ in range(LINEAR_FIXED_REPEATS):
        out.append(Query("magic(Count)", ("Count",), 1, magic))
        out.append(Query("send_more(L)", ("L",), 1, send_more_check))
    return out


# ----------------------------------------------------------------------
# wide: one variable over a wide integer domain with a few holes

WIDE_PROGRAM = """
wide(W, Holes, X) :-
    X :: 1..W,
    exclude_all(Holes, X).

exclude_all([], _).
exclude_all([H|Hs], X) :- X #\\= H, exclude_all(Hs, X).
"""

WIDE_POOL = 25
WIDE_MIN, WIDE_MAX = 10 ** 5, 2 * 10 ** 6
WIDE_VALUES = 5
WIDE_JITTER = 0.01
WIDE_HOLES = 3


def _wide_label_check(expected):
    return lambda answers: [[int(a) for a in ans] for ans in answers] \
        == [[v] for v in expected]


def wide_pool(rng):
    # widths at log-uniform quantiles of the range; the widest labelled
    # instance is always WIDE_MAX, so peak memory does not depend on the
    # seed.  Two of every three queries label, the third prints the domain
    # the way the REPL does.
    out = []
    ratio = WIDE_MAX / WIDE_MIN
    for i in range(WIDE_POOL):
        if i == WIDE_POOL - 1:
            w = WIDE_MAX
        else:
            w = int(WIDE_MIN * ratio ** ((i + 0.5) / WIDE_POOL)
                    * rng.uniform(1 - WIDE_JITTER, 1 + WIDE_JITTER))
        holes = rng.sample(range(2, w), WIDE_HOLES)
        goal = "wide(%d, %s, X)" % (w, _int_list(holes))
        if i % 3 == 1:
            out.append(Query(goal, ("X",), 1,
                             lambda answers, e=oracles.domain_text(w, holes):
                             answers == [[e]]))
        else:
            expected = oracles.first_values(w, set(holes), WIDE_VALUES)
            out.append(Query(goal + ", indomain(X)", ("X",), WIDE_VALUES,
                             _wide_label_check(expected)))
    return out


WORKLOADS = {w.name: w for w in (
    Workload("core", CORE_PROGRAM, core_pool, trace_queries=12),
    Workload("queens", QUEENS_PROGRAM, queens_pool, trace_queries=12),
    Workload("linear", LINEAR_PROGRAM, linear_pool, trace_queries=16),
    Workload("wide", WIDE_PROGRAM, wide_pool, trace_queries=18),
)}
