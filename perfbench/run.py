"""Benchmark for clp-kernel: one workload and one seed per invocation.

    python3 perfbench/run.py --workload core --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the engine is imported from ``src/``.
With ``--trace 0`` the run times whole rounds of the workload's queries
for at least ``--seconds`` seconds, in worker processes, with nothing
wrapped, and reports the end-to-end metrics.  With ``--trace 1`` it runs
a fixed batch of queries untraced, twice traced (the two traced passes
must give identical counts) and once under cProfile, and reports the
per-layer metrics.  Header lines start with ``#``; the last line of
standard output is one JSON object.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import itertools
import json
import os
import platform
import pstats
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: at least this many timed queries, so the 90th percentile has ten
#: samples beyond it
MIN_QUERIES = 100
#: a worker stops here even short of its share of MIN_QUERIES
MAX_SECONDS = 30.0
#: fresh processes per timed run, one after another: a process's memory
#: layout alone moves its speed by several percent
WORKERS = 4
#: timings are CPU time of the process: on a shared virtual machine wall
#: time also counts the time the machine was running someone else
CLOCK = time.process_time
DEPTH_CAP = 2 ** 14
DEPTH_PROGRAM = """
count_to(N, N) :- !.
count_to(I, N) :- I1 is I + 1, count_to(I1, N).
"""

END_TO_END_UNITS = {
    "setup_s": "s", "solve_s.p50": "s", "solve_s.p90": "s",
    "solved_per_s": "1/s", "lips": "inferences/s", "verified_frac": "ratio",
    "peak_rss_mb": "MB", "max_depth": "count",
}


def log(text):
    print("# " + text)


# ----------------------------------------------------------------------
# driving the engine through its public API

def run_query(engine, query):
    """Solve one query and format the shown bindings of each answer as the
    REPL prints them.  Returns (CPU seconds from the parsed goal until the
    answers are formatted and the store restored, answers)."""
    goal, varmap = engine.parse_goal(query.goal)
    shown = [varmap[name] for name in query.show]
    answers = []
    t0 = CLOCK()
    sols = engine.solutions(goal)
    try:
        for _ in sols:
            answers.append([engine.format_term(v, quoted=True) for v in shown])
            if len(answers) == query.limit:
                break
    finally:
        sols.close()
    return CLOCK() - t0, answers


def verified(query, answers):
    try:
        return answers is not None and bool(query.check(answers))
    except (ValueError, TypeError, IndexError):
        return False


def new_engine(program):
    from clpkernel import Engine
    engine = Engine()
    engine.load(program)
    return engine


def rounds(pool, rng):
    """Rounds over the pool: each one every query once, in a seeded order."""
    while True:
        order = list(range(len(pool)))
        rng.shuffle(order)
        yield order


# ----------------------------------------------------------------------
# the timed run

def timed_run(workload, seed, seconds, min_queries=MIN_QUERIES):
    """Split the time over fresh worker processes (``worker.py``), one
    after the other, so the figures average over as many memory layouts;
    check every answer here.

    Every time a worker took is scaled by REFERENCE_S over the median time
    of the calibration routine in that worker.  On a shared machine the
    speed for this kind of work can drift by a third over minutes, which
    moves the calibration routine and the engine alike.  The reported
    times are therefore CPU seconds at the speed where the routine takes
    REFERENCE_S; the header gives the raw CPU times and each worker's
    factor."""
    import calibrate
    rng = random.Random(seed)
    pool = workload.make_pool(rng)
    goals = [(q.goal, q.show, q.limit) for q in pool]
    raw_setup, raw_times, setup, results = [], [], [], []
    peaks, factors = [], []
    for k in range(WORKERS):
        request = {"program": workload.program, "goals": goals,
                   "rng_seed": "%d/%d" % (seed, k),
                   "seconds": seconds / WORKERS,
                   "min_queries": -(-min_queries // WORKERS)}
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(request), stdout=subprocess.PIPE, text=True,
            check=True, timeout=2 * MAX_SECONDS)
        reply = json.loads(done.stdout)
        cal, s, r, peak = (reply["calibration"], reply["setup"],
                           reply["results"], reply["peak_rss_mb"])
        factor = calibrate.REFERENCE_S / statistics.median(cal)
        factors.append(factor)
        raw_setup += s
        raw_times += [dt for _, dt, _ in r]
        setup += [t * factor for t in s]
        results += [(i, dt * factor, answers) for i, dt, answers in r]
        peaks.append(peak)

    times = [dt for _, dt, _ in results]
    failed = 0
    runs = [0] * len(pool)
    for i, _, answers in results:
        runs[i] += 1
        if not verified(pool[i], answers):
            failed += 1
            print("wrong answer: %s: %r" % (pool[i].goal[:80], answers),
                  file=sys.stderr)
    inferences = sum(n * count for n, count in zip(
        query_inferences(new_engine(workload.program), pool, runs), runs))
    depth = max_depth()

    attempted = len(times)
    total = sum(times)
    cuts = statistics.quantiles(times, n=10, method="inclusive")
    p50, p90 = statistics.median(times), cuts[8]
    log("clock: CPU time of the worker processes, scaled by the calibration "
        "factors %s" % " ".join("%.4f" % f for f in factors))
    log("raw CPU time: setup median %.6f; solve %.3f s, p50 %.6f"
        % (statistics.median(raw_setup), sum(raw_times),
           statistics.median(raw_times)))
    log("setup_s: %d samples, min %.6f, median %.6f, max %.6f"
        % (len(setup), min(setup), statistics.median(setup), max(setup)))
    log("solve_s: %d queries in %d workers, %.3f s, p50 %.6f, p90 %.6f, "
        "%d beyond p90" % (attempted, WORKERS, total, p50, p90,
                           sum(t > p90 for t in times)))
    log("queries: %d attempted, %d failed" % (attempted, failed))
    log("lips: %d inferences over %.3f s of solve time" % (inferences, total))
    log("peak_rss_mb by worker: %s" % " ".join("%.1f" % p for p in peaks))
    log("max_depth: deepest count_to(0, N) that succeeds, cap %d" % DEPTH_CAP)
    metrics = {
        "setup_s": statistics.median(setup),
        "solve_s.p50": p50,
        "solve_s.p90": p90,
        "solved_per_s": (attempted - failed) / total,
        "lips": inferences / total,
        "verified_frac": (attempted - failed) / attempted,
        "peak_rss_mb": max(peaks),
        "max_depth": depth,
    }
    return failed == 0, attempted, failed, {
        name: {"value": value, "unit": END_TO_END_UNITS[name]}
        for name, value in metrics.items()}


def query_inferences(engine, pool, runs):
    """Predicate calls (user clauses and builtins; control constructs are
    not calls) of each pool query that ran.  Known counts are taken as
    given, the others are counted in one untimed pass per query."""
    from clpkernel.solve import Engine
    calls = [0]
    originals = Engine._call_user, Engine._run_builtin

    def counting(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)
        return wrapper

    out = []
    Engine._call_user, Engine._run_builtin = map(counting, originals)
    try:
        for query, n in zip(pool, runs):
            if query.inferences is not None or n == 0:
                out.append(query.inferences or 0)
                continue
            calls[0] = 0
            try:
                run_query(engine, query)
            except Exception:  # counted up to the failure
                pass
            out.append(calls[0])
    finally:
        Engine._call_user, Engine._run_builtin = originals
    return out


def max_depth(cap=DEPTH_CAP):
    """Deepest N for which count_to(0, N) succeeds: doubling up to the cap,
    then bisecting between the last success and the first failure."""
    from workloads import Query
    engine = new_engine(DEPTH_PROGRAM)

    def succeeds(n):
        nonlocal engine
        try:
            _, answers = run_query(engine, Query("count_to(0, %d)" % n, (), 1,
                                                 None))
            return len(answers) == 1
        except Exception:  # RecursionError is the expected one
            engine = new_engine(DEPTH_PROGRAM)
            return False

    good, n = 0, 1
    while n <= cap and succeeds(n):
        good, n = n, n * 2
    if n <= cap:
        bad = n
        while bad - good > 1:
            mid = (good + bad) // 2
            if succeeds(mid):
                good = mid
            else:
                bad = mid
    return good


# ----------------------------------------------------------------------
# the traced run

def engine_pass(workload, queries):
    """Set up an engine and run the queries.  Returns (engine seconds,
    counting set-up, parsing and solving but not the answer checks,
    failed queries).  Wall time, as for the tracer's spans, which a CPU
    clock would slow down fivefold."""
    t0 = time.perf_counter()
    engine = new_engine(workload.program)
    spent = time.perf_counter() - t0
    failed = 0
    for query in queries:
        t0 = time.perf_counter()
        try:
            _, answers = run_query(engine, query)
        except Exception as e:  # a failed query must not stop the run
            print("query failed: %s: %s" % (query.goal[:80], e),
                  file=sys.stderr)
            answers = None
        spent += time.perf_counter() - t0
        failed += not verified(query, answers)
    return spent, failed


def traced_run(workload, seed):
    from tracer import LAYERS, Tracer
    rng = random.Random(seed)
    pool = workload.make_pool(rng)
    order = itertools.chain.from_iterable(rounds(pool, rng))
    queries = [pool[i] for i in itertools.islice(order, workload.trace_queries)]

    plain_s, failed = engine_pass(workload, queries)
    passes = []
    for _ in range(2):
        with Tracer() as tracer:
            spent, f = engine_pass(workload, queries)
        failed += f
        passes.append((spent, tracer))
    profile = cProfile.Profile()
    profile.enable()
    try:
        _, f = engine_pass(workload, queries)
    finally:
        profile.disable()
    failed += f
    attempted = 4 * len(queries)

    (spent, tracer), (_, again) = passes
    deterministic = tracer.counts == again.counts
    if not deterministic:
        diff = sorted(k for k in set(tracer.counts) | set(again.counts)
                      if tracer.counts[k] != again.counts[k])
        print("DETERMINISM CHECK FAILED: two traced passes with seed %d "
              "counted differently: %s" % (seed, ", ".join(diff)),
              file=sys.stderr)
    c, s = tracer.counts, tracer.self_s
    others = sum(s[layer] for layer in LAYERS if layer != "solve")
    fractions_s, base_s = _fractions_time(profile)

    metrics = {
        "reader.clauses": (c["reader.clauses"], "count"),
        "reader.s": (s["reader"], "s"),
        "expand.s": (s["expand"], "s"),
        "solve.goals": (c["solve.goals"], "count"),
        "solve.self_s": (spent - others, "s"),
        "solve.drain.calls": (c["solve.drain.calls"], "count"),
        "solve.drain.woken": (c["susp.pop.hits"], "count"),
        "terms.copy_term.calls": (c["terms.copy_term.calls"], "count"),
        "terms.copy_term.s": (s["terms"], "s"),
        "store.unify.calls": (c["store.unify.calls"], "count"),
        "store.unify.fail_frac": (_frac(c["store.unify.fails"],
                                        c["store.unify.calls"]), "ratio"),
        "store.bind.calls": (c["store.bind.calls"], "count"),
        "store.trail.bind": (c["store.trail.bind"], "count"),
        "store.trail.val": (c["store.trail.val"], "count"),
        "store.trail.val_dedup_frac": (_frac(
            c["store.trail_value.calls"] - c["store.trail.val"],
            c["store.trail_value.calls"]), "ratio"),
        "store.trail.undo": (c["store.trail.undo"], "count"),
        "store.choicepoints": (c["store.choicepoints"], "count"),
        "store.backtracks": (c["store.backtracks"], "count"),
        "store.unwound": (c["store.unwound"], "count"),
        "store.s": (s["store"], "s"),
        "susp.scheduled": (c["susp.scheduled"], "count"),
        "susp.pop.calls": (c["susp.pop.calls"], "count"),
        "susp.pop.hit_frac": (_frac(c["susp.pop.hits"], c["susp.pop.calls"]),
                              "ratio"),
        "susp.s": (s["susp"], "s"),
        "attvar.hook.calls": (c["attvar.hook.calls"], "count"),
        "attvar.hook.s": (s["attvar"], "s"),
        "arith.eval.calls": (c["arith.eval.calls"], "count"),
        "arith.s": (s["arith"], "s"),
        "ic.posts": (c["ic.posts"], "count"),
        "ic.runs": (c["ic.runs"], "count"),
        "ic.useful_frac": (_frac(c["ic.useful_runs"], c["ic.runs"]), "ratio"),
        "ic.narrowings": (c["ic.narrowings"], "count"),
        "ic.wipeouts": (c["ic.wipeouts"], "count"),
        "ic.s": (s["ic"], "s"),
        "fractions.s": (fractions_s, "s"),
        "fractions.base_s": (base_s, "s"),
        "search.values_tried": (c["search.values_tried"], "count"),
        "search.values_ok_frac": (_frac(c["search.values_ok"],
                                        c["search.values_tried"]), "ratio"),
        "search.values_materialised": (c["search.values_materialised"],
                                       "count"),
        "search.s": (s["search"], "s"),
        "writer.s": (s["writer"], "s"),
        "writer.chars": (c["writer.chars"], "count"),
        "trace.overhead": (spent / plain_s, "ratio"),
    }
    shares = {layer: s[layer] for layer in LAYERS}
    shares["solve"] = spent - others
    log("batch: %d queries; engine time %.3f s untraced, %.3f s traced"
        % (len(queries), plain_s, spent))
    log("self time by layer (traced): " + ", ".join(
        "%s %.1f%%" % (layer, 100 * t / spent)
        for layer, t in sorted(shares.items(), key=lambda kv: -kv[1])))
    log("fractions: %.3f s of %.3f s profiled (%.1f%%)"
        % (fractions_s, base_s, 100 * _frac(fractions_s, base_s)))
    log("determinism check: %s" % ("passed" if deterministic else "FAILED"))
    return deterministic and failed == 0, attempted, failed, {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()}


def _frac(part, whole):
    return part / whole if whole else 0.0


def _fractions_time(profile):
    """(self time in the fractions module, total self time) of a profile."""
    stats = pstats.Stats(profile).stats
    total = sum(entry[2] for entry in stats.values())
    frac = sum(entry[2] for (filename, _, _), entry in stats.items()
               if Path(filename).name == "fractions.py")
    return frac, total


# ----------------------------------------------------------------------
# header and entry point

def _commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def header(args):
    log("workload %s, seed %d, seconds %g, trace %d"
        % (args.workload, args.seed, args.seconds, args.trace))
    log("python %s on %s, host %s, nproc %d, recursion limit %d"
        % (platform.python_version(), platform.platform(), platform.node(),
           len(os.sched_getaffinity(0)), sys.getrecursionlimit()))
    log("commit %s" % _commit())


def main(argv=None):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import clpkernel
    except ImportError as e:
        print("cannot import the engine from %s: %s" % (ROOT / "src", e),
              file=sys.stderr)
        return 2
    if not Path(clpkernel.__file__).resolve().is_relative_to(ROOT / "src"):
        print("the engine must come from %s, not %s"
              % (ROOT / "src", clpkernel.__file__), file=sys.stderr)
        return 2

    header(args)
    workload = WORKLOADS[args.workload]
    if args.trace:
        correct, attempted, failed, metrics = traced_run(workload, args.seed)
    else:
        correct, attempted, failed, metrics = timed_run(
            workload, args.seed, args.seconds)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
