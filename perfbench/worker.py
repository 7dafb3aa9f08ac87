"""One worker process of a timed run.

    python3 perfbench/worker.py < request.json > reply.json

``run.py`` starts one per share of a timed run, each in a fresh
interpreter, and waits for it.  The request is a JSON object with the
arguments of ``measure``; the reply is the JSON object it returns.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import sys
import time

import calibrate
import run
from workloads import Query


def measure(program, goals, rng_seed, seconds, min_queries):
    """Whole rounds over the goals until the time is up and enough queries
    ran, so every worker measures the same mix.  Before each query the
    calibration routine and a set-up are timed, which spreads their
    samples over the run.  Returns the calibration times, the set-up
    times, [pool index, seconds, answers or None on an error] per query,
    and the peak resident memory in MB."""
    pool = [Query(goal, show, limit, None) for goal, show, limit in goals]
    engine = run.new_engine(program)
    calibration, setup, results = [], [], []
    start = time.perf_counter()
    deadline = start + run.MAX_SECONDS
    for order in run.rounds(pool, random.Random(rng_seed)):
        now = time.perf_counter()
        if (now - start >= seconds and len(results) >= min_queries) \
                or now >= deadline:
            break
        for i in order:
            if time.perf_counter() >= deadline:
                break
            calibration.append(calibrate.sample(run.CLOCK))
            t0 = run.CLOCK()
            run.new_engine(program)
            setup.append(run.CLOCK() - t0)
            # the set-up engine is cyclic garbage no user would leave
            # behind; collect it here, not inside the next query's time
            gc.collect()
            t0 = run.CLOCK()
            try:
                dt, answers = run.run_query(engine, pool[i])
            except Exception as e:  # a failed query must not stop the run
                print("query failed: %s: %s: %s" % (
                    pool[i].goal[:80], type(e).__name__, e), file=sys.stderr)
                dt, answers = run.CLOCK() - t0, None
            results.append([i, dt, answers])
    return {"calibration": calibration, "setup": setup, "results": results,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    json.dump(measure(**json.load(sys.stdin)), sys.stdout)


if __name__ == "__main__":
    main()
