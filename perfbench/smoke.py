"""Smoke test of the benchmark: every workload at a tiny size.

    python3 perfbench/smoke.py

Runs each workload on the first three queries of its pool, timed and
traced, in this process.  Checks that no query failed, that each run
reports exactly the metrics BENCHMARK.json names, with their units, and
that the nrev inference formula agrees with a counted pass.  Exits 1 on
the first failure.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run
from workloads import WORKLOADS, Query, Workload

TINY = 3


def fail(text):
    print("FAIL: " + text)
    sys.exit(1)


def check_metrics(label, result, spec):
    correct, attempted, failed, metrics = result
    if not correct or failed or attempted < 1:
        fail("%s: correct=%s attempted=%d failed=%d"
             % (label, correct, attempted, failed))
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        fail("%s: metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "units %s" % (label, sorted(set(want) - set(got)),
                           sorted(set(got) - set(want)),
                           sorted(n for n in set(want) & set(got)
                                  if want[n] != got[n])))
    print("ok %-14s %d queries, %d metrics" % (label, attempted, len(got)))


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json lists other workloads than workloads.py")
    for w in WORKLOADS.values():
        tiny = Workload(w.name, w.program,
                        lambda rng, make=w.make_pool: make(rng)[:TINY],
                        trace_queries=TINY)
        check_metrics(w.name + " timed", run.timed_run(tiny, 1, 0, 1),
                      bench["end_to_end"])
        check_metrics(w.name + " traced", run.traced_run(tiny, 1),
                      bench["per_layer"])

    pool = WORKLOADS["core"].make_pool(random.Random(1))[:TINY]
    counted = run.query_inferences(
        run.new_engine(WORKLOADS["core"].program),
        [Query(q.goal, q.show, q.limit, q.check) for q in pool], [1] * TINY)
    if counted != [q.inferences for q in pool]:
        fail("nrev inferences: counted %s, formula %s"
             % (counted, [q.inferences for q in pool]))
    print("ok nrev inference formula matches the counted calls")


if __name__ == "__main__":
    main()
