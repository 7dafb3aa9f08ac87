"""The benchmark's own smoke run, as part of the test suite.

perfbench wraps engine internals by name (Engine._run_builtin,
Engine._call_user, Engine.drain, the ic narrowing functions,
search._finite_values and more), so a refactor that renames one of them
breaks the benchmark.  Running its smoke script here makes that a test
failure instead of a failed benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_runs_clean():
    p = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")],
                       cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stdout[-2000:] + p.stderr[-2000:]
