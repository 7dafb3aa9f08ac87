"""The clpk command line driver and its REPL."""

import os
import shutil
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import pytest

from clpkernel import cli, make_engine
from clpkernel.cli import main
from clpkernel.errors import FlounderingError, ReaderError


def run_main(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def run_repl(text, *argv):
    # the child imports the engine from this checkout, as the tests do
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run(
        [sys.executable, "-m", "clpkernel.cli"] + list(argv),
        input=text, capture_output=True, text=True, timeout=30, env=env)


def test_goal_first_solution(capsys):
    rc, out, _ = run_main(capsys, "-g", "member(X, [a, b])")
    assert rc == 0
    assert out == "X = a\nyes\n"


def test_goal_failure(capsys):
    rc, out, _ = run_main(capsys, "-g", "fail")
    assert rc == 1
    assert out == "no\n"


def test_goal_all_solutions(capsys):
    rc, out, _ = run_main(capsys, "-g", "member(X, [a, b])", "--all")
    assert rc == 0
    assert out == "X = a\n\nX = b\n\nyes\n"


def test_goal_count(capsys):
    rc, out, _ = run_main(capsys, "-g", "member(X, [a, b, c])", "-c")
    assert (rc, out) == (0, "3\n")
    rc, out, _ = run_main(capsys, "-g", "member(x, [a, b])", "-c")
    assert (rc, out) == (1, "0\n")


def test_goal_errors_exit_2(capsys):
    rc, _, err = run_main(capsys, "-g", "no_such_predicate_here")
    assert rc == 2
    assert err.startswith("error:")
    rc, _, err = run_main(capsys, "-g", "f(")
    assert rc == 2
    assert "error:" in err


def test_text_after_the_goal_is_refused(capsys):
    # a query is one term: a '.' may end it, but nothing may follow
    assert make_engine().once("X = 1.")["X"] == 1
    with pytest.raises(ReaderError, match="trailing input"):
        make_engine().once("X = 1. Y = 2")
    rc, out, err = run_main(capsys, "-g", "X = 1. Y = 2")
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "trailing input" in err


def test_add_attr_of_a_solver_attribute_exits_2_with_one_line(capsys):
    for name in ("ic", "suspend"):
        rc, out, err = run_main(capsys, "-g", "add_attr(X, %s, foo), X = 2"
                                % name)
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err


def test_a_builtin_that_raises_exits_2_with_one_line(capsys):
    rc, out, err = run_main(capsys, "-g", "ic_lin_con(a, foo, [X])")
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_float_overflow_exits_2_with_one_line(capsys):
    rc, out, err = run_main(capsys, "-g", "X is 2.0 ** 10000")
    assert (rc, out, err) == (2, "", "error: arithmetic: float overflow\n")


@pytest.mark.parametrize("goal, rc, out, err", [
    ("X is 10^5000", 0, "X = 1%s\nyes\n" % ("0" * 5000), ""),
    ("X = %s" % ("7" * 5001), 0, "X = %s\nyes\n" % ("7" * 5001), ""),
    ("X is 1.0Inf - 1.0Inf", 2, "", "error: arithmetic: undefined\n"),
    ("X is 10^(10^10)", 2, "",
     "error: arithmetic: a power of more than 4194304 bits\n"),
    ("X is 3^4000000", 2, "",
     "error: arithmetic: a power of more than 4194304 bits\n"),
    ("X :: -1.0Inf..1.0Inf", 0, "X = _{-1.0Inf..1.0Inf}\nyes\n", ""),
    ("X is 1.5__1.5 ^ (10^10)", 0,
     "X = 1.7976931348623157e+308__1.0Inf\nyes\n", ""),
    ("X is 0.5__0.75 ^ (10^10)", 0, "X = 0.0__5e-324\nyes\n", ""),
    ("X is 1.5__1.5 ^ 3", 0, "X = 3.375__3.375\nyes\n", "")])
def test_numbers_at_their_limits_end_in_an_answer_or_one_line(
        capsys, goal, rc, out, err):
    t0 = time.process_time()
    assert run_main(capsys, "-g", goal) == (rc, out, err)
    assert time.process_time() - t0 < 1


def test_infinite_bounds_print_as_they_read(capsys):
    rc, out, _ = run_main(capsys, "-g", "get_var_bounds(X, L, H)")
    assert (rc, out) == (0, "L = -1.0Inf\nH = 1.0Inf\nyes\n")
    rc, out, _ = run_main(capsys, "-g", "X is 1.0Inf, Y is -X")
    assert (rc, out) == (0, "X = 1.0Inf\nY = -1.0Inf\nyes\n")


def _lower_recursion_limit(headroom):
    """Leave only ``headroom`` frames above the current depth."""
    limit = 1
    f = sys._getframe()
    while f is not None:
        limit, f = limit + 1, f.f_back
    while True:  # the interpreter's depth also counts calls made from C
        try:
            sys.setrecursionlimit(limit)
            break
        except RecursionError:
            limit += 1
    sys.setrecursionlimit(limit + headroom)


def test_recursion_limit_exits_2_with_one_line(capsys, monkeypatch, tmp_path):
    # the goal runs a few frames below the recursion limit, so it
    # overflows however deep the solver itself may recurse
    real_run_goal = cli.run_goal

    def shallow_run_goal(*args, **kwargs):
        old = sys.getrecursionlimit()
        _lower_recursion_limit(4)
        try:
            return real_run_goal(*args, **kwargs)
        finally:
            sys.setrecursionlimit(old)

    monkeypatch.setattr(cli, "run_goal", shallow_run_goal)
    f = tmp_path / "deep.pl"
    f.write_text("count_to(N, N).\n"
                 "count_to(I, N) :- I < N, I1 is I + 1, count_to(I1, N).\n")
    rc, out, err = run_main(capsys, str(f), "-g", "count_to(0, 1000)")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: maximum recursion depth exceeded")
    assert err.count("\n") == 1


def test_memory_error_exits_2_with_one_line(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "run_goal", exhausted)
    rc, out, err = run_main(capsys, "-g", "true")
    assert (rc, out, err) == (2, "", "error: out of memory\n")


def test_interrupt_exits_130_with_one_line(capsys, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_goal", interrupted)
    rc, out, err = run_main(capsys, "-g", "true")
    assert (rc, out, err) == (130, "", "interrupted\n")


#: the address space of a child that is meant to run out of memory: room
#: for the interpreter and the engine, and little more
CHILD_MEMORY = 200 * 2 ** 20


def clpk_child(tmp_path, program, goal, **kwargs):
    """Start ``clpk`` on a program file in a child process, unbuffered, as
    `run_repl` does."""
    f = tmp_path / "prog.pl"
    f.write_text(program)
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.Popen(
        [sys.executable, "-u", "-m", "clpkernel.cli", str(f), "-g", goal],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        **kwargs)


def test_running_out_of_memory_exits_2_with_one_line(tmp_path):
    resource = pytest.importorskip("resource")

    def limit_memory():  # in the child only
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))

    p = clpk_child(tmp_path, "p :- p, q.\n", "p", preexec_fn=limit_memory)
    out, err = p.communicate(timeout=60)
    assert (p.returncode, out, err) == (2, "", "error: out of memory\n")


def test_ctrl_c_exits_130_with_one_line(tmp_path):
    signal = pytest.importorskip("signal")
    p = clpk_child(tmp_path, "loop :- loop.\n", "write(started), nl, loop")
    try:
        assert p.stdout.readline() == "started\n"  # the loop is running
        p.send_signal(signal.SIGINT)
        out, err = p.communicate(timeout=30)
    finally:
        p.kill()
    assert (p.returncode, out, err) == (130, "", "interrupted\n")


def test_loads_program_files(capsys, tmp_path):
    f = tmp_path / "facts.pl"
    f.write_text("p(1).\np(2).\n")
    rc, out, _ = run_main(capsys, str(f), "-g", "p(X)", "-a")
    assert rc == 0
    assert out == "X = 1\n\nX = 2\n\nyes\n"


def test_missing_file_exits_2(capsys):
    rc, _, err = run_main(capsys, "/no/such/file.pl", "-g", "true")
    assert rc == 2
    assert "error:" in err


def test_halt_code_is_the_exit_status(capsys, tmp_path):
    rc, _, _ = run_main(capsys, "-g", "halt(3)")
    assert rc == 3
    f = tmp_path / "stop.pl"
    f.write_text(":- halt(5).\n")
    assert main([str(f)]) == 5


def test_domain_variables_render_with_their_domain(capsys):
    rc, out, _ = run_main(capsys, "-g", "X :: 3..5")
    assert rc == 0
    assert out == "X = _{3..5}\nyes\n"


def test_delayed_goals_are_reported(capsys):
    rc, out, _ = run_main(capsys, "-g", "X :: 0..9, Y :: 0..9, X + Y #= 4")
    assert rc == 0
    assert out == ("X = _{0..4}\nY = _{0..4}\n"
                   "Delayed goals:\n"
                   "    X{0..4} + Y{0..4} + -4 #= 0\n"
                   "yes\n")
    # a variable that only has suspensions waiting on it is still free
    rc, out, _ = run_main(capsys, "-g", "suspend(true, 3, X -> inst)")
    assert rc == 0
    assert out == "Delayed goals:\n    true\nyes\n"


# Delayed goals as they print: an answer's list (`Engine.ask`) and the
# lines of clpk.  ic demons keep no goal term; theirs is built from the
# payload when printed, and must read as the posted term always did.
_DELAYED_GOLDEN = [
    ("X :: 1..5, Y :: 1..5, 2 * X - 3 * Y #\\= 1",
     ["2 * _{1..5} + -3 * _{1..5} + -1 #\\= 0"],
     "X = _{1..5}\nY = _{1..5}\nDelayed goals:\n"
     "    2 * X{1..5} + -3 * Y{1..5} + -1 #\\= 0\n"),
    ("X :: 1..9, Y :: 1..9, X #\\= Y + 2",
     ["_{1..9} + -1 * _{1..9} + -2 #\\= 0"],
     "X = _{1..9}\nY = _{1..9}\nDelayed goals:\n"
     "    X{1..9} + -1 * Y{1..9} + -2 #\\= 0\n"),
    ("X :: 0.0..3.0, ic_lin_con(\\=, -1, [1*X, 0*Y, 2*Z])",
     ["_{0.0..3.0} + 0 * _ + 2 * _ + -1 #\\= 0"],
     "X = _{0.0..3.0}\nDelayed goals:\n"
     "    X{0.0..3.0} + 0 * Y + 2 * Z + -1 #\\= 0\n"),
    ("[X, Y, Z] :: 1..3, alldifferent([X, Y, 3, Z])",
     ["alldifferent([_{1..2}, _{1..2}, 3, _{1..2}])"],
     "X = _{1..2}\nY = _{1..2}\nZ = _{1..2}\nDelayed goals:\n"
     "    alldifferent([X{1..2}, Y{1..2}, 3, Z{1..2}])\n"),
    ("dif(f(X, b), f(a, Y))",
     ["dif(f(_, b), f(a, _))"],
     "Delayed goals:\n    dif(f(X, b), f(a, Y))\n"),
    ("suspend(X > 1, 2, X -> inst)",
     ["_ > 1"],
     "Delayed goals:\n    X > 1\n"),
    ("suspend(integer(Y), 3, [X, Y] -> inst)",
     ["integer(_)"],
     "Delayed goals:\n    integer(Y)\n"),
]


@pytest.mark.parametrize("goal, delayed, lines", _DELAYED_GOLDEN)
def test_delayed_goals_print_as_posted(capsys, goal, delayed, lines):
    engine = make_engine()
    assert engine.once(goal).delayed == delayed
    rc, out, _ = run_main(capsys, "-g", goal)
    assert rc == 0
    assert out == lines + "yes\n"


@pytest.mark.parametrize("goal, message, goals", [
    ("findall(X, (X :: 1..3, Y :: 1..3, X #\\= Y), L)",
     "findall: a solution left goals delayed; the solution set is not "
     "enumerable", ["_{1..3} + -1 * _{1..3} #\\= 0"]),
    ("findall(X, alldifferent([X, Y]), L)",
     "findall: a solution left goals delayed; the solution set is not "
     "enumerable", ["alldifferent([_, _])"]),
    ("count_solutions(dif(X, a), N)",
     "count_solutions: a solution left goals delayed", ["dif(_, a)"]),
    ("findall(X, suspend(X > 1, 2, X -> inst), L)",
     "findall: a solution left goals delayed; the solution set is not "
     "enumerable", ["_ > 1"]),
])
def test_floundering_messages_print_the_delayed_goals(goal, message, goals):
    with pytest.raises(FlounderingError) as e:
        make_engine().ask(goal)
    assert str(e.value) == message
    assert e.value.goals == goals


def test_canonical_answers(capsys):
    rc, out, _ = run_main(capsys, "-g", "X = (a :- 'b c')")
    assert out == "X = a :- 'b c'\nyes\n"
    rc, out, _ = run_main(capsys, "--canonical", "-g", "X = (a :- 'b c')")
    assert out == "X = :-(a, 'b c')\nyes\n"


def install_project(tmp_path):
    """Install a copy of the project under tmp_path with its own build
    backend (setuptools) and return the install's sysconfig paths.

    The copy keeps build output out of the working tree.  The
    setuptools `install` command needs neither the network nor the
    `wheel` package, so it works where `pip install` cannot."""
    setuptools = pytest.importorskip("setuptools")
    root = Path(__file__).resolve().parent.parent
    proj = tmp_path / "proj"
    proj.mkdir()
    shutil.copy(root / "pyproject.toml", proj)
    shutil.copytree(root / "src", proj / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    prefix = tmp_path / "prefix"
    paths = sysconfig.get_paths(vars={"base": str(prefix),
                                      "platbase": str(prefix)})
    p = subprocess.run(
        [sys.executable, "-c", "import setuptools; setuptools.setup()",
         "install", "--prefix", str(prefix),
         "--install-lib", paths["purelib"],
         "--install-scripts", paths["scripts"],
         "--single-version-externally-managed",
         "--record", str(tmp_path / "installed.txt")],
        cwd=proj, capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, (
        f"setuptools {setuptools.__version__} install failed:\n"
        + p.stdout + p.stderr)
    return paths


def test_console_script_is_installed(tmp_path):
    paths = install_project(tmp_path)
    env = dict(os.environ,
               PATH=os.pathsep.join([paths["scripts"],
                                     os.environ.get("PATH", "")]),
               PYTHONPATH=paths["purelib"])
    p = subprocess.run(["clpk", "-g", "X is 6 * 7"], cwd=tmp_path, env=env,
                       capture_output=True, text=True, timeout=30)
    assert p.returncode == 0, p.stderr
    assert p.stdout == "X = 42\nyes\n"


def test_repl_semicolon_asks_for_more():
    p = run_repl("member(X, [1, 2]).\n;\n;\nX = 9.\n")
    assert p.returncode == 0
    assert p.stdout == ("X = 1\nX = 2\nno (no more solutions)\n"
                        "X = 9\nyes\n\n")


def test_repl_anything_else_stops_the_query():
    p = run_repl("member(X, [1, 2]).\n\nX = 9.\n")
    assert p.returncode == 0
    assert p.stdout == "X = 1\nyes\nX = 9\nyes\n\n"


def test_repl_reports_errors_and_carries_on():
    p = run_repl("no_such_predicate_here.\nX = 1.\n")
    assert p.returncode == 0
    assert p.stdout.startswith("error:")
    assert "X = 1\nyes\n" in p.stdout


def test_repl_halt():
    p = run_repl("halt(4).\n")
    assert p.returncode == 4


@pytest.mark.parametrize("goal, lines", [
    ("suspend(member(X, [1,2,3]), 3, Y -> inst), Y = 1, X > 1",
     "X = 2\nY = 1\n"),
    ("X :: 1..3, suspend(indomain(X), 3, Y -> inst), Y = 1, X > 1",
     "X = 2\nY = 1\n"),
    ("findall(X, (suspend(member(X, [1,2,3]), 3, Y -> inst), Y = 1), L)",
     "L = [1, 2, 3]\n"),
])
def test_woken_goals_leave_their_alternatives(capsys, goal, lines):
    rc, out, _ = run_main(capsys, "-g", goal)
    assert (rc, out) == (0, lines + "yes\n")
