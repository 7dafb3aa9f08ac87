"""Command-line front end: load programs, run goals, or talk to a REPL.

    clpk file.pl -g "solve(X)"          first solution, then yes/no
    clpk file.pl -g "solve(X)" -a       all solutions
    clpk file.pl -g "solve(X)" -c       just count the solutions
    clpk file.pl                        interactive prompt

Exit status: 0 when the goal succeeded, 1 when it failed, 2 on errors,
Python's recursion and memory limits included, and 130 when interrupted
(Ctrl-C).  An error or an interrupt is reported in one line on stderr.
"""

from __future__ import annotations

import argparse
import sys

from .errors import EngineError, Halt
from .solve import make_engine
from .terms import deref


def build_argparser():
    ap = argparse.ArgumentParser(
        prog="clpk",
        description="A small constraint logic programming system.")
    ap.add_argument("files", nargs="*", help="program files to load")
    ap.add_argument("-g", "--goal", help="goal to run (instead of the REPL)")
    ap.add_argument("-a", "--all", action="store_true",
                    help="show every solution, not just the first")
    ap.add_argument("-c", "--count", action="store_true",
                    help="print only the number of solutions")
    ap.add_argument("--canonical", action="store_true",
                    help="write answers in canonical form")
    return ap


def _answer_lines(engine, varmap, canonical):
    names = {}
    for name, v in varmap.items():
        names.setdefault(id(deref(v)), name)
    lines = []
    for name, v in varmap.items():
        if name.startswith("_"):
            continue
        d = deref(v)
        if d is v and all(n == "suspend" for n in v.attrs):
            continue  # still free; its suspensions show as delayed goals
        local = names
        if names.get(id(d)) == name:
            # a variable does not name itself in its own binding
            local = dict(names)
            del local[id(d)]
        text = engine.format_term(d, names=local, canonical=canonical,
                                  quoted=True)
        if text == name:
            continue  # an aliased variable reporting itself
        lines.append("%s = %s" % (name, text))
    delayed = engine.pending()
    if delayed:
        lines.append("Delayed goals:")
        for s in delayed:
            lines.append("    %s" % engine.format_goal(s, names=names))
    return lines


def run_goal(engine, text, show_all=False, count=False, canonical=False):
    goal, varmap = engine.parse_goal(text)
    n = 0
    for _ in engine.solutions(goal):
        n += 1
        if not count:
            lines = _answer_lines(engine, varmap, canonical)
            if lines:
                print("\n".join(lines))
        if not (show_all or count):
            break
        if not count and show_all:
            print()
    if count:
        print(n)
    else:
        print("yes" if n else "no")
    return 0 if n else 1


def _read_line(prompt):
    if sys.stdin.isatty():
        return input(prompt)
    line = sys.stdin.readline()
    if not line:
        raise EOFError
    return line.rstrip("\n")


def repl(engine, canonical=False):
    while True:
        try:
            line = _read_line("?- ")
        except EOFError:
            print()
            return 0
        except KeyboardInterrupt:
            print()
            continue
        if not line.strip():
            continue
        try:
            goal, varmap = engine.parse_goal(line)
            _repl_query(engine, goal, varmap, canonical)
        except Halt:
            raise
        except EngineError as e:
            print("error: %s" % e)
        except KeyboardInterrupt:
            print("aborted")


def _repl_query(engine, goal, varmap, canonical):
    any_ = False
    for _ in engine.solutions(goal):
        any_ = True
        lines = _answer_lines(engine, varmap, canonical)
        if lines:
            print("\n".join(lines))
        try:
            more = _read_line("  ? (; for more) ").strip()
        except EOFError:
            more = ""
        if more != ";":
            print("yes")
            return
    print("no" if not any_ else "no (no more solutions)")


def main(argv=None):
    args = build_argparser().parse_args(argv)
    try:
        return _run(args)
    except Halt as h:
        return h.code
    except (EngineError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except RecursionError as e:
        # Python's own limits, not an answer: exit 1 would read as "no"
        print("error: %s" % e, file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except MemoryError:
        # the traceback holds _run's frame and so the engine: report after
        # leaving the handler, which drops both
        pass
    print("error: out of memory", file=sys.stderr)
    return 2


def _run(args):
    engine = make_engine()
    for path in args.files:
        engine.load_file(path)
    if args.goal is not None:
        return run_goal(engine, args.goal, show_all=args.all,
                        count=args.count, canonical=args.canonical)
    return repl(engine, canonical=args.canonical)


if __name__ == "__main__":
    sys.exit(main())
