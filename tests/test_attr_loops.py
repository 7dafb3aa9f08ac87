"""No loop over a variable's attributes unpacks their names.

``Var.attrs`` maps names to payloads, so ``for name, payload in v.attrs``
unpacks each *name*: a two-letter name such as ``ic`` splits into ``"i"``
and ``"c"`` with no error.  A loop over pairs needs ``.items()``.  No
linter is assumed: the check parses the package and the tests with
``ast``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py")])


def pair_loops_over_attrs(source):
    """The line numbers of the for statements and comprehensions in source
    that unpack each item of an ``.attrs``, in order."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension))
                and isinstance(node.target, (ast.Tuple, ast.List))
                and isinstance(node.iter, ast.Attribute)
                and node.iter.attr == "attrs"):
            lines.append(node.iter.lineno)
    return sorted(lines)


def test_the_check_sees_pair_loops():
    source = ("for n, p in v.attrs:\n    pass\n"
              "xs = [n for n, _ in x.attrs]\n"
              "for [n, p] in v.attrs:\n    pass\n"
              "for n, p in v.attrs.items():\n    pass\n"
              "ys = [n for n in x.attrs]\n"
              "for n, p in pairs:\n    pass\n")
    assert pair_loops_over_attrs(source) == [1, 3, 4]


def test_the_check_reads_the_package_and_the_tests():
    names = {p.name for p in FILES}
    assert {"store.py", "attvar.py", "test_unify.py"} <= names


def test_no_pair_loop_over_attrs():
    found = [(p.relative_to(ROOT).as_posix(), line) for p in FILES
             for line in pair_loops_over_attrs(p.read_text(encoding="utf-8"))]
    assert found == []
