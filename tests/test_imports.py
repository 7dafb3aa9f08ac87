"""Every name a module of the package imports is used in that module.

No linter is assumed: the check parses each module with ``ast``.  A name
counts as used when it appears as an identifier anywhere in the module
(code, annotations, nested functions).  ``__init__.py`` is left out: its
imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "clpkernel"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names bound by import statements in source that no identifier
    of source reads, in order of their import."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_unused_names():
    source = ("import os, sys\nimport os.path\nfrom x import a, b as c\n"
              "from __future__ import annotations\n"
              "def f():\n    from y import d\n    return sys, c\n")
    assert unused_imports(source) == ["os", "os", "a", "d"]


def test_the_package_has_modules():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
