"""Every name a module of the package imports is used in that module,
and every module it imports from outside the package is in the standard
library.

No linter is assumed: the checks parse each module with ``ast``.  A name
counts as used when it appears as an identifier anywhere in the module
(code, annotations, nested functions).  ``__init__.py`` is left out of
the first check: its imports are the package's public names.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "clpkernel"
EVERY_MODULE = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in EVERY_MODULE if p.name != "__init__.py"]


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


def absolute_imports(source):
    """The top-level module of every absolute import in source, in order;
    a relative import (``from . import x``) names the package itself."""
    tree = ast.parse(source)
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_the_check_sees_absolute_imports():
    source = ("import os.path, pytest\nfrom . import terms\n"
              "from .store import Store\nfrom numpy.linalg import norm\n"
              "def f():\n    import json\n")
    assert absolute_imports(source) == ["os", "pytest", "numpy", "json"]


@pytest.mark.parametrize("path", EVERY_MODULE, ids=lambda p: p.name)
def test_only_the_standard_library_is_imported(path):
    names = absolute_imports(path.read_text(encoding="utf-8"))
    assert [n for n in names if n not in sys.stdlib_module_names] == []
