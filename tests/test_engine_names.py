"""Guards against silent breakage of names that code outside the engine
relies on.

``perfbench/tracer.py`` and ``perfbench/run.py`` patch and read engine
functions and attributes by name.  A renamed or removed name would fail
only inside the long benchmark smoke run, so this module finds, with
``ast``, every ``module.name``, ``Class.name`` and ``(owner, "name")``
reference in those two files and checks that each still exists.

The woken-run dispatch gives a demon its suspension as its arguments, so
no engine code needs to tell a woken run from a post by comparing a
suspension goal's ``args`` by identity; a check keeps it that way.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

from clpkernel import attvar, make_engine
from clpkernel.store import Store
from clpkernel.susp import Scheduler

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "clpkernel"
PERFBENCH = [ROOT / "perfbench" / "tracer.py", ROOT / "perfbench" / "run.py"]

#: attributes read on objects that the two files reach only at run time
INSTANCE_NAMES = [
    (Store(), "trail"),            # tracer: st.trail, replaced by a counter
    (Scheduler(Store()), "buckets"),  # tracer: args[0].buckets
]


# ----------------------------------------------------------------------
# the names perfbench uses

class _Names(ast.NodeVisitor):
    """Resolve names bound to clpkernel modules and their members, and
    collect each (object, attribute name, line) the source refers to."""

    def __init__(self, engine):
        self.env = {"engine": engine}
        self.refs = []

    def resolve(self, node):
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = self.resolve(node.value)
            if owner is not None:
                return getattr(owner, node.attr, None)
        return None

    def refer(self, owner_node, name, line):
        owner = self.resolve(owner_node)
        if owner is not None:
            self.refs.append((owner, name, line))

    def visit_ImportFrom(self, node):
        if node.module != "clpkernel" and not (
                node.module or "").startswith("clpkernel."):
            return
        module = importlib.import_module(node.module)
        for a in node.names:
            try:  # a submodule is imported by the statement itself
                importlib.import_module(node.module + "." + a.name)
            except ImportError:
                pass
            self.refs.append((module, a.name, node.lineno))
            self.env[a.asname or a.name] = getattr(module, a.name, None)

    def visit_Assign(self, node):
        self.generic_visit(node)
        for target in node.targets:
            if isinstance(target, ast.Name):
                value = self.resolve(node.value)
                if value is not None:
                    self.env[target.id] = value
            elif (isinstance(target, ast.Tuple)
                  and isinstance(node.value, ast.Tuple)
                  and len(target.elts) == len(node.value.elts)):
                for t, v in zip(target.elts, node.value.elts):
                    value = self.resolve(v)
                    if isinstance(t, ast.Name) and value is not None:
                        self.env[t.id] = value

    def visit_Attribute(self, node):
        self.generic_visit(node)
        self.refer(node.value, node.attr, node.lineno)

    def visit_Tuple(self, node):
        # (owner, "name", ...) as the tracer lists what it wraps
        self.generic_visit(node)
        self._pair(node.elts, node.lineno)

    def visit_Call(self, node):
        # self._patch(owner, "name", ...)
        self.generic_visit(node)
        self._pair(node.args, node.lineno)

    def visit_For(self, node):
        # for name in ("a", "b"): self._patch_function(owner, name, ...)
        self.generic_visit(node)
        if not (isinstance(node.target, ast.Name)
                and isinstance(node.iter, ast.Tuple)
                and all(isinstance(e, ast.Constant) for e in node.iter.elts)):
            return
        for call in ast.walk(node):
            if (isinstance(call, ast.Call) and len(call.args) >= 2
                    and isinstance(call.args[1], ast.Name)
                    and call.args[1].id == node.target.id):
                for e in node.iter.elts:
                    self.refer(call.args[0], e.value, call.lineno)

    def _pair(self, elts, line):
        if (len(elts) >= 2 and isinstance(elts[1], ast.Constant)
                and isinstance(elts[1].value, str)):
            self.refer(elts[0], elts[1].value, line)


def perfbench_refs(path, engine):
    names = _Names(engine)
    names.visit(ast.parse(path.read_text(encoding="utf-8")))
    return names.refs


def test_the_name_finder_sees_each_form():
    source = (
        "from clpkernel import ic, solve\n"
        "from clpkernel.store import Store\n"
        "Engine, S = (solve.Engine, Store)\n"
        "ic.no_such_function\n"
        "x = (Engine, 'no_such_method', 'solve')\n"
        "self._patch(S, 'no_such_slot', w)\n"
        "for name in ('impose_min', 'gone'):\n"
        "    self._patch_function(ic, name, w)\n"
        "def f(engine):\n"
        "    return engine.no_such_attribute\n")
    names = _Names(make_engine())
    names.visit(ast.parse(source))
    missing = sorted(n for owner, n, _ in names.refs if not hasattr(owner, n))
    assert missing == ["gone", "no_such_attribute", "no_such_function",
                       "no_such_method", "no_such_slot"]


@pytest.mark.parametrize("path", PERFBENCH, ids=lambda p: p.name)
def test_every_engine_name_perfbench_uses_exists(path):
    refs = perfbench_refs(path, make_engine())
    assert len(refs) > 5
    missing = ["%s:%d: %r has no %s" % (path.name, line, owner, name)
               for owner, name, line in refs if not hasattr(owner, name)]
    assert missing == []


def test_the_names_the_tracer_wraps_are_found():
    wrapped = {(getattr(owner, "__name__", None), name)
               for owner, name, _ in perfbench_refs(PERFBENCH[0],
                                                    make_engine())}
    for ref in [("Engine", "drain"), ("Engine", "solve"),
                ("Scheduler", "pop_runnable"), ("clpkernel.ic",
                                                "exclude_value"),
                ("Store", "__init__"), ("AttributeRegistry", "register")]:
        assert ref in wrapped
    refs = perfbench_refs(PERFBENCH[1], make_engine())
    assert {name for _, name, _ in refs} >= {"_call_user", "_run_builtin"}


def test_instance_names_perfbench_reads_exist():
    for owner, name in INSTANCE_NAMES:
        assert hasattr(owner, name), name
    engine = make_engine()
    # read by the tracer to tell woken ic runs from posts; always None
    assert engine.current_suspension is None
    # the tracer wraps the unify handlers with dataclasses.replace
    assert dataclasses.is_dataclass(attvar.AttributeSpec)
    assert "unify" in {f.name for f in dataclasses.fields(
        attvar.AttributeSpec)}


# ----------------------------------------------------------------------
# no identity test on a suspension goal's arguments

def _is_goal_args(node):
    """``<x>.goal.args`` or ``getattr(<x>.goal, "args", ...)``."""
    if isinstance(node, ast.Attribute) and node.attr == "args":
        return isinstance(node.value, ast.Attribute) and \
            node.value.attr == "goal"
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr" and len(node.args) >= 2
            and isinstance(node.args[0], ast.Attribute)
            and node.args[0].attr == "goal"
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == "args")


def goal_args_identity_tests(source):
    """Line numbers of the ``is`` / ``is not`` comparisons in source that
    have a suspension goal's ``args`` on either side."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            if any(_is_goal_args(side)
                   for side in [node.left] + node.comparators):
                out.append(node.lineno)
    return out


def test_the_identity_check_sees_both_forms():
    source = ("if s.goal.args is args:\n    pass\n"
              "ok = getattr(s.goal, 'args', None) is not bargs\n"
              "same = s.goal.args == args\n"
              "also = s.goal is g\n")
    assert goal_args_identity_tests(source) == [1, 3]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_suspension_goal_args_are_compared_by_identity(path):
    assert goal_args_identity_tests(path.read_text(encoding="utf-8")) == []
