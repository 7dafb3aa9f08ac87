import importlib
import pkgutil

import pytest

import clpkernel
from clpkernel import make_engine
from clpkernel.susp import MAIN_PRIORITY


def class_namespaces():
    """``{(class name, attribute name): id(value)}`` over every class
    defined in a clpkernel module.  The package writes no class attribute
    after import (see `clpkernel.terms.Var`), so this never changes."""
    snap = {}
    for info in pkgutil.iter_modules(clpkernel.__path__, "clpkernel."):
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                for name, value in vars(cls).items():
                    snap[cls.__qualname__, name] = id(value)
    return snap


def class_changes_since(before):
    """The (class, attribute) pairs added, removed or rebound since the
    snapshot ``before``."""
    after = class_namespaces()
    return sorted(k for k in before.keys() | after.keys()
                  if before.get(k) != after.get(k))


@pytest.fixture(autouse=True, scope="session")
def class_namespaces_unchanged():
    """Neither the package nor a test leaves a class changed: a test that
    patches a class must restore it (``monkeypatch`` does)."""
    before = class_namespaces()
    yield
    assert class_changes_since(before) == []


@pytest.fixture
def class_changes():
    """Call it to get the (class, attribute) pairs changed since the
    fixture was set up."""
    before = class_namespaces()
    return lambda: class_changes_since(before)


@pytest.fixture
def engine():
    return make_engine()


def _check_left_clean(engine):
    """After a query the store holds no choicepoint and the engine runs at
    the main resolvent's priority again."""
    assert engine.store.choicepoints == []
    assert engine.running_priority == MAIN_PRIORITY


@pytest.fixture
def ask(engine):
    def run(text, limit=None):
        got = engine.ask(text, limit=limit)
        _check_left_clean(engine)
        return got
    return run


@pytest.fixture
def first(engine):
    """Run a query and return the first Answer, or None."""
    def run(text):
        got = engine.once(text)
        _check_left_clean(engine)
        return got
    return run


@pytest.fixture
def fmt(engine):
    return engine.format_term
