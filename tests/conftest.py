import pytest

from clpkernel import make_engine
from clpkernel.susp import MAIN_PRIORITY


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
