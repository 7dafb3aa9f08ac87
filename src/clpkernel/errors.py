"""Exception hierarchy for the engine.

Failure is represented by boolean results / exhausted iterators, never by
exceptions.  Exceptions are reserved for errors: type violations, missing
predicates, syntax problems and so on.  They unwind through the interpreter
to the caller (or the toplevel, which prints them).
"""


class EngineError(Exception):
    """Base class for all engine-raised errors."""


class InstantiationError(EngineError):
    """An argument was an unbound variable where a value is required."""


class TypeError_(EngineError):
    """An argument had the wrong type."""


class DomainError(EngineError):
    """An argument had the right type but an inadmissible value."""


class RangeError(EngineError):
    """An index or size was out of range."""


class ExistenceError(EngineError):
    """A referenced predicate, module or attribute does not exist."""


class RegistrationError(EngineError):
    """A handler, attribute or macro was registered twice (or invalidly)."""


class ExpansionError(EngineError):
    """A macro or struct expansion could not be applied."""


class UnsupportedError(EngineError):
    """The construct is recognised but outside the engine's scope."""


class UncertaintyError(EngineError):
    """A comparison over overlapping bounded reals has no definite answer."""


class ArithmeticError_(EngineError):
    """Evaluation error: division by zero, bad operand and the like."""


class FlounderingError(EngineError):
    """A goal that must terminate cleanly left goals in the suspended
    resolvent (e.g. inside findall/3 or count_solutions/2)."""

    def __init__(self, message, goals=()):
        super().__init__(message)
        self.goals = list(goals)


class ReaderError(EngineError):
    """Syntax error with source position information."""

    def __init__(self, message, filename=None, line=None, column=None):
        self.filename = filename
        self.line = line
        self.column = column
        where = filename or "<input>"
        if line is not None:
            where = "%s:%d:%d" % (where, line, column if column is not None else 0)
        super().__init__("%s: %s" % (where, message))


class InternalError(EngineError):
    """Engine invariant violated; always a bug in the caller or the engine."""


class Halt(Exception):
    """Raised by halt/0,1 to leave the toplevel; carries the exit code."""

    def __init__(self, code=0):
        super().__init__(code)
        self.code = code
