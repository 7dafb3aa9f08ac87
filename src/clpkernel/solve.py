"""The resolution engine.

Goals are solved by one loop, `solve`, over a linked continuation of
``(goal, module, cut height, next)`` cells.  As in Warren's abstract
machine, every alternative is a mark on the store's choicepoint stack:
its ``alt`` is a clause retry (pushed only when a second clause is a
candidate under first-argument indexing, so a call with one candidate
pushes none), the other branch of a disjunction, or a builtin's, and
``cont`` is the continuation it resumes.  An if-then-else pushes one
mark, for its else branch, and runs the condition followed by a ``!``
whose height is that mark's index; a cut pops the choicepoints above its
height.  Backtracking into a bare mark, which has no alternative, is an
`InternalError`.

A builtin returns a bool or a ``(goal, module)`` pair, which runs in the
call's place with the choicepoint height at the call as its cut height,
so a cut in the goal prunes only what the goal pushed (``call/N``,
``once/1``, ``\\+/1``, ``not/1``, ``:/2``).  The goal may be a step, a
callable that is not a term, which the loop calls with the continuation.
A step's alternatives are marks whose ``alt`` is a callable, called with
its mark, still live: a labeled variable, the collector of findall/3 and
count_solutions/2.  Both return the continuation to go on with, or False
to backtrack.  Only `run_goal_once` (goal directives) and `solutions`
(the top level) enter `solve`.  When exhausted, `solve` drops its base
mark, which restores the store.  It has no ``finally``: a caller that
abandons it (`run_goal_once`, a closed `solutions`) cleans up with
``commit_to``/``drop_to`` on its *own* mark, and a late ``close()`` from
the garbage collector must not touch the store.

Suspended goals are woken through a two-stage scheme: events move
suspensions into the scheduler's priority queues, and the loop drains
them, as coroutining WAMs do, at one point: before it takes each goal
and before it yields a solution, when the scheduler's ``count`` says
some entry is queued and its ``low`` bound says one may be more urgent
than the running priority, so a step that woke nothing pays one test,
and a woken goal with only less urgent entries queued pays two.
`drain` runs the entries more urgent than `running_priority`, most
urgent first.  Every suspension that needs no resolvent has a ``run``,
set when it is made, and `drain` calls it through `_run_builtin` with the
suspension as the arguments: the ic demons' runs are their propagators,
which find their data in the suspension's payload, and a builtin goal
delayed by ``suspend/3`` or ``dif/2`` gets a run that calls its builtin
with the goal's arguments.  So a woken run is one dispatch, and posting
a demon builds no goal term: one is built from the payload only when
something prints it (`Suspension.goal_term`).  A bool result is the
outcome: no mark is pushed, and a failing demon's partial writes are
undone by the loop's backtracking.  The goal of a suspension without a
run (a user predicate's), or a pair a run returns (a woken ``call/1`` or
``indomain/1``), is an ordinary subgoal: it runs as cells in front of
the continuation, the goal with the choicepoint height as its cut
height (so its cut is local to it), then a step that restores the
running priority, and it may leave alternatives.  While it runs,
`running_priority` is its priority, so more urgent wakings interrupt it
before its next goal and less urgent ones wait.  `running_priority` is
value-trailed on the engine, so backtracking into a woken goal's
alternative runs it at the goal's priority again, and backtracking past
it restores the priority it interrupted.  `_run_builtin` is the one call
site of every builtin call and every woken run, and `_call_user` of
every user call.  Both are looked up on the engine at each call, so a
wrapper put on the class sees every call.

A goal is resolved by one rule, `Module.lookup_pred`, in the loop and
in `make_suspension`: the calling module's own predicate, else an
exported one of its imports, else that of a `PredName`.  The loop reads
the module's own ``preds`` inline and calls the rest of the rule,
`Module.lookup_imported`, only when that misses.  Nothing is cached, so
a definition, an import or an export counts from the next call on.

User clauses run as generated Python functions (the `clauses` module).
A clause is compiled when it is added, so it is a snapshot of its terms
at that moment, as ISO ``assert`` takes one, and it gets its function on
its first call.  The function matches the head against the goal's
arguments in place: a variable's first occurrence takes the goal subterm
as it is, later occurrences unify, a compound term that meets an unbound
goal variable is built and bound, and constants are compared.  Only when
the head matched does it build the body, already split into one
continuation cell per goal.  No clause is renamed by `copy_term`.  A
predicate's code (`Pred`, made by `pred_code`) is what `_call_user`
calls.  As WAM's ``switch_on_term`` does, it selects the candidate
clauses by the goal's first argument.  Where it has tested the key of a
single candidate, the clause's head and body run inline and its
first-argument match starts from what the test proved.  Otherwise it
enters the candidates through `clauses.enter`, which pushes a retry mark
only when there are two or more; the mark keeps the call's tuple of
them, so clauses added after the call began are not tried, and each
retry goes through `enter` again.

The Prolog parts of the kernel, ic and search libraries (the preludes)
are read when their modules are imported (`clauses.read_prelude`), and
every engine loads them the same way (`_load_prelude`): it appends the
shared `Clause` objects to its own predicates and runs the declarations
through `_directive`.  Whatever a user can change stays per engine:
modules, predicates and their clause lists, operator tables (the
kernel's is a copy of a table built at import), and the attribute
registry with its hooks.
"""

from __future__ import annotations

import logging
from functools import partial

from .clauses import Clause, enter, pred_code, read_prelude
from .errors import (EngineError, ExistenceError, Halt, InstantiationError,
                     InternalError, ReaderError, TypeError_, UnsupportedError)
from .expand import (ExpandContext, expand_clause, install_kernel_macros,
                     parse_struct_decl)
from .reader import Ops, Parser, parse_term, standard_ops, tokenize
from .store import Store
from .susp import (EXECUTED, MAIN_PRIORITY, SCHEDULED, SUSPENDED, Scheduler,
                   Suspension)
from .terms import (Atom, Struct, Var, copy_term, deref, flatten_conj,
                    is_callable_term, proper_list)
from . import attvar, builtins, ic, search
from .writer import write_term

log = logging.getLogger("clpkernel")


_BRANCH = "branch"  # a disjunction's alternative: resume the continuation
_CUT = Atom("!")


class Pred:
    """A predicate: its clauses, or a builtin, and its declarations.

    ``code`` is the predicate's call code (`pred_code`): it switches on
    the first argument, as Warren's ``switch_on_term``, and enters the
    candidate clauses.  It is made on the first call after a change and
    dropped by `add`, so the candidates a call takes from it are the
    snapshot of the clauses that call may try."""

    __slots__ = ("name", "arity", "module", "clauses", "code", "builtin",
                 "exported", "demon", "no_warn")

    def __init__(self, name, arity, module):
        self.name = name
        self.arity = arity
        self.module = module
        self.clauses = []
        self.code = None
        self.builtin = None
        self.exported = False
        self.demon = False
        self.no_warn = False

    @property
    def indicator(self):
        return "%s/%d" % (self.name, self.arity)

    def add(self, clause):
        self.clauses.append(clause)
        self.code = None


class PredName(str):
    """The name of a predicate that no module lists, such as the auxiliary
    predicate of a metacalled do-loop, which is expanded on every call: a
    goal with this name that its module does not resolve calls ``pred``.
    The predicate is freed with the last term that names it."""


class Module:
    def __init__(self, name, engine, imports=()):
        self.name = name
        self.engine = engine
        self.imports = list(imports)
        self.ops = Ops(parents=[m.ops for m in self.imports])
        self.preds = {}
        self.term_macros = {}
        self.goal_macros = {}
        self.output_macros = {}
        self.structs = {}
        self.aux_n = 0

    def __repr__(self):
        return "<module %s>" % self.name

    def add_import(self, module):
        if module is self or module in self.imports:
            return
        self.imports.append(module)
        self.ops.add_parent(module.ops)

    # -- predicates -----------------------------------------------------

    def ensure_pred(self, name, arity):
        p = self.preds.get((name, arity))
        if p is None:
            p = Pred(name, arity, self)
            self.preds[(name, arity)] = p
        return p

    def lookup_pred(self, name, arity):
        """The predicate a goal ``name/arity`` calls in this module: its
        own, else an import's exported one, else that of a `PredName`;
        None when there is none.  Nothing is cached, so a predicate, an
        import or an export added later counts from the next call on."""
        p = self.preds.get((name, arity))
        if p is not None:
            return p
        return self.lookup_imported(name, arity)

    def lookup_imported(self, name, arity):
        """`lookup_pred` for a name this module has no predicate of."""
        for m in self.imports:
            p = m.preds.get((name, arity))
            if p is not None and p.exported:
                return p
        if type(name) is PredName:
            return name.pred
        return None

    # -- macro / struct visibility ---------------------------------------

    def add_term_macro(self, name, arity, fn, exported=False):
        self.term_macros[(name, arity)] = (fn, exported)
        self.engine.term_macro_keys.add((name, arity))

    def add_goal_macro(self, name, arity, fn, exported=False):
        self.goal_macros[(name, arity)] = (fn, exported)

    def add_output_macro(self, name, arity, fn, exported=False):
        self.output_macros[(name, arity)] = (fn, exported)

    def _macro_lookup(self, attr, key):
        got = getattr(self, attr).get(key)
        if got is not None:
            return got[0]
        for m in self.imports:
            got = getattr(m, attr).get(key)
            if got is not None and got[1]:
                return got[0]
        return None

    def lookup_term_macro(self, name, arity):
        return self._macro_lookup("term_macros", (name, arity))

    def lookup_goal_macro(self, name, arity):
        return self._macro_lookup("goal_macros", (name, arity))

    def lookup_output_macro(self, name, arity):
        return self._macro_lookup("output_macros", (name, arity))

    def declare_struct(self, decl, exported=False):
        self.structs[decl.name] = (decl, exported)

    def lookup_struct(self, name):
        return self._macro_lookup("structs", name)

    def next_aux_name(self):
        self.aux_n += 1
        return "do__%d" % self.aux_n


class Answer:
    """One solution of a query, snapshotted so it survives backtracking."""

    def __init__(self, bindings, delayed):
        self.bindings = bindings    # name -> copied term
        self.delayed = delayed      # list of formatted goal strings

    def __getitem__(self, name):
        return self.bindings[name]

    def __repr__(self):
        return "Answer(%r, delayed=%r)" % (self.bindings, self.delayed)


class Engine:
    def __init__(self, out=None):
        import sys
        self.out = out if out is not None else sys.stdout
        self.store = Store()
        self.sched = Scheduler(self.store)
        self.registry = attvar.AttributeRegistry()
        self.store.attr_registry = self.registry
        attvar.install(self)
        self.suspensions = {}
        self._sid = 0
        self.running_priority = MAIN_PRIORITY
        self._stamps = None  # running_priority is value-trailed
        # always None: a woken run gets its suspension as its arguments.
        # Kept because perfbench/tracer.py reads it to tell woken ic runs
        # from posts.
        self.current_suspension = None
        self.modules = {}
        # (name, arity) of every term macro of any module: the reader
        # offers only these compounds to `_live_hook`
        self.term_macro_keys = set()

        self.kernel = self.new_module("kernel", imports=())
        self.kernel.ops = standard_ops()
        builtins.install(self)
        install_kernel_macros(self.kernel)
        self._load_prelude(_KERNEL_PRELUDE, self.kernel)

        self.ic = self.new_module("ic", imports=(self.kernel,))
        ic.install(self)
        search.install(self)

        self.main = self.new_module("main", imports=(self.kernel, self.ic))

    # ------------------------------------------------------------------
    # modules and registration

    def new_module(self, name, imports=None):
        if name in self.modules:
            return self.modules[name]
        if imports is None:
            imports = (self.kernel, self.ic)
        m = Module(name, self, imports)
        self.modules[name] = m
        return m

    def add_builtin(self, module, name, arity, fn, exported=True):
        p = module.ensure_pred(name, arity)
        if p.clauses:
            raise EngineError("%s already has clauses" % p.indicator)
        p.builtin = fn
        p.exported = exported
        return p

    # ------------------------------------------------------------------
    # suspensions

    def make_suspension(self, goal, priority, module=None, run=None):
        """A new suspension, pending.  A caller that passes its ``run`` (a
        solver's propagator) makes a demon, which runs on every waking
        until it kills itself, and ``goal`` may be a function that builds
        the goal term from the suspension (see `Suspension`).  Otherwise
        ``goal`` is a callable term, resolved here as the loop would: a
        builtin's goal gets a run that calls the builtin with its
        arguments, any other runs in the resolvent, and a ``demon``
        declaration of its predicate counts."""
        module = module or self.main
        demon = run is not None
        if run is None:
            goal = deref(goal)
            if not is_callable_term(goal):
                if isinstance(goal, Var):
                    raise InstantiationError("suspension goal is unbound")
                raise TypeError_("suspension goal must be callable: %s"
                                 % self.format_term(goal))
            pred = module.lookup_pred(
                goal.name, goal.arity if type(goal) is Struct else 0)
            if pred is not None:
                demon = pred.demon
                if pred.builtin is not None:
                    run = partial(_call_builtin, pred.builtin)
        self._sid += 1
        s = Suspension(self._sid, goal, priority, module, demon, run)
        self.suspensions[s.sid] = s
        sid = s.sid
        self.store.register_undo(lambda: self.suspensions.pop(sid, None))
        return s

    def attach_suspension(self, susp, var, cond, attr="suspend"):
        """Append susp to the list ``attr:cond`` of a dereferenced free var."""
        spec = self.registry.lookup(attr)
        if spec is None or spec.get_list is None:
            raise UnsupportedError("suspend: attribute %r has no suspension "
                                   "lists" % attr)
        got = spec.get_list(self, var, cond)
        if got is None:
            raise UnsupportedError("suspend: attribute %r has no list %r"
                                   % (attr, cond))
        self.attach_to_list(susp, *got)

    def attach_to_list(self, susp, owner, slot):
        self.store.set_slot(owner, slot, getattr(owner, slot) + (susp,))

    def kill_suspension(self, susp):
        if susp.state != EXECUTED:
            self.store.set_slot(susp, "state", EXECUTED)

    def pending(self, since=0):
        """The suspensions made after the sid ``since`` that are still
        pending, in sid order.  ``suspensions`` is in sid order (sids only
        grow and are never re-inserted), so the walk backwards stops at
        the first older one."""
        fresh = []
        for s in reversed(self.suspensions.values()):
            if s.sid <= since:
                break
            if s.state in (SUSPENDED, SCHEDULED):
                fresh.append(s)
        fresh.reverse()
        return fresh

    # ------------------------------------------------------------------
    # waking

    def drain(self, cont=None):
        """Run the queued goals more urgent than the running priority, most
        urgent first, until one needs the resolvent (see the module
        docstring).  Returns True when every goal it ran succeeded and none
        needs the resolvent, False as soon as one fails, else the cells
        that run that goal before ``cont``: the goal, with the choicepoint
        height as its cut height, then a step that restores the running
        priority, which is lowered to the goal's meanwhile.  Only that
        return changes the running priority, so the limit is read once, and
        `Scheduler.pop_runnable` is looked up once per call."""
        pop = self.sched.pop_runnable
        limit = self.running_priority
        store = self.store
        cps = store.choicepoints
        cur = cps[-1].stamp if cps else 0  # builtins leave no choicepoint
        s = pop(limit)
        while s is not None:
            if s._stamps.get("state") != cur:
                # see the re-queue rule in the susp module docstring
                store.register_undo(partial(self.sched.requeue, s))
            if s.demon:
                s.state = SUSPENDED  # untrailed: see the susp docstring
            else:
                store.set_slot(s, "state", EXECUTED)
            run = s.run
            if run is None:
                res = s.goal, s.module
            else:
                res = self._run_builtin(run, s, s.module)
            if type(res) is tuple:
                def restore(cont):
                    store.set_slot(self, "running_priority", limit)
                    return cont
                store.set_slot(self, "running_priority", s.priority)
                return res[0], res[1], len(cps), (restore, res[1], 0, cont)
            if not res:
                return False
            s = pop(limit)
        return True

    def run_goal_once(self, goal, module):
        """Solve a goal directive: commit to its first solution."""
        mark = self.store.push_choicepoint()
        for _ in self.solve(goal, module):
            self.store.commit_to(mark)
            return True
        self.store.drop_to(mark)
        return False

    # ------------------------------------------------------------------
    # the solver

    def solve(self, goal, module):
        """Yield once per solution, with its bindings in place."""
        store = self.store
        sched = self.sched
        cps = store.choicepoints
        base = store.push_choicepoint()
        cont = (goal, module, len(cps), None)
        while True:
            if (sched.count and sched.low < self.running_priority
                    and (woken := self.drain(cont)) is not True):
                if woken is not False:
                    cont = woken
                    continue
            elif cont is None:
                yield
            else:
                goal, module, cut, cont = cont
                if type(goal) is Var:
                    goal = deref(goal)
                if type(goal) is Struct:
                    name, args = goal.name, goal.args
                elif type(goal) is Atom:
                    name, args = goal.name, ()
                elif type(goal) is Var:
                    raise InstantiationError("unbound goal")
                elif not callable(goal):
                    raise TypeError_("goal is not callable: %s"
                                     % self.format_term(goal))
                else:  # a builtin's step
                    cont = goal(cont)
                    if cont is not False:
                        continue
                    name, args = "fail", ()  # backtrack, as fail/0 does
                arity = len(args)
                if arity == 2:
                    if name == ",":
                        cont = (args[0], module, cut,
                                (args[1], module, cut, cont))
                        continue
                    if name == ";":
                        m = store.push_choicepoint()
                        m.alt, m.cont = _BRANCH, (args[1], module, cut, cont)
                        c = deref(args[0])
                        if type(c) is Struct and c.name == "->" and c.arity == 2:
                            # condition, cut to below this mark, then-branch
                            cont = (c.args[0], module, m.index + 1,
                                    (_CUT, module, m.index,
                                     (c.args[1], module, cut, cont)))
                        else:
                            cont = (c, module, cut, cont)
                        continue
                    if name == "->":
                        h = len(cps)
                        cont = (args[0], module, h, (
                            _CUT, module, h, (args[1], module, cut, cont)))
                        continue
                elif arity == 0:
                    if name == "true":
                        continue
                    if name == "!":
                        if len(cps) > cut:
                            store.commit_to(cps[cut])
                        continue
                # fail and false have no clauses: they backtrack below
                if arity or (name != "fail" and name != "false"):
                    pred = (module.preds.get((name, arity))
                            or module.lookup_imported(name, arity))
                    if pred is None:
                        macro = module.lookup_goal_macro(name, arity)
                        if macro is None:
                            raise ExistenceError(
                                "procedure %s/%d is not defined in module %s"
                                % (name, arity, module.name))
                        goal, aux = macro(
                            ExpandContext(module, self, metacall=True), goal)
                        for head, body in aux:
                            self.add_clause(module, head, body)
                        cont = (goal, module, cut, cont)
                        continue
                    if pred.builtin is None:
                        cont = self._call_user(pred, args, cont)
                        if cont is not False:
                            continue
                    else:
                        res = self._run_builtin(pred.builtin, args, module)
                        if type(res) is tuple:  # run in the call's place
                            cont = (res[0], res[1], len(cps), cont)
                            continue
                        elif res:
                            continue
            # failure: resume the youngest alternative
            while True:
                m = cps[-1]
                if m is base:
                    store.drop_to(base)
                    return
                alt, cont = m.alt, m.cont
                if alt is _BRANCH:
                    store.drop_to(m)
                    break
                if type(alt) is tuple:
                    store.drop_to(m)
                    cont = enter(self, *alt, m.index, cont)
                elif alt is None:
                    raise InternalError("backtracked into a bare mark %r" % m)
                else:  # a step's alternative, resumed from its live mark
                    cont = alt(m)
                if cont is not False:
                    break

    def _run_builtin(self, fn, args, module):
        """The one call site of every builtin call, ``fn`` with the goal's
        arguments, and of every woken run, ``fn`` a suspension's ``run``
        with the suspension as ``args``: returns the raw result, a bool or
        a pair."""
        return fn(self, args, module)

    def _call_user(self, pred, args, cont):
        """The one call site of every user call: the continuation of its
        first candidate clause, or False, from the predicate's code."""
        return (pred.code or pred_code(pred))(args, self, cont)

    def _copy_attr_hook(self, old, fresh):
        for name, payload in old.attrs.items():
            spec = self.registry.lookup(name)
            if spec is not None and spec.copy is not None:
                spec.copy(payload, fresh)

    # ------------------------------------------------------------------
    # program loading

    def add_clause(self, module, head, body):
        h = deref(head)
        if isinstance(h, Atom):
            name, arity = h.name, 0
        elif isinstance(h, Struct):
            name, arity = h.name, h.arity
        else:
            raise TypeError_("clause head is not callable: %s"
                             % self.format_term(h))
        if type(name) is PredName:
            pred = name.pred
        else:
            pred = module.ensure_pred(name, arity)
        if pred.builtin is not None:
            raise EngineError("cannot add clauses to builtin %s" % pred.indicator)
        pred.add(Clause(h, deref(body)))
        return pred

    def unlisted_pred(self, module, name, arity):
        """A new predicate whose clauses run in ``module`` but that no
        module lists, returned as its name: a `PredName`."""
        pname = PredName(name)
        pname.pred = Pred(pname, arity, module)
        return pname

    def load(self, text, module=None, filename=None):
        """Load program text: directives are executed, clauses compiled.
        An error is reported at the line its clause starts on, with the
        store dropped back to the choicepoints it had before the load."""
        self._load_module = module or self.main
        tokens = tokenize(text, filename)
        parser = Parser(tokens, self._load_module.ops,
                        macro_hook=self._live_hook, filename=filename,
                        macro_keys=self.term_macro_keys)
        cps = self.store.choicepoints
        height = len(cps)
        last_pred = None
        while not parser.at_eof():
            parser.ops = self._load_module.ops
            line = parser.peek().line
            try:
                term, _varmap, pos = parser.read_clause()
                last_pred = self._load_term(term, pos, filename, last_pred)
            except (ReaderError, Halt):
                raise
            except EngineError as e:
                if len(cps) > height:
                    self.store.drop_to(cps[height])
                raise _position_error(e, filename, line)
        return self._load_module

    def _load_prelude(self, steps, module):
        """Load a library's prelude, read by `read_prelude`, into
        ``module``: add each clause and run each declaration."""
        for step in steps:
            if type(step) is tuple:
                module.ensure_pred(step[0], step[1]).add(step[2])
            else:
                self._directive(step, module, None, None)

    def _live_hook(self, t):
        fn = self._load_module.lookup_term_macro(t.name, t.arity)
        if fn is not None:
            return fn(self._load_module, t)
        return t

    def _load_term(self, term, pos, filename, last_pred):
        module = self._load_module
        t = deref(term)
        if isinstance(t, Struct) and t.name == ":-" and t.arity == 1:
            self._directive(t.args[0], module, pos, filename)
            return last_pred
        ctx = ExpandContext(module, self)
        head, body, aux = expand_clause(ctx, t)
        pred = self.add_clause(module, head, body)
        for h, b in aux:
            self.add_clause(module, h, b)
        if (last_pred is not None and pred is not last_pred
                and len(pred.clauses) > 1 and not pred.no_warn):
            log.warning("%s: clauses of %s are not contiguous",
                        filename or "<text>", pred.indicator)
        return pred

    def _directive(self, d, module, pos, filename):
        d = deref(d)
        if isinstance(d, Struct):
            name, args = d.name, d.args
            if name == "module" and len(args) == 1:
                mname = _atom_name(args[0], "module name")
                self._load_module = self.new_module(mname)
                return
            if name == "import" and len(args) == 1:
                for item in _conj_items(args[0]):
                    mname = _atom_name(item, "import")
                    target = self.modules.get(mname)
                    if target is None:
                        raise ExistenceError("module %s does not exist" % mname)
                    module.add_import(target)
                return
            if name in ("export", "local") and len(args) == 1:
                for item in _conj_items(args[0]):
                    self._declare_item(module, item, name == "export")
                return
            if name == "op" and len(args) == 3:
                self._op_directive(module, args, exported=False)
                return
            if name == "demon" and len(args) == 1:
                for item in _conj_items(args[0]):
                    n, a = _pred_indicator(item)
                    module.ensure_pred(n, a).demon = True
                return
            if name in ("dynamic", "discontiguous") and len(args) == 1:
                for item in _conj_items(args[0]):
                    n, a = _pred_indicator(item)
                    module.ensure_pred(n, a).no_warn = True
                return
        # anything else: run it as a goal at load time
        if not self.run_goal_once(d, module):
            log.warning("%s:%s: directive failed: %s",
                        filename or "<text>", pos[0], self.format_term(d, module))

    def _declare_item(self, module, item, exported):
        """One item of an ``export/1`` or ``local/1`` directive: an
        operator, a struct or a predicate."""
        item = deref(item)
        if isinstance(item, Struct) and item.name == "op" and item.arity == 3:
            self._op_directive(module, item.args, exported)
        elif (isinstance(item, Struct) and item.name == "struct"
              and item.arity == 1):
            module.declare_struct(parse_struct_decl(item.args[0]), exported)
        else:
            pred = module.ensure_pred(*_pred_indicator(item))
            if exported:
                pred.exported = True

    def _op_directive(self, module, args, exported):
        prio = deref(args[0])
        if not isinstance(prio, int):
            raise TypeError_("operator priority must be an integer: %r" % (prio,))
        typ = _atom_name(args[1], "operator type")
        names = deref(args[2])
        for it in proper_list(names) or [names]:
            module.ops.declare(prio, typ, _atom_name(it, "operator name"),
                               exported=exported)

    def load_file(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            return self.load(fh.read(), filename=path)

    # ------------------------------------------------------------------
    # queries

    def parse_goal(self, text, module=None):
        module = module or self.main
        self._load_module = module
        return parse_term(text, module.ops, macro_hook=self._live_hook,
                          macro_keys=self.term_macro_keys)

    def solutions(self, goal, module=None):
        """Top-level solution generator; restores the store when done or
        when closed."""
        module = module or self.main
        mark = self.store.push_choicepoint()
        try:
            yield from self.solve(goal, module)
        finally:
            self.store.drop_to(mark)

    def ask(self, text, module=None, limit=None):
        """Run a query; returns a list of Answer snapshots."""
        module = module or self.main
        goal, varmap = self.parse_goal(text, module)
        answers = []
        query_vars = Struct("vars", list(varmap.values()))
        for _ in self.solutions(goal, module):
            # one copy for all bindings, so they keep sharing variables
            copied = copy_term(query_vars, attr_hook=self._copy_attr_hook)
            bindings = dict(zip(varmap, copied.args))
            delayed = [self.format_goal(s, module) for s in self.pending()]
            answers.append(Answer(bindings, delayed))
            if limit is not None and len(answers) >= limit:
                break
        return answers

    def once(self, text, module=None):
        got = self.ask(text, module, limit=1)
        return got[0] if got else None

    # ------------------------------------------------------------------
    # formatting

    def format_term(self, t, module=None, names=None, canonical=False,
                    quoted=False):
        module = module or self.main
        return write_term(t, ops=module.ops, quoted=quoted, canonical=canonical,
                          names=names, registry=self.registry,
                          transforms=module.lookup_output_macro)

    def format_goal(self, susp, module=None, names=None):
        return self.format_term(susp.goal_term(), module, names=names)


def _call_builtin(fn, engine, s, module):
    """The run of a suspended builtin goal: the builtin, called with the
    goal's arguments."""
    goal = s.goal
    return fn(engine, goal.args if type(goal) is Struct else (), module)


def _atom_name(t, what):
    t = deref(t)
    if isinstance(t, Atom):
        return t.name
    raise TypeError_("%s must be an atom: %r" % (what, t))


def _conj_items(t):
    """Split a ','-conjunction or a list into items."""
    return proper_list(t) or flatten_conj(t)


def _pred_indicator(t):
    t = deref(t)
    if (isinstance(t, Struct) and t.name == "/" and t.arity == 2
            and isinstance(deref(t.args[0]), Atom)
            and isinstance(deref(t.args[1]), int)):
        return deref(t.args[0]).name, deref(t.args[1])
    raise TypeError_("expected a Name/Arity predicate indicator: %r" % (t,))


def _position_error(e, filename, line):
    try:
        return type(e)("%s:%s: %s" % (filename or "<text>", line, e))
    except Exception:
        return e


_KERNEL_SOURCE = """
:- export(member/2).
:- export(append/3).
:- export(length/2).

member(X, [X|_]).
member(X, [_|T]) :- member(X, T).

append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).

length(L, N) :-
    ( integer(N) ->
        length_fixed(L, N)
    ;
        length_count(L, 0, N)
    ).
length_fixed([], 0).
length_fixed([_|T], N) :- N > 0, N1 is N - 1, length_fixed(T, N1).
length_count([], N, N).
length_count([_|T], N0, N) :- N1 is N0 + 1, length_count(T, N1, N).
"""
_KERNEL_PRELUDE = read_prelude(_KERNEL_SOURCE)


def make_engine(out=None):
    return Engine(out=out)
