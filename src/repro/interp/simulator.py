"""Event-driven simulator for flattened Verilog modules.

Implements the Verilog scheduling semantics the paper's §2 walks through:

* continuous assignments re-run whenever their inputs change;
* procedural blocks run when their (edge-qualified) guards fire;
* blocking assignments (``=``) take effect immediately;
* non-blocking assignments (``<=``) are queued and latched in an update
  region once no more evaluation events remain;
* evaluation/update alternate until the design fixpoints — that is one
  *logical tick*, the unit at which the Cascade ABI's ``evaluate`` and
  ``update`` messages operate.

Unsynthesizable tasks are serviced *immediately* by the attached
:class:`~repro.interp.systasks.TaskHost` — the defining capability of
software simulation that Synergy's transformations recover on hardware.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Set

from ..verilog import ast_nodes as ast
from ..verilog.rewrite import collect_identifiers, lvalue_reads, stmt_identifiers
from ..verilog.width import WidthEnv
from .eval_expr import EvalError, Evaluator
from .store import Store
from .systasks import FinishSignal, TaskHost
from .vcd import VCDWriter, claim_vcd

_MAX_LOOP_ITERATIONS = 1 << 21
_MAX_SETTLE_ROUNDS = 10_000


class SimulationError(Exception):
    """Raised when simulation cannot proceed (combinational loop, etc.)."""


class _Event:
    """One sensitivity-list entry with edge-detection state."""

    __slots__ = ("edge", "expr", "deps", "prev")

    def __init__(self, edge: str, expr: ast.Expr, deps: Set[int], prev: int = 0):
        self.edge = edge
        self.expr = expr
        self.deps = deps
        self.prev = prev

    def triggered(self, new: int) -> bool:
        old_bit, new_bit = self.prev & 1, new & 1
        if self.edge == "posedge":
            return old_bit == 0 and new_bit == 1
        if self.edge == "negedge":
            return old_bit == 1 and new_bit == 0
        return new != self.prev


class _Process:
    """A continuous assign, always block, or initial block."""

    __slots__ = ("index", "kind", "stmt", "assign", "events", "star_deps", "queued")

    def __init__(self, index: int, kind: str, stmt: Optional[ast.Stmt] = None,
                 assign: Optional[ast.ContinuousAssign] = None,
                 events: Sequence[_Event] = (), star_deps: Optional[Set[str]] = None):
        self.index = index
        self.kind = kind  # "assign" | "always" | "initial"
        self.stmt = stmt
        self.assign = assign
        self.events = list(events)
        self.star_deps = star_deps or set()
        self.queued = False


class Reference(Evaluator):
    """The reference semantics of statements, system tasks and functions.

    One per engine, over that engine's store; both engines run
    statements through it — the interpreter every process body, the
    compiled engine each escape, continuous-assign fallback and ``SYS``
    call.  Its collaborators are explicit: the store it evaluates over,
    the task *host*, and *nba*, the sink a non-blocking assignment's
    ``(applier, target, value)`` entry is appended to.  It carries the
    engine's ``time`` (for ``$time``) and ``stmts_executed``.  It holds
    no reference back to an engine, and it extends the evaluator rather
    than handing it a bound callback for system functions; a queued NBA
    entry's applier is a plain evaluator's, holding the store but neither
    this reference nor the queue.  So a retired interpreter is freed by
    reference counting alone, even with an NBA still queued.
    """

    def __init__(self, env: WidthEnv, store, host: TaskHost, nba):
        super().__init__(env, store)
        self.host = host
        self.nba = nba
        self.time = 0            # logical ticks the engine has driven
        self.stmts_executed = 0  # perf counter
        self.applier = Evaluator(env, store).apply

    def run_assign(self, item: ast.ContinuousAssign) -> None:
        self.assign(item.lhs, self.eval(item.rhs, self.env.width_of(item.lhs)))

    def exec(self, stmt: Optional[ast.Stmt]) -> None:
        if stmt is None:
            return
        self.stmts_executed += 1
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.rhs, self.env.width_of(stmt.lhs))
            if stmt.blocking:
                self.assign(stmt.lhs, value)
            else:
                self.nba((self.applier, self.target(stmt.lhs), value))
            return
        if isinstance(stmt, ast.Block) or isinstance(stmt, ast.ForkJoin):
            # Sequential execution is a valid scheduling of fork/join (§3.2).
            for inner in stmt.stmts:
                self.exec(inner)
            return
        if isinstance(stmt, ast.If):
            if self.eval_bool(stmt.cond):
                self.exec(stmt.then_stmt)
            else:
                self.exec(stmt.else_stmt)
            return
        if isinstance(stmt, ast.Case):
            self._exec_case(stmt)
            return
        if isinstance(stmt, (ast.For, ast.While)):
            kind = "for" if isinstance(stmt, ast.For) else "while"
            if kind == "for":
                self.exec(stmt.init)
            iterations = 0
            while self.eval_bool(stmt.cond):
                self.exec(stmt.body)
                if kind == "for":
                    self.exec(stmt.step)
                iterations += 1
                if iterations > _MAX_LOOP_ITERATIONS:
                    raise SimulationError(f"{kind}-loop iteration limit exceeded")
            return
        if isinstance(stmt, ast.RepeatStmt):
            count = self.eval(stmt.count)
            for _ in range(min(count, _MAX_LOOP_ITERATIONS)):
                self.exec(stmt.body)
            return
        if isinstance(stmt, ast.SysTask):
            self._exec_systask(stmt)
            return
        if isinstance(stmt, ast.NullStmt):
            return
        if isinstance(stmt, ast.DelayStmt):
            # Delays are compressed to zero time in the 2-state model.
            self.exec(stmt.stmt)
            return
        raise SimulationError(f"cannot execute {type(stmt).__name__}")

    def _exec_case(self, stmt: ast.Case) -> None:
        """A pure subject is evaluated once, an impure one per label tried."""
        entry = self.entry(stmt.expr)
        subject = None
        for item in stmt.items:
            for label in item.labels:
                if subject is None or not entry[4]:
                    subject = self._eval(stmt.expr, entry[1])
                value = self.eval(label, entry[1])
                dontcare = 0
                if stmt.kind in ("casez", "casex") and isinstance(label, ast.Number):
                    dontcare = label.xz_mask
                if (subject & ~dontcare) == (value & ~dontcare):
                    self.exec(item.stmt)
                    return
        for item in stmt.items:
            if not item.labels:  # default arm
                self.exec(item.stmt)
                return

    def _exec_systask(self, stmt: ast.SysTask) -> None:
        name, args = stmt.name, stmt.args
        if name in ("$readmemh", "$readmemb") and len(args) == 2:
            # (writes the store directly: the interpreter's own task)
            self._readmem(args[0], args[1], 16 if name == "$readmemh" else 2)
            return
        self.host.perform(name, args, self.eval, self.assign, self.env.width_of)

    def _readmem(self, path_arg: ast.Expr, mem_arg: ast.Expr, radix: int) -> None:
        if not isinstance(path_arg, ast.String) or not isinstance(mem_arg, ast.Identifier):
            return
        data = self.host.vfs.files.get(path_arg.value)
        if data is None:
            return
        sig = self.env.signal(mem_arg.name)
        addr = sig.base
        for token in data.decode().split():
            if token.startswith("@"):
                addr = int(token[1:], 16)
                continue
            self.store.mem_set(sig.name, addr, int(token, radix))
            addr += 1

    def sysfunc(self, expr: ast.SysCall, width: int) -> int:
        name = expr.name
        if name == "$clog2":
            return super().sysfunc(expr, width)
        value = self.host.query(name, expr.args, self.eval, self.time)
        if value is None:
            raise EvalError(f"unsupported system function {name}")
        return value


class SimulatorABI:
    """The Cascade ABI surface, written once for both engines.

    An engine builds ``store``, ``evaluator`` (its :class:`Reference`)
    and ``_nba`` (the queue that reference appends to), and defines
    ``settle``, ``_drain_dirty`` (wake what outside writes changed),
    ``_prime_edges`` and ``tick``; nothing here reads anything else.
    An engine ends its construction with :meth:`_claim_vcd`.
    """

    #: the waveform writer, while this engine holds the ``REPRO_VCD`` dump
    _vcd: Optional[VCDWriter] = None

    def _claim_vcd(self) -> None:
        """Take the process's dump if ``REPRO_VCD`` is set and no engine
        holds it (N tenants must not interleave one file); the boot
        state is its first sample."""
        path = os.environ.get("REPRO_VCD")
        if path and claim_vcd():
            self._vcd = VCDWriter(path, self.store, self.env)
            self._vcd.sample(self.time)

    @property
    def host(self) -> TaskHost:
        return self.evaluator.host

    @host.setter
    def host(self, host: TaskHost) -> None:
        self.evaluator.host = host

    @property
    def time(self) -> int:
        """Logical ticks driven (``$time``)."""
        return self.evaluator.time

    @time.setter
    def time(self, value: int) -> None:
        self.evaluator.time = value

    @property
    def stmts_executed(self) -> int:
        """Perf counter: statements executed, escapes included."""
        return self.evaluator.stmts_executed

    @stmts_executed.setter
    def stmts_executed(self, value: int) -> None:
        self.evaluator.stmts_executed = value

    def get(self, name: str) -> int:
        """ABI ``get``: read a program variable."""
        return self.store.get(name)

    def set(self, name: str, value: int) -> None:
        """ABI ``set``: drive an input or overwrite a variable."""
        self.store.set(name, value)

    def evaluate(self) -> None:
        """ABI ``evaluate``: run until no events can be scheduled."""
        self.settle()

    def update(self) -> None:
        """ABI ``update``, the update region: apply the queued
        non-blocking assignments in order, then wake what they changed."""
        pending = self._nba[:]
        del self._nba[:]  # keep list identity: the reference binds .append
        for entry in pending:
            entry[0](entry)
        self._drain_dirty()

    def step(self) -> None:
        """One full logical step: evaluate/update until quiescent."""
        self.settle()
        guard = 0
        while self._nba:
            guard += 1
            if guard > _MAX_SETTLE_ROUNDS:
                raise SimulationError("update region did not converge")
            self.update()
            self.settle()

    def _reference_period(self, clock: str) -> None:
        """One period of *clock* through the store: rise, step, fall, step."""
        try:
            self.store.set(clock, 1)
            self.step()
            self.store.set(clock, 0)
            self.step()
        except FinishSignal:
            pass
        self.time += 1
        if self._vcd is not None:
            self._vcd.sample(self.time)

    def run(self, clock: str = "clock", max_cycles: int = 1_000_000) -> int:
        """Tick until ``$finish`` or *max_cycles*; returns cycles driven."""
        cycles = 0
        while not self.host.finished and cycles < max_cycles:
            self.tick(clock)
            cycles += 1
        return cycles

    def save_state(self) -> Dict[str, object]:
        """Full context snapshot: program state, file cursors, time."""
        return {
            "store": self.store.snapshot(),
            "vfs": self.host.vfs.snapshot(),
            "time": self.time,
        }

    def restore_state(self, snapshot: Dict[str, object]) -> None:
        """Restore a snapshot taken by :meth:`save_state`."""
        self.store.restore(snapshot["store"])  # type: ignore[arg-type]
        self.host.vfs.restore(snapshot["vfs"])  # type: ignore[arg-type]
        self.time = int(snapshot["time"])  # type: ignore[arg-type]
        # Re-prime edge detection so restore does not fabricate edges.
        self._prime_edges()

    def restore_store(self, state: Dict[str, object]) -> None:
        """Restore program state captured between ticks, then settle.

        A restore is not an edge: the values it writes become the
        previous values edge detection compares against.  A context
        captured after a ``$finish`` on a rising edge holds its clock
        high, and the posedge that finished it has already run.
        """
        self.store.restore(state)
        self._prime_edges()
        self.step()


class InterpSimulator(SimulatorABI):
    """Simulates one flattened module against a :class:`TaskHost`.

    This is the *reference* tree-walking interpreter: simple, slow, and
    the oracle the compiled backend is differentially tested against.
    Use the :func:`Simulator` factory to pick a backend.
    """

    backend = "interp"

    def __init__(self, module: ast.Module, host: Optional[TaskHost] = None,
                 env: Optional[WidthEnv] = None):
        self.module = module
        self.env = env if env is not None else WidthEnv(module)
        self.store = Store(self.env)
        self._nba: List[tuple] = []
        self.evaluator = Reference(self.env, self.store,
                                   host if host is not None else TaskHost(),
                                   self._nba.append)
        self.settle_rounds = 0   # perf counter: evaluation rounds
        # The run queue: assigns first, then blocks, each in FIFO order.
        self._assigns: Deque[_Process] = deque()
        self._blocks: Deque[_Process] = deque()
        self._processes: List[_Process] = []
        #: slot -> the processes its change may wake
        self._dep_map: Dict[int, List[_Process]] = {}
        self._build_processes()
        self._initialize()
        self._claim_vcd()

    # -- construction ---------------------------------------------------------

    def _build_processes(self) -> None:
        index = 0
        for item in self.module.items:
            if isinstance(item, ast.ContinuousAssign):
                deps = collect_identifiers(item.rhs) | lvalue_reads(item.lhs)
                proc = _Process(index, "assign", assign=item, star_deps=deps)
                self._register(proc, self._slots(deps))
            elif isinstance(item, ast.Always):
                if item.sensitivity == ast.STAR:
                    deps = stmt_identifiers(item.stmt)
                    proc = _Process(index, "always", stmt=item.stmt, star_deps=deps)
                    self._register(proc, self._slots(deps))
                else:
                    events = [
                        _Event(e.edge, e.expr,
                               self._slots(collect_identifiers(e.expr)))
                        for e in item.sensitivity
                    ]
                    proc = _Process(index, "always", stmt=item.stmt, events=events)
                    self._register(proc, set().union(
                        *(event.deps for event in events)))
            elif isinstance(item, ast.Initial):
                proc = _Process(index, "initial", stmt=item.stmt)
                self._processes.append(proc)
            elif isinstance(item, ast.Decl) and item.kind == "wire" and item.init is not None:
                implied = ast.ContinuousAssign(ast.Identifier(item.name), item.init)
                deps = collect_identifiers(item.init)
                proc = _Process(index, "assign", assign=implied, star_deps=deps)
                self._register(proc, self._slots(deps))
            else:
                continue
            index += 1

    def _slots(self, names: Set[str]) -> Set[int]:
        """The store slots of the signals and memories *names* holds."""
        slot_of, mem_slot_of = self.store.slot_of, self.store.mem_slot_of
        slots = {slot_of.get(name, mem_slot_of.get(name)) for name in names}
        slots.discard(None)
        return slots

    def _register(self, proc: _Process, slots: Set[int]) -> None:
        self._processes.append(proc)
        for slot in slots:
            self._dep_map.setdefault(slot, []).append(proc)

    def _initialize(self) -> None:
        # Register/integer initializers, in declaration order.
        for item in self.module.items:
            if (isinstance(item, ast.Decl) and item.init is not None
                    and item.kind in ("reg", "integer")):
                sig = self.env.signal(item.name)
                if sig.is_memory:
                    continue
                value = self.evaluator.eval(item.init, sig.width)
                self.store.set(item.name, value, notify=False)
        # Initial blocks, continuous assigns and @* blocks run on the
        # first settle: combinational state must start at its fixpoint,
        # as synthesized hardware would, or a later bulk restore (whose
        # notifications re-run @* blocks on the receiving engine) could
        # fabricate state a software engine never computed.
        for proc in self._processes:
            if (proc.kind in ("initial", "assign")
                    or (proc.kind == "always" and not proc.events)):
                self._enqueue(proc)
        try:
            self.settle()
        except FinishSignal:  # a $finish at boot: the run ends at time 0
            pass
        self._prime_edges()

    def _prime_edges(self) -> None:
        """Take every event's previous value from the current state, so
        the next change is measured from here, not from before."""
        for proc in self._processes:
            for event in proc.events:
                event.prev = self._event_value(event)

    # -- scheduling core ---------------------------------------------------------

    def _enqueue(self, proc: _Process) -> None:
        if not proc.queued:
            proc.queued = True
            (self._assigns if proc.kind == "assign" else self._blocks).append(proc)

    def _event_value(self, event: _Event) -> int:
        try:
            return self.evaluator.eval(event.expr)
        except EvalError:
            return 0

    def _drain_dirty(self) -> None:
        """Convert the store's changed slots into process activations.

        ``dirty_list`` holds slots in first-change order, so activation
        order is deterministic: one fixed, valid Verilog schedule per
        program, every run.
        """
        store = self.store
        dirty, flags = store.dirty_list, store.dirty_flags
        i = 0
        while i < len(dirty):
            changed = dirty[i]
            i += 1
            flags[changed] = 0
            for proc in self._dep_map.get(changed, ()):
                if proc.kind == "assign" or proc.star_deps:
                    self._enqueue(proc)
                    continue
                for event in proc.events:
                    if changed not in event.deps:
                        continue
                    new = self._event_value(event)
                    if event.triggered(new):
                        self._enqueue(proc)
                    event.prev = new
        del dirty[:]

    def settle(self) -> None:
        """Run evaluation events to fixpoint (no NBA latching).

        Continuous assignments are drained before procedural blocks —
        a deterministic schedule (valid per the LRM's nondeterminism)
        under which procedural code always reads settled combinational
        values, matching what synthesized hardware does at a clock edge.
        """
        rounds = 0
        limit = _MAX_SETTLE_ROUNDS * max(1, len(self._processes))
        assigns, blocks = self._assigns, self._blocks
        self._drain_dirty()
        while assigns or blocks:
            rounds += 1
            if rounds > limit:
                raise SimulationError("evaluation did not converge "
                                      "(combinational loop?)")
            proc = assigns.popleft() if assigns else blocks.popleft()
            proc.queued = False
            self.settle_rounds += 1
            if proc.kind == "assign":
                self.evaluator.run_assign(proc.assign)
            else:
                self.evaluator.exec(proc.stmt)
            self._drain_dirty()

    def tick(self, clock: str = "clock", cycles: int = 1) -> None:
        """Drive *cycles* full clock periods (rise then fall)."""
        for _ in range(cycles):
            if self.host.finished:
                return
            self._reference_period(clock)


#: Default simulation backend when neither the ``backend`` argument nor
#: the ``REPRO_SIM_BACKEND`` environment variable says otherwise.
DEFAULT_BACKEND = "compiled"


def resolve_backend(backend: Optional[str] = None) -> str:
    """The backend name an optional *backend* argument resolves to.

    ``REPRO_SIM_BACKEND`` is read per call (not at import), so setting
    it mid-process — e.g. from a test's monkeypatch — takes effect for
    every simulator constructed afterwards.  Callers use this to decide
    whether building (or fetching) a shared codegen artifact is worth
    it before invoking the :func:`Simulator` factory.  Any name but
    ``compiled`` or ``interp`` raises :class:`ValueError`.
    """
    choice = backend or os.environ.get("REPRO_SIM_BACKEND") or DEFAULT_BACKEND
    if choice not in ("compiled", "interp"):
        raise ValueError(f"unknown simulation backend {choice!r}; "
                         "choose 'compiled' or 'interp'")
    return choice


def Simulator(module: ast.Module, host: Optional[TaskHost] = None,
              env: Optional[WidthEnv] = None, backend: Optional[str] = None,
              code=None):
    """Construct a simulator for *module*.

    ``backend="compiled"`` (the default) returns the compile-to-closures
    :class:`~repro.interp.compile.CompiledSimulator`; ``backend="interp"``
    returns the reference tree-walking :class:`InterpSimulator`.  Both
    expose the same ABI surface and bit-identical behaviour — the
    interpreter is kept as the differential-testing oracle.

    *code* is an optional shared
    :class:`~repro.interp.compile.CompiledModuleCode` (from the compiler
    service's artifact store) that lets a compiled engine skip analysis
    and code generation; it is ignored by the interpreter backend.
    """
    if resolve_backend(backend) == "interp":
        return InterpSimulator(module, host, env)
    from .compile.simulator import CompiledSimulator

    return CompiledSimulator(module, host, env, code=code)
