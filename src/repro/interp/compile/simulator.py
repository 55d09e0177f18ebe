"""The compiled simulator: closures + slot store + ranked scheduling.

Code generation is split from engine state so N engines of one
workload share one codegen artifact:

* :class:`CompiledModuleCode` — the immutable, shareable product of
  compiling one flattened module: the mid-end's schedule laid out as
  per-slot sensitivity templates, the slot layout, and the
  ``compile()``d Python code object.  Built once per module digest
  (the compiler service interns it in the artifact store) and reused
  by every engine simulating that module.
* :class:`CompiledSimulator` — one engine's mutable state: a fresh
  :class:`~repro.interp.store.Store`, a fresh namespace the shared code
  object is exec'd into (binding the engine's slots, memories and task
  host), per-engine edge-detection triggers, and the event queues.

:class:`CompiledSimulator` is ABI-identical to the reference
interpreter (:class:`~repro.interp.simulator.InterpSimulator`) — the
same :class:`~repro.interp.simulator.SimulatorABI` surface, same
``store``/``evaluator`` attributes — but executes generated Python
functions instead of walking the AST.  It does not inherit the
interpreter: its ``evaluator`` is its own
:class:`~repro.interp.simulator.Reference` over its store, and
every cold path (system tasks and functions, ``$readmem``, trap
argument evaluation, uncompilable statements and assigns) runs that
*reference* implementation, keeping behaviour bit-identical by
construction.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Dict, List, Optional, Sequence, Tuple

from ...verilog import ast_nodes as ast
from ...verilog.rewrite import collect_identifiers
from ...verilog.width import WidthEnv
from ..eval_expr import EvalError
from ..systasks import FinishSignal, TaskHost
from ..simulator import (
    _MAX_SETTLE_ROUNDS,
    Reference,
    SimulationError,
    SimulatorABI,
)
from ...opt import optimize_module
from ...verilog.width import WidthError
from ..store import SlotLayout, Store
from .exprc import CompileFallback, ExprCompiler, HELPERS
from .stmtc import ProcessCompiler


class _Trigger:
    """One sensitivity entry: either a star-dependency or an edge event.

    An edge trigger keeps the last sampled value of its event
    expression in ``cell[0]``.  Invariant: when the code artifact plans
    a ``tick_clock``, every edge trigger of the engine samples that one
    bare signal, and every site that writes a previous value
    (``_prime_edges``, ``_drain``, the generated
    ``period()``) writes all of them together — so they share **one**
    cell, and ``period()`` reads and writes a single value.
    """

    __slots__ = ("proc", "edge", "fn", "cell")

    def __init__(self, proc: int, edge: Optional[str] = None, fn=None,
                 cell: Optional[List[int]] = None):
        self.proc = proc
        self.edge = edge    # None = star sensitivity (enqueue on any change)
        self.fn = fn        # compiled event-expression value closure
        self.cell = [0] if cell is None else cell


class CompiledModuleCode:
    """Immutable codegen artifact for one flattened module.

    Everything here is a pure function of the module text: the slot
    layout, the slot-indexed sensitivity templates laid out from the
    mid-end's :class:`~repro.opt.schedule.Schedule` (``schedule``), the
    generated source and its compiled code object.  Engines share one
    instance (keyed by module digest in the artifact store) and bind
    their own mutable state to it at construction — nothing in this
    class is written after ``__init__``.
    """

    def __init__(self, module: ast.Module, env: Optional[WidthEnv] = None,
                 opt_level: Optional[int] = None,
                 keep: "frozenset[str]" = frozenset(), opt=None):
        # The mid-end runs first: the schedule and code generation both
        # see the *optimized* module.  At level 0 this is the identity
        # and the artifact matches the unoptimized backend exactly.  A
        # pre-built pipeline output (*opt*, e.g. the compiler service's
        # cached ``KIND_OPT`` artifact) skips the mid-end entirely.
        if opt is None:
            opt = optimize_module(module, env=env, level=opt_level, keep=keep)
        self.module = opt.module
        self.env = opt.env
        self.opt_level = opt.level
        #: the mid-end ran: the range facts and the vector carrier
        #: are licensed (never at ``-O0``)
        self.specialize = opt.level > 0
        self.fingerprint = opt.fingerprint
        #: processes, cones, clock, gates and refusals, planned by opt
        self.schedule = opt.schedule
        self.layout = SlotLayout(self.env)
        self._plan_slots()
        self._generate()
        self.init_decls: Tuple[Tuple[str, ast.Expr, int], ...] = tuple(
            (item.name, item.init, self.env.signal(item.name).width)
            for item in self.module.items
            if isinstance(item, ast.Decl) and item.init is not None
            and item.kind in ("reg", "integer")
            and not self.env.signal(item.name).is_memory)

    def _plan_slots(self) -> None:
        """Lay the schedule out over slots: what each slot's change wakes."""
        schedule = self.schedule
        layout = self.layout
        nslots = layout.n_slots
        # Sensitivity templates: slot -> ranked proc ids, and slot ->
        # ordered trigger specs — ("star", proc) for FIFO procs, or
        # ("edge", k) referencing event k's per-engine trigger.  The
        # per-slot order (process order, unranked/star before edges)
        # matches the reference scheduler's activation order exactly.
        comb_watch: List[List[int]] = [[] for _ in range(nslots)]
        trig_specs: List[List[Tuple[str, int]]] = [[] for _ in range(nslots)]
        edge_specs: List[Tuple[int, Optional[str]]] = []
        ranked = set(schedule.comb_order)

        def slots(names):
            for name in names:
                slot = layout.slot_of.get(name, layout.mem_slot_of.get(name))
                if slot is not None:
                    yield slot

        for proc in schedule.processes:
            if proc.kind in ("assign", "cone", "star"):
                for slot in slots(proc.reads):
                    if proc.index in ranked:
                        comb_watch[slot].append(proc.index)
                    else:
                        trig_specs[slot].append(("star", proc.index))
            for event in proc.events:
                k = len(edge_specs)
                edge_specs.append((proc.index, event.edge))
                for slot in slots(collect_identifiers(event.expr)):
                    trig_specs[slot].append(("edge", k))
        self.comb_watch: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(procs) for procs in comb_watch
        )
        self.trig_specs: Tuple[Tuple[Tuple[str, int], ...], ...] = tuple(
            tuple(specs) for specs in trig_specs
        )
        self.edge_specs: Tuple[Tuple[int, Optional[str]], ...] = tuple(edge_specs)
        self.watched = frozenset(
            s for s in range(nslots)
            if self.comb_watch[s] or self.trig_specs[s]
        )
        #: output slot -> the licensed @* block writing it.  Only a write
        #: from outside (a store poke, a restore) can change one behind
        #: the block's back, and the interpreter's @* re-runs on it, so
        #: such a write wakes the block (and, on the carrier, the sweep).
        self.cone_out: Dict[int, int] = {
            layout.slot_of[name]: p.index
            for p in schedule.processes if p.kind == "cone"
            for name in p.writes}
        self.comb_in = bytes(bool(procs) or slot in self.cone_out
                             for slot, procs in enumerate(self.comb_watch))
        # Value changes wake exactly the reading cones.  Positions in
        # the acyclic prefix of ``comb_order`` dispatch from a min-heap
        # — writes there only re-mark strictly later positions, so heap
        # order equals a forward scan over the marked entries — while
        # the trailing group (cycle members, their downstream, and
        # self-reading assigns) keeps position-ordered fixpoint
        # iteration.  Fifo designs rank nothing.
        event_pos = [-1] * len(schedule.processes)
        for pos, pidx in enumerate(schedule.comb_order):
            event_pos[pidx] = pos
        self.event_pos: Tuple[int, ...] = tuple(event_pos)
        #: fifo schedule: process -> is a continuous assign, so
        #: ``settle()`` runs a queued assign ahead of the blocks, as the
        #: interpreter does; empty otherwise (every assign is ranked)
        self.queued_assign: Tuple[bool, ...] = tuple(
            p.kind == "assign" for p in schedule.processes
        ) if schedule.fifo else ()
        #: the planned tick clock's slot (None: no tick clock)
        self.tick_clock_slot = layout.slot_of.get(schedule.tick_clock)
        #: scalar slots whose nonzero value means an architectural
        #: update is still queued between native cycles — the transform
        #: layer's NBA shadow machinery (pending-write enables, queue
        #: counts/cursors, the shared write-sequence stamp).  Quiescence
        #: predicates must treat them as activity: a drained-next-tick
        #: queue is *not* idle.
        self.activity_slots: Tuple[int, ...] = tuple(sorted(
            slot for name, slot in layout.slot_of.items()
            if name == "__wseq"
            or name.startswith(("__wn_", "__we_", "__wc_", "__wq"))
        ))

    # -- code generation -------------------------------------------------------

    def _generate(self) -> None:
        schedule = self.schedule
        layout = self.layout
        ec = ExprCompiler(self.env, layout.slot_of, layout.mem_slot_of)
        ec.bound = {} if self.specialize else None  # range-fact licence
        pc = ProcessCompiler(ec, self.watched)
        lines: List[str] = []
        #: assign process -> its function's lines (``comb()`` inlines them)
        cones: Dict[int, List[str]] = {}
        for proc in schedule.processes:
            name = f"p{proc.index}"
            if proc.kind == "assign":
                cones[proc.index] = pc.compile_assign(name, proc.assign)
                lines.extend(cones[proc.index])
            else:
                lines.extend(pc.compile_procedural(name, proc.stmt))
        # Event-expression value closures, numbered as ``edge_specs``.
        event_sources: List[str] = []
        events = (e for proc in schedule.processes for e in proc.events)
        for k, event in enumerate(events):
            event_sources += [f"def e{k}():",
                              f"    return {ec.compile(event.expr)}", ""]
        # Clock-gate closures (not on the fifo schedule): one Python-boolean
        # predicate per gated edge process, evaluated at dequeue time
        # — a queued process can blocking-write another's enable, so
        # trigger-fire time would read stale values.
        gate_ids: List[int] = []
        for pidx in sorted(schedule.gates):
            try:
                src = ec.compile_cond(schedule.gates[pidx])
            except (CompileFallback, WidthError):
                continue
            event_sources += [f"def g{pidx}():", f"    return {src}", ""]
            gate_ids.append(pidx)
        self.gate_ids: Tuple[int, ...] = tuple(gate_ids)
        #: gated processes whose skip is provable with the clock parked
        #: low — the ones the quiescence probe may discount entirely
        self.idle_gate_procs = frozenset(gate_ids) - schedule.gate_reads_clock
        self.source = "\n".join(pc.writer_defs + lines + event_sources
                                + self._period_source(cones))
        self.code = compile(self.source, "<repro-compiled>", "exec")
        self.consts: Tuple[object, ...] = tuple(ec.consts)
        #: procedural process name -> why each of its escapes was not
        #: lowered (empty: fully lowered), and what the range facts
        #: licensed; ``--sim-source`` prints both
        self.escapes: Dict[str, List[str]] = pc.escapes
        self.facts: Dict[str, int] = ec.facts

    def _period_source(self, cones: Dict[int, List[str]]) -> List[str]:
        """``comb()``, ``latch()`` and ``period()``: one clock period as code.

        What ``settle()`` decides per tick by walking queues — which
        processes the edge fires, in which order, which cones a write
        wakes — is fixed by the schedule (``fired``, ``comb_order``), so the
        event plan's period is emitted as straight-line code over the
        same ``p*`` / ``g*`` functions (a static ``comb()`` inlines each
        assign's whole ``pK`` body from *cones* and calls a licensed
        ``@*`` block's), with the same
        ``settle_rounds`` accounting.  ``period()`` assumes the resting
        state between periods (clock low, previous value low, empty
        process queue, clock slot clean); ``_tick_event`` sends anything
        else through the reference period.
        """
        schedule = self.schedule
        if schedule.period_plan is None:
            return []
        clk = self.tick_clock_slot
        out: List[str] = []
        if schedule.period_plan == "static":
            # Each cone runs iff a slot it reads is dirty when its rank
            # comes up: flags set by the caller or by an earlier cone
            # (the prefix is acyclic, so never by a later one) stay set
            # until the pass ends.  Equal, run for run, to popping the
            # woken positions off settle()'s heap.
            reads: Dict[int, List[int]] = {p: [] for p in schedule.comb_order}
            for slot, procs in enumerate(self.comb_watch):
                for p in procs:
                    reads[p].append(slot)
            out.append("def comb():")
            for p in schedule.comb_order:
                if reads[p]:
                    test = " or ".join(f"df[{slot}]" for slot in reads[p])
                    out += [f"    if {test}:", "        S.settle_rounds += 1"]
                    out += (["    " + ln for ln in cones[p][1:-1]]
                            if p in cones else [f"        p{p}()"])
            out += ["    for slot in dl:", "        df[slot] = 0",
                    "    del dl[:]", ""]
            pending = "dl or heap"
        else:
            out += ["comb = settle", ""]
            pending = "dl or heap or S._trail_count"
        # every entry applies itself (a writer or Evaluator.apply), in order
        out += ["def latch():", "    q = nba[:]; del nba[:]", "    for e in q:",
                "        e[0](e)", "    if dl:", "        comb()", ""]
        out.append("def period():")
        for value in (1, 0):
            out += [f"    d[{clk}] = {value}", f"    pv[0] = {value}"]
            for p in self.comb_watch[clk]:
                # a cone reads the clock: wake it as _drain would
                pos = self.event_pos[p]
                wake = (f"heappush(heap, {pos})" if pos < schedule.acyclic
                        else "S._trail_count += 1")
                out += [f"    if not pend[{p}]:",
                        f"        pend[{p}] = 1; {wake}"]
            fired = schedule.fired(value)
            if value or self.comb_watch[clk]:
                # activity from before the period (a poked input, a
                # restore) or the clock-reading cones just woken; the
                # rising edge leaves none behind for the falling one
                out += [f"    if {pending}:", "        settle()"]
            for n, p in enumerate(fired):
                out.append("    S.settle_rounds += 1")
                body = [f"p{p}()", "if dl:", "    comb()"]
                if p in self.gate_ids:
                    body = ["try:", f"    live = g{p}()",
                            "except Exception:", "    live = True",
                            "if live:"] + ["    " + ln for ln in body]
                rest = tuple(fired[n + 1:])
                if rest:
                    # an aborted settle() leaves the unrun activations
                    # queued; so does an aborted period
                    body = (["try:"] + ["    " + ln for ln in body]
                            + ["except FinishSignal:",
                               f"    S._requeue({rest!r})", "    raise"])
                out += ["    " + ln for ln in body]
            if fired:
                out += ["    guard = 0", "    while nba:",
                        "        guard += 1",
                        f"        if guard > {_MAX_SETTLE_ROUNDS}:",
                        "            raise SimulationError("
                        "'update region did not converge')",
                        "        latch()"]
        out.append("")
        return out


class CompiledSimulator(SimulatorABI):
    """Simulates one flattened module through compiled closures.

    Pass *code* (a :class:`CompiledModuleCode`, usually from the
    compiler service's artifact store) to skip analysis and code
    generation entirely — the warm-engine path; without it, the code
    artifact is built inline, the cold path.
    """

    backend = "compiled"

    def __init__(self, module: ast.Module, host: Optional[TaskHost] = None,
                 env: Optional[WidthEnv] = None,
                 code: Optional[CompiledModuleCode] = None):
        if code is None:
            code = CompiledModuleCode(module, env=env)
        self.code = code
        self.module = code.module
        self.env = code.env
        self.store = Store(self.env, layout=code.layout)
        self._nba: List[tuple] = []
        self.evaluator = Reference(self.env, self.store,
                                   host if host is not None else TaskHost(),
                                   self._nba.append)
        self.settle_rounds = 0
        #: periods that took the reference period (no planned clock, a
        #: second clock, an entry state ``period()`` cannot assume)
        self.slow_periods = 0
        schedule = code.schedule
        nprocs = len(schedule.processes)
        #: process runs one settle may make before it is declared divergent
        self._settle_limit = _MAX_SETTLE_ROUNDS * max(1, nprocs)
        self._comb_order = schedule.comb_order
        self._comb_watch = code.comb_watch
        self._comb_pending = bytearray(nprocs)
        self._queued = bytearray(nprocs)
        self._proc_queue: List[int] = []
        # Activity dispatch: a min-heap of woken acyclic positions plus
        # a count of woken trailing (fixpoint) members.
        self._ev_pos = code.event_pos
        self._ev_acyclic = schedule.acyclic
        self._ev_heap: List[int] = []
        self._trail_count = 0
        self._instantiate()
        self._initialize()
        self._claim_vcd()

    # -- engine instantiation ---------------------------------------------------

    def _instantiate(self) -> None:
        """Bind the shared code object to this engine's mutable state."""
        code = self.code
        store = self.store
        #: the previous clock value every trigger on the planned tick
        #: clock shares (see :class:`_Trigger`)
        clock_prev = self._clock_prev = [0]
        namespace: Dict[str, object] = {
            "S": self,
            "d": store.data,
            "df": store.dirty_flags,
            "dla": store.dirty_list.append,
            "nbap": self._nba.append,
            "EV": self.evaluator._eval,
            "EVC": self.evaluator,
            "SYS": self.evaluator.sysfunc,
            "SimulationError": SimulationError,
            # what the generated period() schedules with
            "dl": store.dirty_list,
            "heap": self._ev_heap,
            "heappush": heappush,
            "pend": self._comb_pending,
            "nba": self._nba,
            "settle": self.settle,
            "pv": clock_prev,
            "FinishSignal": FinishSignal,
        }
        namespace.update(HELPERS)
        for mem_name, slot in code.layout.mem_slot_of.items():
            namespace[f"m{slot}"] = store.memories[mem_name]
        for i, obj in enumerate(code.consts):
            namespace[f"c{i}"] = obj
        exec(code.code, namespace)
        nprocs = len(code.schedule.processes)
        self._fn = [namespace[f"p{i}"] for i in range(nprocs)]
        # Clock-gate predicates, indexed by process (None = ungated).
        self._gates = [namespace.get(f"g{i}") for i in range(nprocs)]
        # Per-engine edge-detection triggers over the shared templates.
        shared = clock_prev if code.schedule.tick_clock is not None else None
        self._events = [
            _Trigger(proc, edge, namespace[f"e{k}"], shared)
            for k, (proc, edge) in enumerate(code.edge_specs)
        ]
        #: the generated clock period (None: no tick clock on this plan)
        self._period = namespace.get("period")
        stars: Dict[int, _Trigger] = {}
        trig_watch: List[List[_Trigger]] = []
        for specs in code.trig_specs:
            entries: List[_Trigger] = []
            for kind, ref in specs:
                if kind == "star":
                    trigger = stars.get(ref)
                    if trigger is None:
                        trigger = stars[ref] = _Trigger(ref)
                    entries.append(trigger)
                else:
                    entries.append(self._events[ref])
            trig_watch.append(entries)
        self._trig_watch = trig_watch

    # -- initialization ---------------------------------------------------------

    def _initialize(self) -> None:
        for name, init, width in self.code.init_decls:
            value = self.evaluator.eval(init, width)
            self.store.set(name, value, notify=False)
        for index in self.code.schedule.prime_comb:
            self._wake(index)
        for index in self.code.schedule.prime_queue:
            self._queued[index] = 1
            self._proc_queue.append(index)
        try:
            self.settle()
        except FinishSignal:  # a $finish at boot: the run ends at time 0
            pass
        self._prime_edges()

    def _prime_edges(self) -> None:
        for trigger in self._events:
            try:
                trigger.cell[0] = trigger.fn()
            except EvalError:
                trigger.cell[0] = 0

    # -- scheduling core ---------------------------------------------------------

    def _drain(self) -> None:
        """Convert dirty slots into process activations.

        A changed slot wakes exactly the cones reading it — acyclic
        positions go onto the heap, trailing members bump the fixpoint
        count — and fires the slot's triggers in the reference
        scheduler's activation order.
        """
        store = self.store
        dirty = store.dirty_list
        if not dirty:
            return
        flags = store.dirty_flags
        comb_watch = self._comb_watch
        trig_watch = self._trig_watch
        pending = self._comb_pending
        queued = self._queued
        queue = self._proc_queue
        evpos = self._ev_pos
        acyc = self._ev_acyclic
        heap = self._ev_heap
        i = 0
        while i < len(dirty):
            slot = dirty[i]
            i += 1
            flags[slot] = 0
            for p in comb_watch[slot]:
                if not pending[p]:
                    pending[p] = 1
                    pos = evpos[p]
                    if pos < acyc:
                        heappush(heap, pos)
                    else:
                        self._trail_count += 1
            watch = trig_watch[slot]
            if not watch:
                continue
            # Triggers on one clock share a previous-value cell: every
            # firing decision reads it before any sample is stored.
            sampled = []
            for trigger in watch:
                if trigger.edge is None:
                    p = trigger.proc
                    if not queued[p]:
                        queued[p] = 1
                        queue.append(p)
                    continue
                try:
                    new = trigger.fn()
                except EvalError:
                    new = 0
                prev = trigger.cell[0]
                edge = trigger.edge
                if edge == "posedge":
                    fired = not (prev & 1) and (new & 1)
                elif edge == "negedge":
                    fired = (prev & 1) and not (new & 1)
                else:
                    fired = new != prev
                sampled.append((trigger.cell, new))
                if fired:
                    p = trigger.proc
                    if not queued[p]:
                        queued[p] = 1
                        queue.append(p)
            for cell, new in sampled:
                cell[0] = new
        del dirty[:]

    def settle(self) -> None:
        """Run evaluation events to fixpoint (no NBA latching).

        Pending continuous assigns run before the next procedural block
        — the interpreter's assigns-first schedule — and only the woken
        ones run; on the fifo schedule, which ranks nothing, that means
        the first queued assign runs ahead of the queued blocks.  The
        acyclic prefix of ``rank_order`` dispatches from a min-heap of
        woken positions: popping positions in ascending order is a
        forward scan restricted to marked entries, and prefix writes
        only ever mark strictly later positions, so one monotone pass
        settles it.  Trailing positions (cycle members
        and anything at or after a self-reading assign) iterate in
        position order to fixpoint.  Procedural blocks (always@*,
        edge-triggered, initial) run FIFO, one per outer iteration,
        exactly like the interpreter; gated edge processes are skipped
        at dequeue time when their enable is provably low (the gate
        table only admits bodies that are no-ops under a false enable,
        so the skip is exact).  One run per process execution is
        counted against a limit that scales with process count, like
        the interpreter's, so a long-but-terminating settle never trips
        the guard.
        """
        if self.store.dirty_list:
            self._drain_dirty()
        heap = self._ev_heap
        order = self._comb_order
        acyc = self._ev_acyclic
        pending = self._comb_pending
        funcs = self._fn
        queue = self._proc_queue
        queued = self._queued
        gates = self._gates
        assigns = self.code.queued_assign
        runs = 0
        limit = self._settle_limit
        while heap or self._trail_count or queue:
            while heap or self._trail_count:
                while heap:
                    pos = heappop(heap)
                    p = order[pos]
                    if not pending[p]:
                        continue
                    pending[p] = 0
                    self.settle_rounds += 1
                    runs += 1
                    if runs > limit:
                        raise SimulationError("evaluation did not converge "
                                              "(combinational loop?)")
                    funcs[p]()
                    if self.store.dirty_list:
                        self._drain()
                if self._trail_count:
                    for pos in range(acyc, len(order)):
                        p = order[pos]
                        if pending[p]:
                            pending[p] = 0
                            self._trail_count -= 1
                            self.settle_rounds += 1
                            runs += 1
                            if runs > limit:
                                raise SimulationError(
                                    "evaluation did not converge "
                                    "(combinational loop?)")
                            funcs[p]()
                            if self.store.dirty_list:
                                self._drain()
            if queue:
                i = 0
                if assigns:
                    i = next((k for k, q in enumerate(queue) if assigns[q]), 0)
                p = queue.pop(i)
                queued[p] = 0
                self.settle_rounds += 1
                runs += 1
                if runs > limit:
                    raise SimulationError("evaluation did not converge "
                                          "(combinational loop?)")
                gate = gates[p]
                if gate is not None:
                    try:
                        live = bool(gate())
                    except Exception:
                        live = True
                    if not live:
                        continue
                funcs[p]()
                if self.store.dirty_list:
                    self._drain()

    def tick(self, clock: str = "clock", cycles: int = 1) -> None:
        """Drive *cycles* clock periods (:meth:`_tick_event`)."""
        self._tick_event(clock, cycles)

    def tick_metered(self, clock: str, cycles: int, now: float,
                     until: float, per_tick: float,
                     per_stmt: float) -> Tuple[int, float, int]:
        """:meth:`tick` with a cost meter and early return, for engines.

        Drives up to *cycles* periods, adding ``per_tick + statements *
        per_stmt`` to *now* after each one — period by period, so the
        total does not depend on how a span is cut into calls — and
        returns after the period that raises ``$finish``, ``$save`` or
        ``$restart`` or takes *now* to *until* (``inf`` for never).  The
        result is ``(periods retired, now, periods the quiescence proof
        retired)``.
        """
        return self._tick_event(clock, cycles, now, until, per_tick, per_stmt)

    def _tick_event(self, clock: str, cycles: int,
                    now: Optional[float] = None, until: float = inf,
                    per_tick: float = 0.0, per_stmt: float = 0.0):
        """The period loop every period of this engine runs through.

        A period of the planned ``tick_clock`` is one call of the code
        artifact's generated ``period()`` — both clock edges, the
        processes each fires, the cones their writes wake and the update
        region, as straight-line code
        (:meth:`CompiledModuleCode._period_source`).  Any other period is
        the reference period (``_reference_period``: the clock driven
        through the store, the same :meth:`settle` reached through
        ``_drain``), counted in ``slow_periods``: every period when no
        clock is planned (``code.schedule.period_refused`` says why) or
        *clock* is another one, and the first period of a call that
        finds the engine off rest.  This loop owns what spans periods:
        the quiescence probe, ``$finish`` compression, time, the
        waveform sample, the cost meter and the stop test.

        ``period()`` assumes the resting state a completed period
        leaves: clock low with a matching previous value, no queued
        activation or NBA, the clock slot clean.  A caller can break
        that between calls (the clock poked high through the store, a
        ``notify=False`` write that left the previous value stale, a
        ``$finish`` that aborted a settle mid-queue), so it is checked
        on entry; the reference period restores it.

        On the planned clock, on entry and again after any period that
        executed no statement, the scheduler probes for quiescence
        (:meth:`is_idle`).  A quiescent engine retires all remaining periods at once — time
        moves, nothing executes.  Idle periods are exact: they would
        have run zero process bodies, so skipping them is bit-identical
        — which also makes the probe optional: an idle period that goes
        unprobed (the first after a busy one) simply runs, and executes
        nothing.

        *now* switches on :meth:`tick_metered`'s cost meter and stop
        test; without it the loop stops only at ``$finish``.
        """
        code = self.code
        ref = self.evaluator
        host = ref.host
        period = self._period
        vcd = self._vcd
        metered = now is not None
        planned = period is not None and clock == code.schedule.tick_clock
        slot = code.tick_clock_slot
        rested = planned and not (
            self.store.data[slot] or self._clock_prev[0] or self._proc_queue
            or self._nba or self.store.dirty_flags[slot])
        i = idle = 0
        probe = planned
        while i < cycles and not host.finished:
            if probe and self.is_idle():
                idle = cycles - i
                if metered:
                    # One addition per period, as single-stepping makes.
                    for idle in range(1, idle + 1):
                        now += per_tick
                        if now >= until:
                            break
                if vcd is not None:  # the first idle period's sample;
                    vcd.sample(ref.time + 1)  # the rest change nothing
                ref.time += idle
                i += idle
                break
            before = ref.stmts_executed
            if rested:
                try:
                    period()
                except FinishSignal:
                    pass
                ref.time += 1
                if vcd is not None:  # (the reference period samples)
                    vcd.sample(ref.time)
            else:
                rested = planned
                self.slow_periods += 1
                self._reference_period(clock)
            i += 1
            executed = ref.stmts_executed - before
            probe = planned and not executed
            if metered:
                now += per_tick + executed * per_stmt
                if (host.save_requested or host.restart_requested
                        or now >= until):
                    break
        return i, now, idle

    def is_idle(self) -> bool:
        """True when further ``tick()`` calls provably execute nothing.

        The hypervisor uses this to fast-forward idle engines instead
        of dispatching no-op periods, and :meth:`_tick_event` to retire
        a quiescent engine's remaining periods at once.  Conservative:
        any condition the event scheduler cannot prove quiescent
        returns False.

        Quiescent means: nothing pending anywhere (heap, trailing
        count, process queue, NBA queue, dirty slots); no combinational
        cone reads the clock; every clock trigger is a gated process
        whose enable does not read the clock (the probe evaluates it
        with the clock at rest) and is low — the gate table only admits
        bodies that are no-ops under a false enable; and no machinified
        NBA shadow slot (``code.activity_slots``) is nonzero, since a
        loop-carried NBA staged there drains on the *next* activation.
        """
        if self.host.finished:
            return True
        code = self.code
        if (self._period is None or self._ev_heap or self._trail_count
                or self._proc_queue or self._nba or self.store.dirty_list):
            return False
        slot = code.tick_clock_slot
        if self._comb_watch[slot]:
            return False
        for trigger in self._trig_watch[slot]:
            p = trigger.proc
            if p not in code.idle_gate_procs:
                return False
            try:
                if self._gates[p]():
                    return False
            except Exception:
                return False
        d = self.store.data
        return not any(d[s] for s in code.activity_slots)

    def _wake(self, index: int) -> None:
        """Mark ranked process *index* pending, as ``_drain`` does."""
        if not self._comb_pending[index]:
            self._comb_pending[index] = 1
            pos = self._ev_pos[index]
            if pos < self._ev_acyclic:
                heappush(self._ev_heap, pos)
            else:
                self._trail_count += 1

    def _drain_dirty(self) -> None:
        """Wake what writes from outside the processes changed (a store
        poke, a restore, the update region): each licensed ``@*`` block
        whose output a dirty slot holds (``code.cone_out``) — nothing
        but the block writes its outputs, so only such a write can
        change one behind its back — then every reader (:meth:`_drain`).
        The generated ``latch()`` wakes through ``comb()`` instead."""
        cone_out = self.code.cone_out
        if cone_out:
            for slot in self.store.dirty_list:
                if slot in cone_out:
                    self._wake(cone_out[slot])
        self._drain()

    def _requeue(self, procs: Sequence[int]) -> None:
        """Queue activations a generated period fired but did not reach.

        A ``$finish`` raised mid-``settle()`` leaves the rest of the
        process queue in place; an aborted ``period()`` leaves the same.
        """
        for p in procs:
            if not self._queued[p]:
                self._queued[p] = 1
                self._proc_queue.append(p)
