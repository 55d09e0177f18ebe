"""The compiled simulator: closures + slot store + ranked scheduling.

Code generation is split from engine state so N engines of one
workload share one codegen artifact:

* :class:`CompiledModuleCode` — the immutable, shareable product of
  compiling one flattened module: process analysis, the ranked
  schedule and sensitivity templates, the slot layout, and the
  ``compile()``d Python code object.  Built once per module digest
  (the compiler service interns it in the artifact store) and reused
  by every engine simulating that module.
* :class:`CompiledSimulator` — one engine's mutable state: a fresh
  :class:`SlotStore`, a fresh namespace the shared code object is
  exec'd into (binding the engine's slots, memories and task host),
  per-engine edge-detection triggers, and the event queues.

:class:`CompiledSimulator` is ABI-identical to the reference
interpreter (:class:`~repro.interp.simulator.InterpSimulator`) — same
``get``/``set``/``evaluate``/``update``/``step``/``tick``/``run``/
``save_state``/``restore_state`` surface, same ``store``/``evaluator``
attributes — but executes generated Python functions instead of
walking the AST.  It subclasses the interpreter so every cold path
(system tasks, ``$readmem``, trap argument evaluation, uncompilable
statements) runs the *reference* implementation against the slot
store, keeping behaviour bit-identical by construction.
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from math import inf
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...verilog import ast_nodes as ast
from ...verilog.rewrite import collect_identifiers, lvalue_targets, stmt_identifiers
from ...verilog.width import WidthEnv
from ..eval_expr import EvalError, Evaluator
from ..systasks import FinishSignal, TaskHost
from ..simulator import (
    _MAX_SETTLE_ROUNDS,
    InterpSimulator,
    SimulationError,
)
from ...opt import optimize_module
from ...verilog.width import WidthError
from .exprc import CompileFallback, ExprCompiler, HELPERS, expr_is_pure
from .scheduler import acyclic_count, rank_order
from .slots import SlotLayout, SlotStore
from .stmtc import ProcessCompiler

#: The vector carrier recomputes the whole ranked cone whenever a
#: combinational input changed.  Above this many assigns that sweep
#: costs more than the scalar plan's selective re-evaluation, so only
#: small cones are licensed for it.
_VECTOR_COMB_MAX = 96


def resolve_sim_event(flag: Optional[bool] = None) -> bool:
    """Effective event-driven-scheduling selection for an override.

    Explicit argument wins; otherwise ``REPRO_SIM_EVENT`` (read per
    call, like ``REPRO_SIM_BACKEND``, so tests can monkeypatch it);
    otherwise on.  ``0``/``false``/``no``/``off`` disable it — the
    baseline configuration the differential oracle compares against
    (no heap prefix, no gates, no generated period, no idle proof).
    """
    if flag is not None:
        return bool(flag)
    raw = os.environ.get("REPRO_SIM_EVENT", "").strip().lower()
    if raw == "":
        return True
    return raw not in ("0", "false", "no", "off")


class _Trigger:
    """One sensitivity entry: either a star-dependency or an edge event.

    An edge trigger keeps the last sampled value of its event
    expression in ``cell[0]``.  Invariant: when the code artifact plans
    a ``tick_clock``, every edge trigger of the engine samples that one
    bare signal, and every site that writes a previous value
    (``_initialize``, ``_drain``, ``restore_state``, the generated
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


class _ProcInfo:
    """Analysis record for one process before code generation."""

    __slots__ = ("index", "kind", "stmt", "assign", "events", "reads", "writes")

    def __init__(self, index: int, kind: str, stmt=None, assign=None,
                 events: Sequence[ast.EventExpr] = (),
                 reads: Optional[Set[str]] = None,
                 writes: Optional[Set[str]] = None):
        self.index = index
        self.kind = kind  # "assign" | "star" | "edge" | "initial"
        self.stmt = stmt
        self.assign = assign
        self.events = list(events)
        self.reads = reads or set()
        self.writes = writes or set()


class CompiledModuleCode:
    """Immutable codegen artifact for one flattened module.

    Everything here is a pure function of the module text: analysis
    records, the ranked combinational schedule, per-slot sensitivity
    templates, the generated source and its compiled code object, and
    the slot layout.  Engines share one instance (keyed by module
    digest in the artifact store) and bind their own mutable state to
    it at construction — nothing in this class is written after
    ``__init__``.
    """

    def __init__(self, module: ast.Module, env: Optional[WidthEnv] = None,
                 opt_level: Optional[int] = None,
                 keep: "frozenset[str]" = frozenset(), opt=None,
                 event: Optional[bool] = None):
        # The mid-end runs first: the rest of the analysis, scheduling
        # and code generation all see the *optimized* module.  At
        # level 0 this is the identity and the artifact matches the
        # unoptimized backend exactly.  A pre-built pipeline output
        # (*opt*, e.g. the compiler service's cached ``KIND_OPT``
        # artifact) skips the mid-end entirely.
        if opt is None:
            opt = optimize_module(module, env=env, level=opt_level, keep=keep)
        self.opt = opt
        self.source_module = module
        self.module = opt.module
        self.env = opt.env
        self.opt_level = opt.level
        #: two-state licence: specialized emission (slot caching) and
        #: the vector carrier are only attempted when granted
        self.specialize = opt.specialize
        self.fingerprint = opt.fingerprint
        #: event-driven activity scheduling requested (resolved here so
        #: the artifact is a deterministic function of its inputs;
        #: ``_plan_schedule`` may still withdraw it for fifo designs)
        self.event_requested = resolve_sim_event(event)
        self.layout = SlotLayout(self.env)
        self.processes: List[_ProcInfo] = []
        self._analyze()
        self.nprocs = len(self.processes)
        self._plan_schedule()
        self._generate()
        self._plan_initialization()

    # -- analysis -------------------------------------------------------------

    def _analyze(self) -> None:
        index = 0
        #: process index -> position of its item in ``module.items``
        #: (the mid-end's ``clock_gates`` table is keyed by item index;
        #: ``Design.to_module`` preserves item order 1:1)
        self._item_pos: Dict[int, int] = {}
        for item_pos, item in enumerate(self.module.items):
            if isinstance(item, ast.ContinuousAssign):
                reads = (collect_identifiers(item.rhs)
                         | InterpSimulator._lhs_index_deps(item.lhs))
                writes = set(lvalue_targets(item.lhs))
                self.processes.append(_ProcInfo(
                    index, "assign", assign=item, reads=reads, writes=writes))
            elif isinstance(item, ast.Always):
                if item.sensitivity == ast.STAR:
                    # always@* blocks stay on the interpreter-identical
                    # FIFO queue: promoting them into the ranked sweep
                    # can resequence them past edge-triggered or initial
                    # processes queued in the same drain, which is
                    # observable through $display and blocking-read
                    # races.  The win is per-execution (compiled
                    # closures), not per-schedule.
                    reads = stmt_identifiers(item.stmt)
                    self.processes.append(_ProcInfo(
                        index, "star", stmt=item.stmt, reads=reads))
                else:
                    self.processes.append(_ProcInfo(
                        index, "edge", stmt=item.stmt, events=item.sensitivity))
            elif isinstance(item, ast.Initial):
                self.processes.append(_ProcInfo(index, "initial", stmt=item.stmt))
            elif (isinstance(item, ast.Decl) and item.kind == "wire"
                    and item.init is not None):
                implied = ast.ContinuousAssign(ast.Identifier(item.name), item.init)
                reads = collect_identifiers(item.init)
                self.processes.append(_ProcInfo(
                    index, "assign", assign=implied, reads=reads,
                    writes={item.name}))
            else:
                continue
            self._item_pos[index] = item_pos
            index += 1
        # Rank-ordering assigns is only unobservable when their RHSes
        # are pure; an `assign x = $random` makes intra-class order
        # matter, so such modules run assigns through the FIFO scan too.
        self.fifo_mode = any(
            not (expr_is_pure(p.assign.rhs) and expr_is_pure(p.assign.lhs))
            for p in self.processes if p.kind == "assign"
        )

    def _slot_for(self, name: str) -> Optional[int]:
        slot = self.layout.slot_of.get(name)
        if slot is None:
            slot = self.layout.mem_slot_of.get(name)
        return slot

    def _plan_schedule(self) -> None:
        nslots = self.layout.n_slots
        is_assign = bytearray(self.nprocs)
        for proc in self.processes:
            if proc.kind == "assign":
                is_assign[proc.index] = 1
        self.is_assign = bytes(is_assign)
        # Continuous assigns, levelled into ranks (unless fifo_mode).
        comb = ([] if self.fifo_mode
                else [p for p in self.processes if p.kind == "assign"])
        order = rank_order([p.reads for p in comb], [p.writes for p in comb])
        self.comb_order: Tuple[int, ...] = tuple(comb[i].index for i in order)
        # Sensitivity templates: slot -> ranked proc ids, and slot ->
        # ordered trigger specs — ("star", proc) for FIFO procs, or
        # ("edge", k) referencing event k's per-engine trigger.  The
        # per-slot order (process order, unranked/star before edges)
        # matches the reference scheduler's activation order exactly.
        comb_watch: List[List[int]] = [[] for _ in range(nslots)]
        trig_specs: List[List[Tuple[str, int]]] = [[] for _ in range(nslots)]
        edge_specs: List[Tuple[int, Optional[str]]] = []
        ranked = set(self.comb_order)
        for proc in self.processes:
            if proc.kind in ("assign", "star"):
                for name in proc.reads:
                    slot = self._slot_for(name)
                    if slot is None:
                        continue
                    if proc.index in ranked:
                        comb_watch[slot].append(proc.index)
                    else:
                        trig_specs[slot].append(("star", proc.index))
            elif proc.kind == "edge":
                for event in proc.events:
                    k = len(edge_specs)
                    edge_specs.append((proc.index, event.edge))
                    for name in collect_identifiers(event.expr):
                        slot = self._slot_for(name)
                        if slot is not None:
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
        # -- vector-carrier marking -----------------------------------------
        # Slots that procedural/star/edge machinery watches, vs slots
        # that only exist to re-mark ranked assigns.  The vector carrier
        # (``batch.py``) keeps no dirty tracking for the latter: it
        # recomputes the whole rank-ordered cone whenever a
        # combinational input changed.
        self.trig_slots = frozenset(
            s for s in range(nslots) if self.trig_specs[s])
        comb_in = bytearray(nslots)
        for proc in comb:
            for name in proc.reads:
                slot = self._slot_for(name)
                if slot is not None:
                    comb_in[slot] = 1
        self.comb_in = bytes(comb_in)
        # -- activity planning ---------------------------------------------
        # Value changes wake exactly the reading cones.  Positions in
        # the acyclic prefix of ``rank_order`` dispatch from a min-heap
        # — writes there only re-mark strictly later positions, so heap
        # order equals a forward scan over the marked entries — while
        # the trailing group (cycle members, their downstream, and
        # self-reading assigns) keeps position-ordered fixpoint
        # iteration.  The baseline configuration (*event* off) is
        # the same loop with an empty prefix: every position iterates.
        # Fifo designs (impure assigns need the interpreter-identical
        # scan) rank nothing and settle through ``_settle_fifo``.
        event_pos = [-1] * self.nprocs
        for pos, pidx in enumerate(self.comb_order):
            event_pos[pidx] = pos
        self.event_pos: Tuple[int, ...] = tuple(event_pos)
        acyclic = 0
        if comb:
            acyclic = acyclic_count([p.reads for p in comb],
                                    [p.writes for p in comb])
            for pos, ci in enumerate(order[:acyclic]):
                if comb[ci].reads & comb[ci].writes:
                    # A self-reading assign re-marks its *own* position;
                    # the one-pass heap argument needs strictly-forward
                    # marks, so it (and everything after it) iterates.
                    acyclic = pos
                    break
        self.event_mode = self.event_requested and not self.fifo_mode
        self.event_acyclic = acyclic if self.event_mode else 0
        #: why no ``tick_clock`` (hence no ``period()``) was planned
        self.period_refused: Optional[str] = self._plan_tick_clock()
        #: a small, fully acyclic ranked cone: one forward pass in rank
        #: order settles it, so it can run as straight-line code — the
        #: vector carrier's per-tick sweep and the generated
        #: ``comb()`` of the scalar period share this one licence
        self.comb_static = (
            not self.fifo_mode
            and acyclic == len(self.comb_order) <= _VECTOR_COMB_MAX
        )
        #: whether the vector carrier may run this module: a two-state,
        #: small, fully acyclic ranked cone under one free-running
        #: clock.  Pure analysis — the same verdict on either
        #: configuration of the scalar plan.
        self.vector_licensed = (
            self.specialize
            and self.comb_static
            and bool(self.comb_order)
            and self.tick_clock is not None
        )
        #: how the generated ``period()`` settles combinational logic:
        #: ``"static"`` (``comb()`` is the ranked cone as code),
        #: ``"settle"`` (a cyclic, large or clock-reading cone goes
        #: through the generic ``settle()``), or None — no period is
        #: generated and ``period_refused`` says why
        self.period_plan: Optional[str] = None
        if self.tick_clock is not None:
            if not self.event_mode:
                self.period_refused = (
                    "fifo schedule (impure continuous assign)"
                    if self.fifo_mode else "baseline configuration")
            elif (self.comb_static
                    and not self.comb_watch[self.tick_clock_slot]):
                self.period_plan = "static"
            else:
                self.period_plan = "settle"
        #: scalar slots whose nonzero value means an architectural
        #: update is still queued between native cycles — the transform
        #: layer's NBA shadow machinery (pending-write enables, queue
        #: counts/cursors, the shared write-sequence stamp).  Quiescence
        #: predicates must treat them as activity: a drained-next-tick
        #: queue is *not* idle.
        self.activity_slots: Tuple[int, ...] = tuple(sorted(
            slot for name, slot in self.layout.slot_of.items()
            if name == "__wseq"
            or name.startswith(("__wn_", "__we_", "__wc_", "__wq"))
        ))
        self._plan_gates()

    def _plan_tick_clock(self) -> Optional[str]:
        """Identify the single free-running clock, if the design has one.

        When every edge-triggered process is sensitive to one bare
        scalar signal that nothing in the module drives (the classic
        externally-driven clock), and no ``@*`` process shares the
        FIFO queue, the clock edge can be applied and its triggers
        fired inline, without store-API dispatch, dirty marking, or
        trigger re-evaluation — what the event plan's generated
        ``period()`` and the vector carrier both do.  Returns None
        with ``tick_clock`` set, or the condition that failed.
        """
        self.tick_clock: Optional[str] = None
        clock: Optional[str] = None
        for proc in self.processes:
            if proc.kind == "star":
                # shares the FIFO queue on arbitrary changes
                return "@* process on the queue"
            if proc.kind != "edge":
                continue
            for event in proc.events:
                expr = event.expr
                if not isinstance(expr, ast.Identifier):
                    return "non-identifier event"
                if clock is None:
                    clock = expr.name
                elif expr.name != clock:
                    return "second clock"
        if clock is None:
            return "no edge-triggered process"
        slot = self.layout.slot_of.get(clock)
        sig = self.env.signals.get(clock)
        if slot is None or sig is None or sig.width != 1:
            return "clock is not a one-bit signal"
        # The clock must be externally driven only.
        from ...opt.ir import stmt_writes

        for proc in self.processes:
            if clock in proc.writes or (
                    proc.stmt is not None and clock in stmt_writes(proc.stmt)):
                return "clock driven in-module"
        self.tick_clock = clock
        self.tick_clock_slot = slot
        return None

    def _plan_gates(self) -> None:
        """Map the mid-end's clock-gate table onto edge processes.

        ``opt.clock_gates`` keys gated ``always @(edge)`` items by item
        index; a gate expression is the OR of the body's top-level
        enables, so a false gate proves the whole activation is a
        no-op and the scheduler may drop it at dequeue time.  Gates
        whose expression reads the planned tick clock are excluded from
        *idle* reasoning only (``gate_reads_clock``): the idle probe
        evaluates with the clock parked low, but a real activation sees
        it high, so the two evaluations may disagree — dequeue-time
        skipping stays sound either way because it reads live values.
        """
        self.gate_exprs: Dict[int, ast.Expr] = {}
        reads_clock: Set[int] = set()
        if self.event_mode:
            table = getattr(self.opt, "clock_gates", None) or {}
            if table:
                for proc in self.processes:
                    if proc.kind != "edge":
                        continue
                    expr = table.get(self._item_pos[proc.index])
                    if expr is None:
                        continue
                    self.gate_exprs[proc.index] = expr
                    if (self.tick_clock is not None and
                            self.tick_clock in collect_identifiers(expr)):
                        reads_clock.add(proc.index)
        self.gate_reads_clock = frozenset(reads_clock)

    # -- code generation -------------------------------------------------------

    def _generate(self) -> None:
        layout = self.layout
        ec = ExprCompiler(self.env, layout.slot_of, layout.mem_slot_of)
        ec.bound = {} if self.specialize else None  # range-fact licence
        pc = ProcessCompiler(ec, self.watched)
        lines: List[str] = []
        for proc in self.processes:
            name = f"p{proc.index}"
            if proc.kind == "assign":
                lines.extend(pc.compile_assign(name, proc.assign))
            else:
                lines.extend(pc.compile_procedural(
                    name, proc.stmt, specialize=self.specialize))
        # Compile event-expression value closures (order matches
        # self.edge_specs, which _plan_schedule filled in process order).
        event_sources: List[str] = []
        k = 0
        for proc in self.processes:
            if proc.kind != "edge":
                continue
            for event in proc.events:
                src = ec.compile(event.expr)
                event_sources.append(f"def e{k}():")
                event_sources.append(f"    return {src}")
                event_sources.append("")
                k += 1
        # Clock-gate closures (event mode only): one Python-boolean
        # predicate per gated edge process, evaluated at dequeue time
        # — a queued process can blocking-write another's enable, so
        # trigger-fire time would read stale values.
        gate_ids: List[int] = []
        for pidx in sorted(self.gate_exprs):
            try:
                src = ec.compile_cond(self.gate_exprs[pidx])
            except (CompileFallback, WidthError):
                continue
            event_sources.append(f"def g{pidx}():")
            event_sources.append(f"    return {src}")
            event_sources.append("")
            gate_ids.append(pidx)
        self.gate_ids: Tuple[int, ...] = tuple(gate_ids)
        #: gated processes whose skip is provable with the clock parked
        #: low — the ones the quiescence probe may discount entirely
        self.idle_gate_procs = frozenset(gate_ids) - self.gate_reads_clock
        self.source = "\n".join(pc.writer_defs + lines + event_sources
                                + self._period_source())
        self.code = compile(self.source, "<repro-compiled>", "exec")
        self.consts: Tuple[object, ...] = tuple(ec.consts)
        #: process name -> "specialized" | "generic (<first fallback>)",
        #: and what the range facts licensed; ``--sim-source`` prints both
        self.strategy: Dict[str, str] = pc.strategy
        self.facts: Dict[str, int] = ec.facts

    def _period_source(self) -> List[str]:
        """``comb()``, ``latch()`` and ``period()``: one clock period as code.

        What ``settle()`` decides per tick by walking queues — which
        processes the edge fires, in which order, which cones a write
        wakes — is fixed by ``trig_specs`` and ``comb_order``, so the
        event plan's period is emitted as straight-line calls of the
        same ``p*`` / ``g*`` functions, with the same ``settle_rounds``
        accounting.  ``period()`` assumes the resting state between
        periods (clock low, previous value low, empty process queue,
        clock slot clean); ``_tick_event`` sends anything else through
        the reference ``tick``.
        """
        if self.period_plan is None:
            return []
        clk = self.tick_clock_slot
        out: List[str] = []
        if self.period_plan == "static":
            # Each cone runs iff a slot it reads is dirty when its rank
            # comes up: flags set by the caller or by an earlier cone
            # (the prefix is acyclic, so never by a later one) stay set
            # until the pass ends.  Equal, run for run, to popping the
            # woken positions off settle()'s heap.
            reads: Dict[int, List[int]] = {p: [] for p in self.comb_order}
            for slot, procs in enumerate(self.comb_watch):
                for p in procs:
                    reads[p].append(slot)
            out.append("def comb():")
            for p in self.comb_order:
                if reads[p]:
                    test = " or ".join(f"df[{slot}]" for slot in reads[p])
                    out += [f"    if {test}:",
                            "        S.settle_rounds += 1",
                            f"        p{p}()"]
            out += ["    for slot in dl:", "        df[slot] = 0",
                    "    del dl[:]", ""]
            pending = "dl or heap"
        else:
            out += ["comb = settle", ""]
            pending = "dl or heap or S._trail_count"
        out += ["def latch():", "    apply_nba()", "    if dl:",
                "        comb()", ""]
        out.append("def period():")
        for value in (1, 0):
            out += [f"    d[{clk}] = {value}", f"    pv[0] = {value}"]
            for p in self.comb_watch[clk]:
                # a cone reads the clock: wake it as _drain would
                pos = self.event_pos[p]
                wake = (f"heappush(heap, {pos})" if pos < self.event_acyclic
                        else "S._trail_count += 1")
                out += [f"    if not pend[{p}]:",
                        f"        pend[{p}] = 1; {wake}"]
            fired: List[int] = []
            for _, k in self.trig_specs[clk]:
                proc, edge = self.edge_specs[k]
                if (edge != ("negedge" if value else "posedge")
                        and proc not in fired):
                    fired.append(proc)
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

    # -- initialization plan -----------------------------------------------------

    def _plan_initialization(self) -> None:
        init_decls: List[Tuple[str, ast.Expr, int]] = []
        for item in self.module.items:
            if (isinstance(item, ast.Decl) and item.init is not None
                    and item.kind in ("reg", "integer")):
                sig = self.env.signal(item.name)
                if sig.is_memory:
                    continue
                init_decls.append((item.name, item.init, sig.width))
        self.init_decls: Tuple[Tuple[str, ast.Expr, int], ...] = tuple(init_decls)
        prime_comb: List[int] = []
        prime_queue: List[int] = []
        for proc in self.processes:
            if proc.kind == "assign" and not self.fifo_mode:
                prime_comb.append(proc.index)
            elif proc.kind in ("initial", "star") or (
                    proc.kind == "assign" and self.fifo_mode):
                # @* blocks prime like the interpreter's: combinational
                # state starts at its fixpoint, matching hardware.
                prime_queue.append(proc.index)
        self.prime_comb: Tuple[int, ...] = tuple(prime_comb)
        self.prime_queue: Tuple[int, ...] = tuple(prime_queue)


class CompiledSimulator(InterpSimulator):
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
        self.host = host if host is not None else TaskHost()
        self.env = code.env
        self.store = SlotStore(self.env, layout=code.layout)
        self.evaluator = Evaluator(self.env, self.store, self._sysfunc)
        self.time = 0
        self.stmts_executed = 0
        self.settle_rounds = 0
        #: periods that took the reference ``tick`` instead of the
        #: generated ``period()`` (no planned clock, the baseline, a
        #: store watcher, an entry state period() cannot assume)
        self.slow_periods = 0
        self._nba: List[tuple] = []
        self._write_buffer = ""
        self._processes = code.processes  # shared, read-only
        #: process runs one settle may make before it is declared divergent
        self._settle_limit = _MAX_SETTLE_ROUNDS * max(1, code.nprocs)
        self._fifo_mode = code.fifo_mode
        self._is_assign = code.is_assign
        self._comb_order = code.comb_order
        self._comb_watch = code.comb_watch
        self._comb_pending = bytearray(code.nprocs)
        self._queued = bytearray(code.nprocs)
        self._proc_queue: List[int] = []
        self._watched = code.watched
        # Activity dispatch: a min-heap of woken acyclic positions plus
        # a count of woken trailing (fixpoint) members.  The baseline
        # configuration has no acyclic prefix, so its heap stays empty.
        self._event = code.event_mode
        self._ev_pos = code.event_pos
        self._ev_acyclic = code.event_acyclic
        self._ev_heap: List[int] = []
        self._trail_count = 0
        if self._fifo_mode:
            # Shadow the method rather than branch inside it: settle is
            # the hottest entry point (several calls per tick).
            self.settle = self._settle_fifo  # type: ignore[assignment]
        self._instantiate()
        self._initialize()
        self._vcd = None
        vcd_path = os.environ.get("REPRO_VCD")
        if vcd_path:
            from ..vcd import claim_vcd, VCDWriter

            # First engine claims the dump: N tenants of one process
            # must not interleave writes into a single waveform file.
            if claim_vcd():
                self._vcd = VCDWriter(vcd_path, self.store, self.env)
                self._vcd.sample(self.time)

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
            "SYS": self._sysfunc,
            "SimulationError": SimulationError,
            # what the generated period() schedules with
            "dl": store.dirty_list,
            "heap": self._ev_heap,
            "heappush": heappush,
            "pend": self._comb_pending,
            "nba": self._nba,
            "apply_nba": self._apply_nba,
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
        self._source = code.source  # kept for debugging/inspection
        self._fn = [namespace[f"p{i}"] for i in range(code.nprocs)]
        # Clock-gate predicates, indexed by process (None = ungated).
        self._gates = [namespace.get(f"g{i}") for i in range(code.nprocs)]
        # Per-engine edge-detection triggers over the shared templates.
        self._events = [
            _Trigger(proc, edge, namespace[f"e{k}"],
                     clock_prev if code.tick_clock is not None else None)
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
        for index in self.code.prime_comb:
            if not self._comb_pending[index]:
                self._comb_pending[index] = 1
                pos = self._ev_pos[index]
                if pos < self._ev_acyclic:
                    heappush(self._ev_heap, pos)
                else:
                    self._trail_count += 1
        for index in self.code.prime_queue:
            self._queued[index] = 1
            self._proc_queue.append(index)
        self.settle()
        for trigger in self._events:
            trigger.cell[0] = self._trigger_value(trigger)

    @staticmethod
    def _trigger_value(trigger: _Trigger) -> int:
        try:
            return trigger.fn()
        except EvalError:
            return 0

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
        ones run.  The acyclic prefix of ``rank_order`` dispatches from
        a min-heap of woken positions: popping positions in ascending
        order is a forward scan restricted to marked entries, and
        prefix writes only ever mark strictly later positions, so one
        monotone pass settles it.  Trailing positions (cycle members
        and anything at or after a self-reading assign — every position
        in the baseline configuration) iterate in position order to
        fixpoint.  Procedural blocks (always@*, edge-triggered,
        initial) run FIFO, one per outer iteration, exactly like the
        interpreter; gated edge processes are skipped at dequeue time
        when their enable is provably low (the gate table only admits
        bodies that are no-ops under a false enable, so the skip is
        exact).  One run per process execution is counted against a
        limit that scales with process count, like the interpreter's,
        so a long-but-terminating settle never trips the guard.
        """
        if self.store.dirty_list:
            self._drain()
        heap = self._ev_heap
        order = self._comb_order
        acyc = self._ev_acyclic
        pending = self._comb_pending
        funcs = self._fn
        queue = self._proc_queue
        queued = self._queued
        gates = self._gates
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
                p = queue.pop(0)
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

    def _settle_fifo(self) -> None:
        """Interpreter-identical settle: one queue, assigns scanned first.

        Used when a continuous assign has an impure RHS (e.g.
        ``assign x = $random``), where even intra-class execution order
        is observable and must match the oracle exactly.
        """
        self._drain()
        queue = self._proc_queue
        queued = self._queued
        is_assign = self._is_assign
        funcs = self._fn
        runs = 0
        limit = self._settle_limit
        while queue:
            runs += 1
            if runs > limit:
                raise SimulationError("evaluation did not converge "
                                      "(combinational loop?)")
            pick = None
            for i, p in enumerate(queue):
                if is_assign[p]:
                    pick = queue.pop(i)
                    break
            if pick is None:
                pick = queue.pop(0)
            queued[pick] = 0
            self.settle_rounds += 1
            funcs[pick]()
            self._drain()

    def tick(self, clock: str = "clock", cycles: int = 1) -> None:
        """Drive *cycles* clock periods (VCD sampling wrapper).

        Waveform dumping needs a sample per period; with no writer
        attached this is a single delegation with zero overhead.
        """
        vcd = self._vcd
        if vcd is None:
            return self._tick(clock, cycles)
        for _ in range(cycles):
            self._tick(clock, 1)
            vcd.sample(self.time)

    def _tick(self, clock: str = "clock", cycles: int = 1) -> None:
        """Drive *cycles* clock periods; generated code on the event plan.

        For single-clock designs (``tick_clock`` planned by the code
        artifact) the event plan runs the artifact's generated
        ``period()`` (:meth:`_tick_event`).  Designs that fail the
        plan's conditions (``code.period_refused`` says which), engines
        with store watchers attached (the debugger) and the baseline
        configuration take the reference ``tick``/``step`` path, which
        reaches the same :meth:`settle` through the store API and
        ``_drain``; ``slow_periods`` counts those.
        """
        if (not self._event or clock != self.code.tick_clock
                or self.store._watchers):
            before = self.time
            super().tick(clock, cycles)
            self.slow_periods += self.time - before
            return
        self._tick_event(cycles)

    def tick_metered(self, clock: str, cycles: int, now: float,
                     until: float, per_tick: float,
                     per_stmt: float) -> Optional[Tuple[int, float, int]]:
        """:meth:`tick` with a cost meter and early return, for engines.

        Drives up to *cycles* periods of the event plan, adding
        ``per_tick + statements * per_stmt`` to *now* after each one —
        period by period, so the total does not depend on how a span is
        cut into calls — and returns after the period that raises
        ``$finish``, ``$save`` or ``$restart`` or takes *now* to
        *until* (``inf`` for never).  The result is ``(periods retired, now, periods the
        quiescence proof retired)``; None means this engine cannot run
        *clock* on the event plan (baseline or fifo schedule, a
        second clock, store watchers, a waveform writer) and the caller
        single-steps through :meth:`tick` instead.
        """
        if (not self._event or clock != self.code.tick_clock
                or self.store._watchers or self._vcd is not None):
            return None
        return self._tick_event(cycles, now, until, per_tick, per_stmt)

    def _tick_event(self, cycles: int, now: Optional[float] = None,
                    until: float = inf, per_tick: float = 0.0,
                    per_stmt: float = 0.0):
        """The event plan's period loop: generated period, idle fast path.

        Each period is one call of the code artifact's generated
        ``period()`` — both clock edges, the processes each fires, the
        cones their writes wake and the update region, as straight-line
        code (:meth:`CompiledModuleCode._period_source`).  This loop
        owns what spans periods: the quiescence probe, ``$finish``
        compression, time, the cost meter and the stop test.

        ``period()`` assumes the resting state a completed period
        leaves: clock low with a matching previous value, no queued
        activation or NBA, the clock slot clean.  A caller can break
        that between calls (the clock poked high through the store, a
        ``notify=False`` write that left the previous value stale, a
        ``$finish`` that aborted a settle mid-queue), so it is checked
        on entry, and the first period of such a call goes through the
        reference ``tick`` — which restores it.

        On entry, and again after any period that executed no
        statement, the scheduler probes for quiescence: nothing pending
        anywhere (heap, trailing count, process queue, NBA queue, dirty
        slots), no combinational cone reads the clock, every clock
        trigger is a gated process whose enable is provably low, and no
        machinified NBA shadow queue holds an undrained entry.  A
        quiescent engine retires all remaining periods at once — time
        moves, nothing executes.  Idle periods are exact: they would
        have run zero process bodies, so skipping them is bit-identical
        — which also makes the probe optional: an idle period that goes
        unprobed (the first after a busy one) simply runs, and executes
        nothing.

        *now* switches on :meth:`tick_metered`'s cost meter and stop
        test; without it the loop stops only at ``$finish``.
        """
        code = self.code
        dirty = self.store.dirty_list
        slot = code.tick_clock_slot
        host = self.host
        comb_clk = self._comb_watch[slot]
        entries = self._trig_watch[slot]
        queue = self._proc_queue
        heap = self._ev_heap
        nba = self._nba
        period = self._period
        metered = now is not None
        rested = not (self.store.data[slot] or self._clock_prev[0] or queue
                      or nba or self.store.dirty_flags[slot])
        i = idle = 0
        probe = True
        while i < cycles and not host.finished:
            if (probe and not heap and not self._trail_count and not queue
                    and not nba and not dirty and not comb_clk
                    and all(self._trigger_idle(t) for t in entries)
                    and self._activity_clear()):
                idle = cycles - i
                if metered:
                    # One addition per period, as single-stepping makes.
                    for idle in range(1, idle + 1):
                        now += per_tick
                        if now >= until:
                            break
                self.time += idle
                i += idle
                break
            before = self.stmts_executed
            if rested:
                try:
                    period()
                except FinishSignal:
                    pass
                self.time += 1
            else:
                rested = True
                self.slow_periods += 1
                InterpSimulator.tick(self, code.tick_clock, 1)
            i += 1
            executed = self.stmts_executed - before
            probe = not executed
            if metered:
                now += per_tick + executed * per_stmt
                if (host.save_requested or host.restart_requested
                        or now >= until):
                    break
        return i, now, idle

    def _trigger_idle(self, trigger) -> bool:
        """True when firing *trigger* this period is a provable no-op.

        Only gated edge processes whose enable expression does not read
        the clock qualify: the probe evaluates the gate with the clock
        at its resting level, and a clock-reading enable could flip at
        the real activation.  A low enable licenses skipping the body —
        the gate table only admits bodies that are no-ops under a
        false enable.
        """
        p = trigger.proc
        if p not in self.code.idle_gate_procs:
            return False
        gate = self._gates[p]
        try:
            return not gate()
        except Exception:
            return False

    def _activity_clear(self) -> bool:
        """True when no machinified NBA shadow queue holds activity.

        Loop-carried NBAs are staged in ``__w*`` shadow slots and
        drained by generated update logic on the *next* activation; a
        nonzero count/valid/sequence slot between periods is a pending
        architectural update and must veto quiescence (the bug class
        this PR's satellite audit targets).
        """
        d = self.store.data
        for s in self.code.activity_slots:
            if d[s]:
                return False
        return True

    def is_idle(self) -> bool:
        """True when further ``tick()`` calls provably execute nothing.

        The hypervisor uses this to fast-forward idle engines instead
        of dispatching no-op periods.  Conservative: any condition the
        event scheduler cannot prove quiescent returns False.
        """
        if self.host.finished:
            return True
        code = self.code
        if not self._event or code.tick_clock is None:
            return False
        if self.store._watchers:
            return False
        if (self._ev_heap or self._trail_count or self._proc_queue
                or self._nba or self.store.dirty_list):
            return False
        slot = code.tick_clock_slot
        if self._comb_watch[slot]:
            return False
        for trigger in self._trig_watch[slot]:
            if not self._trigger_idle(trigger):
                return False
        return self._activity_clear()

    def activity(self) -> int:
        """Count of pending scheduler events (0 does NOT imply idle)."""
        return (len(self._ev_heap) + self._trail_count
                + len(self._proc_queue) + len(self._nba)
                + len(self.store.dirty_list))

    def _apply_nba(self) -> None:
        """Apply queued non-blocking assignments, marking what changed."""
        pending = self._nba[:]
        del self._nba[:]  # keep list identity: compiled code binds .append
        assign = self.evaluator.assign
        for entry in pending:
            target = entry[0]
            if callable(target):
                # Compiled writer: (writer, value, *site-evaluated indices).
                target(*entry[1:])
            else:
                # AST lvalue from a fallback path (indices already frozen).
                assign(target, entry[1])

    def _latch(self) -> None:
        """The update region: apply the NBA queue, wake what it changed.

        The generated ``latch()`` applies through the same
        :meth:`_apply_nba` and wakes through ``comb()`` instead.
        """
        self._apply_nba()
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

    # -- state capture -----------------------------------------------------------

    def restore_state(self, snapshot: Dict[str, object]) -> None:
        self.store.restore(snapshot["store"])  # type: ignore[arg-type]
        self.host.vfs.restore(snapshot["vfs"])  # type: ignore[arg-type]
        self.time = int(snapshot["time"])  # type: ignore[arg-type]
        # Re-prime edge detection so restore does not fabricate edges.
        for trigger in self._events:
            trigger.cell[0] = self._trigger_value(trigger)
        # Snapshots are taken at quiescence; stale activity from the
        # pre-restore timeline must not leak into the new one.
        del self._ev_heap[:]
        self._trail_count = 0
        self._comb_pending[:] = bytes(len(self._comb_pending))
