"""The schedule: how the compiled backend runs one optimized design.

Which processes rank as logic cones, which clock a generated period
runs on and why a block stays on the queue are properties of the
program text, so the mid-end decides them once, from the final
:class:`~repro.opt.ir.Design`, and carries the answer on
``OptResult.schedule``.  Codegen only lays the facts out in slots and
emits; both carriers (the scalar engine and the vector lane program)
read the same table.  Nothing here depends on a slot layout: a name is
a declared scalar exactly when ``env.signals`` holds it as a
non-memory.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..verilog import ast_nodes as ast
from ..verilog.rewrite import (
    collect_identifiers, lvalue_reads, lvalue_targets, stmt_identifiers,
)
from ..verilog.width import WidthEnv
from .ir import Design, expr_pure

#: The vector carrier recomputes the whole ranked cone whenever a
#: combinational input changed.  Above this many assigns that sweep
#: costs more than the scalar plan's selective re-evaluation, so only
#: small cones are licensed for it.
_VECTOR_COMB_MAX = 96


@dataclass
class Proc:
    """One process as the engine runs it, numbered densely: ``pK``."""

    index: int
    kind: str  # "assign" | "cone" | "star" | "edge" | "initial"
    reads: Set[str]
    writes: Set[str]
    stmt: Optional[ast.Stmt] = None
    assign: Optional[ast.ContinuousAssign] = None
    events: Tuple[ast.EventExpr, ...] = ()


def _block_reads(stmt, defined: Set[str], written: Set[str],
                 reads: Set[str]) -> Tuple[Set[str], Set[str]]:
    """Add to *reads* what *stmt* may read before it writes it whole, and
    any name it may write a second time in one run (the interpreter
    wakes a block again on its own first value).  *defined* / *written*:
    names written whole on every path / on some path so far; returns
    both as they stand after *stmt*.  A loop reads all it mentions."""
    if stmt is None:
        return defined, written
    if isinstance(stmt, ast.Block):
        for inner in stmt.stmts:
            defined, written = _block_reads(inner, defined, written, reads)
        return defined, written
    if isinstance(stmt, ast.Assign):
        targets = set(lvalue_targets(stmt.lhs))
        reads |= ((collect_identifiers(stmt.rhs)
                   | lvalue_reads(stmt.lhs)) - defined
                  | targets & written)
        whole = isinstance(stmt.lhs, ast.Identifier)  # a select: a latch
        return defined | targets if whole else defined, written | targets
    if isinstance(stmt, (ast.If, ast.Case)):
        for expr in ast.stmt_exprs(stmt):
            reads |= collect_identifiers(expr) - defined
        arms = ([stmt.then_stmt, stmt.else_stmt] if isinstance(stmt, ast.If)
                else [item.stmt for item in stmt.items]  # (None: no default)
                + [None] * all(item.labels for item in stmt.items))
        paths = [_block_reads(arm, defined, written, reads) for arm in arms]
        return (set.intersection(*(d for d, _ in paths)),
                set.union(*(w for _, w in paths)))
    reads |= stmt_identifiers(stmt)  # a loop: even a name written before
    return defined, written


def _reach(names: Set[str], edges: Dict[str, List[Set[str]]]) -> Set[str]:
    """*names* and every name *edges* leads to from them."""
    seen, todo = set(names), list(names)
    while todo:
        for step in edges.get(todo.pop(), ()):
            todo += step - seen
            seen |= step
    return seen


def rank_order(reads: Sequence[Set[str]],
               writes: Sequence[Set[str]]) -> Tuple[List[int], int]:
    """Level processes into dependency ranks (silicon's logic cones).

    ``reads[i]``/``writes[i]`` are the names process *i* is sensitive
    to / drives.  A process reading only primary inputs is rank 0, one
    reading rank-0 outputs rank 1, and so on; ties go by index.  Returns
    the permutation and the length of its acyclic prefix: every process
    Kahn's walk dequeues comes before the trailing group (cycle members
    and anything downstream of one, which share one synthetic rank), so
    positions below the count settle in one forward pass — writes only
    re-mark strictly later positions — and the rest iterate to fixpoint.
    """
    n = len(reads)
    writers_of: Dict[str, List[int]] = {}
    for i, names in enumerate(writes):
        for name in names:
            writers_of.setdefault(name, []).append(i)
    succ: List[Set[int]] = [set() for _ in range(n)]
    indegree = [0] * n
    for j, names in enumerate(reads):
        for name in names:
            for i in writers_of.get(name, ()):
                if i != j and j not in succ[i]:
                    succ[i].add(j)
                    indegree[j] += 1
    rank = [0] * n
    queue = [i for i in range(n) if indegree[i] == 0]
    head = 0
    while head < len(queue):
        i = queue[head]
        head += 1
        for j in succ[i]:
            if rank[i] + 1 > rank[j]:
                rank[j] = rank[i] + 1
            indegree[j] -= 1
            if indegree[j] == 0:
                queue.append(j)
    if head < n:
        cycle_rank, dequeued = max(rank) + 1, set(queue)
        for i in range(n):
            if i not in dequeued:
                rank[i] = cycle_rank
    return sorted(range(n), key=lambda i: (rank[i], i)), head


class Schedule:
    """Everything the compiled backend decides from the design alone.

    ``processes`` is the dense process table; the rest are its
    planning facts, each documented where it is set.  Built once by
    ``optimize_module`` at every level; never written afterwards.
    """

    def __init__(self, design: Design, specialize: bool):
        env = design.env
        self.processes: List[Proc] = []
        gate_of: Dict[int, ast.Expr] = {}
        for proc in design.processes():
            item, n = proc.item, len(self.processes)
            if proc.kind == "assign":
                if isinstance(item, ast.Decl):  # an implied assign
                    item = ast.ContinuousAssign(ast.Identifier(item.name),
                                                item.init)
                self.processes.append(
                    Proc(n, "assign", proc.reads, proc.writes, assign=item))
                continue
            if proc.kind == "edge" and proc.index in design.clock_gates:
                gate_of[n] = design.clock_gates[proc.index]
            self.processes.append(Proc(
                n, proc.kind, proc.reads, proc.writes, stmt=item.stmt,
                events=tuple(item.sensitivity) if proc.kind == "edge" else ()))
        # Rank-ordering assigns is only unobservable when their RHSes
        # are pure; an `assign x = $random` makes intra-class order
        # matter, so such modules run assigns through the FIFO scan too.
        self.fifo = any(
            not (expr_pure(p.assign.rhs) and expr_pure(p.assign.lhs))
            for p in self.processes if p.kind == "assign")
        #: refused ``@*`` block -> the cone-licence clause it failed
        self.cone_refused: Dict[int, str] = {}
        self._license_cones(design, env)
        comb = ([] if self.fifo else
                [p for p in self.processes if p.kind in ("assign", "cone")])
        order, acyclic = rank_order([p.reads for p in comb],
                                    [p.writes for p in comb])
        #: continuous assigns and licensed ``@*`` blocks, in rank order
        self.comb_order: Tuple[int, ...] = tuple(comb[i].index for i in order)
        for pos, ci in enumerate(order[:acyclic]):
            if comb[ci].reads & comb[ci].writes:
                # A self-reading assign re-marks its *own* position;
                # the one-pass heap argument needs strictly-forward
                # marks, so it (and everything after it) iterates.
                acyclic = pos
                break
        #: length of the heap-dispatched acyclic prefix of ``comb_order``
        self.acyclic = acyclic
        #: the single free-running clock, or None with the reason in
        #: ``period_refused`` (no ``tick_clock``, hence no ``period()``)
        self.tick_clock: Optional[str] = None
        self.period_refused: Optional[str] = self._plan_tick_clock(env)
        #: a small, fully acyclic ranked cone: one forward pass in rank
        #: order settles it, so it can run as straight-line code — the
        #: vector carrier's per-tick sweep and the generated
        #: ``comb()`` of the scalar period share this one licence
        self.comb_static = (
            not self.fifo
            and acyclic == len(self.comb_order) <= _VECTOR_COMB_MAX)
        #: whether the vector carrier may run this module: optimized, a
        #: small, fully acyclic ranked cone under one free-running
        #: clock.
        self.vector_licensed = (specialize and self.comb_static
                                and bool(self.comb_order)
                                and self.tick_clock is not None)
        #: how the generated ``period()`` settles combinational logic:
        #: ``"static"`` (``comb()`` is the ranked cone as code),
        #: ``"settle"`` (a cyclic, large or clock-reading cone goes
        #: through the generic ``settle()``), or None — no period is
        #: generated and ``period_refused`` says why
        self.period_plan: Optional[str] = None
        if self.tick_clock is not None:
            if self.fifo:
                self.period_refused = (
                    "fifo schedule (impure continuous assign)")
            elif self.comb_static and not any(
                    self.tick_clock in self.processes[p].reads
                    for p in self.comb_order):
                self.period_plan = "static"
            else:
                self.period_plan = "settle"
        self._plan_gates(gate_of)
        prime_comb: List[int] = []
        prime_queue: List[int] = []
        for proc in self.processes:
            if proc.kind == "cone" or (
                    proc.kind == "assign" and not self.fifo):
                prime_comb.append(proc.index)
            elif proc.kind in ("initial", "star", "assign"):
                # @* blocks prime like the interpreter's: combinational
                # state starts at its fixpoint, matching hardware.
                prime_queue.append(proc.index)
        #: what boot wakes: ranked processes, then the queued ones
        self.prime_comb: Tuple[int, ...] = tuple(prime_comb)
        self.prime_queue: Tuple[int, ...] = tuple(prime_queue)

    def fired(self, rising: bool) -> List[int]:
        """The processes one edge of ``tick_clock`` fires, in order."""
        skip = "negedge" if rising else "posedge"
        return [p.index for p in self.processes
                if any(event.edge != skip for event in p.events)]

    def __eq__(self, other: object) -> bool:
        return type(other) is Schedule and vars(self) == vars(other)

    def _license_cones(self, design: Design, env: WidthEnv) -> None:
        """Rank ``@*`` blocks with the assigns where that is unobservable.

        The interpreter runs a woken assign ahead of every queued
        process, but an ``@*`` block in FIFO order with them.  A block
        becomes a cone member (kind ``"cone"``: ranked, primed and swept
        like an assign) unless a clause of docs/ARCHITECTURE.md's cone
        licence refuses it: (1) impure, or not the sole blocking writer
        of its scalars; (2) reads its writes, before writing them or
        through the cone, or writes one twice or in a loop; (3) a
        queued process could see it run early — (a) an initial reads
        its fan-out, or an edge process blocking-writes (a queued ``@*``
        block writes) its fan-in, (b) an event signal is in its fan-in or driven in
        the module, (c) a queued ``@*`` block reads its fan-out, (d) a
        latch has another ``@*`` block upstream.  Fan-in and fan-out
        are transitive through the cone; (3) is a fixpoint, as a
        refused block is queued and may refuse another.
        ``cone_refused`` keeps each refusal's clause.
        """
        procs = self.processes
        if not any(p.kind == "star" for p in procs):
            return
        facts = design.processes()  # (purity, blocking writes)
        driven = Counter(name for p in procs for name in p.writes)
        ins: Dict[int, Set[str]] = {}
        latches = set()
        for p in procs:
            if p.kind != "star":
                continue
            reads: Set[str] = set()
            if p.writes - _block_reads(p.stmt, set(), set(), reads)[0]:
                latches.add(p.index)
            if self.fifo:
                self.cone_refused[p.index] = "fifo schedule"
            elif not (facts[p.index].pure and all(
                    node.blocking for node in ast.walk_stmt(p.stmt)
                    if isinstance(node, ast.Assign)) and all(
                    driven[name] == 1 and name in env.signals
                    and not env.signals[name].is_memory
                    for name in p.writes)):
                self.cone_refused[p.index] = (
                    "(1) impure body, or a memory, non-blocking or shared write")
            elif reads & p.writes:
                self.cone_refused[p.index] = "(2) reads or rewrites its writes"
            else:
                ins[p.index] = reads
        if not ins:
            return
        events = set().union(*(collect_identifiers(e.expr)
                               for p in procs for e in p.events))
        primed = set().union(*(p.reads for p in procs if p.kind == "initial"))
        racing = set().union(*(facts[p.index].blocking
                               for p in procs if p.kind == "edge"))
        while ins:
            up: Dict[str, List[Set[str]]] = {}
            down: Dict[str, List[Set[str]]] = {}
            for p in procs:
                if p.kind == "assign" or p.index in ins:
                    reads = ins.get(p.index, p.reads)
                    for name in p.writes:
                        up.setdefault(name, []).append(reads)
                    for name in reads:
                        down.setdefault(name, []).append(p.writes)
            queued = [p for p in procs
                      if p.kind == "star" and p.index not in ins]
            racers = racing.union(*(p.writes for p in queued))
            refused = {}
            for b in ins:
                fin, fout = _reach(ins[b], up), _reach(procs[b].writes, down)
                if fin & procs[b].writes:
                    refused[b] = "(2) reads its writes through the cone"
                elif fout & primed or fin & racers:
                    refused[b] = ("(3a) an initial reads its fan-out, or a "
                                  "blocking write races its fan-in")
                elif fin & events or events & driven.keys():
                    refused[b] = "(3b) a clock in its fan-in, or a derived clock"
                elif any(q.reads & fout for q in queued):
                    refused[b] = "(3c) a queued @* block reads its fan-out"
                elif b in latches and any(
                        p.kind == "star" and p.index != b and p.writes & fin
                        for p in procs):
                    refused[b] = "(3d) a latch behind another @* block"
            if not refused:
                break
            self.cone_refused.update(refused)
            for b in refused:
                del ins[b]
        for b, reads in ins.items():
            procs[b].kind, procs[b].reads = "cone", reads

    def _plan_tick_clock(self, env: WidthEnv) -> Optional[str]:
        """Identify the single free-running clock, if the design has one.

        When every edge-triggered process is sensitive to one bare
        one-bit signal that nothing in the module drives (the classic
        externally-driven clock), and every ``@*`` block is a licensed
        cone member (none shares the FIFO queue), the clock edge can be
        applied and its triggers fired inline, without store-API
        dispatch, dirty marking, or trigger re-evaluation — what the
        event plan's generated ``period()`` and the vector carrier both
        do.  Returns None with ``tick_clock`` set, or the condition
        that failed (for a block on the queue, the licence clause).
        """
        clock: Optional[str] = None
        for proc in self.processes:
            if proc.kind == "star":
                # shares the FIFO queue on arbitrary changes
                return (f"@* process on the queue: p{proc.index} "
                        f"{self.cone_refused[proc.index]}")
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
        sig = env.signals.get(clock)
        if sig is None or sig.is_memory or sig.width != 1:
            return "clock is not a one-bit signal"
        # The clock must be externally driven only.
        if any(clock in proc.writes for proc in self.processes):
            return "clock driven in-module"
        self.tick_clock = clock
        return None

    def _plan_gates(self, gate_of: Dict[int, ast.Expr]) -> None:
        """Key the mid-end's clock-gate table by edge process.

        The ``gate`` pass keys gated ``always @(edge)`` items by item
        index; a gate expression is the OR of the body's top-level
        enables, so a false gate proves the whole activation is a
        no-op and the scheduler may drop it at dequeue time (never on
        the fifo schedule).  Gates whose expression reads the planned
        tick clock are excluded from *idle* reasoning only
        (``gate_reads_clock``): the idle probe evaluates with the clock
        parked low, but a real activation sees it high, so the two
        evaluations may disagree — dequeue-time skipping stays sound
        either way because it reads live values.
        """
        #: edge process -> its enable expression
        self.gates: Dict[int, ast.Expr] = {} if self.fifo else gate_of
        self.gate_reads_clock = frozenset(
            p for p, expr in self.gates.items()
            if self.tick_clock in collect_identifiers(expr))
