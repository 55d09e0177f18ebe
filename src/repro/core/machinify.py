"""State-machine lowering (paper §3.4, Figures 4–5).

Lowers the merged core onto a state machine that yields control to the
runtime at **sub-clock-tick granularity**:

* states consist of as many synthesizable statements as possible and are
  terminated either by unsynthesizable tasks or by the guard of an
  ``if``/``case`` statement whose body contains one;
* a new state is created for each branch of such a conditional, and an
  SSA-style phi state rejoins control flow;
* every unsynthesizable *statement* (``$display``, ``$fread``, ``$save``,
  …) becomes a **task trap**: the state sets ``__task`` and control stops
  until the runtime services the trap and asserts ``__cont``;
* every unsynthesizable *expression* (``$feof``, ``$random``, …) is
  hoisted into a fresh query register filled in by the runtime through a
  ``set`` — the ``__feof1`` wire of Figure 5;
* non-blocking assignments write per-site shadow registers and are
  latched in a dedicated *update state* at the end of the logical tick,
  preserving Verilog's evaluate/update semantics;
* loops containing traps become states with back edges, so even
  unbounded ``while`` loops may block on IO mid-iteration.

The output is fully synthesizable Verilog plus a :class:`TransformResult`
mapping task identifiers back to the original constructs — the metadata
the runtime needs to service traps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..verilog import ast_nodes as ast
from ..verilog.rewrite import map_stmt
from ..verilog.width import WidthEnv, WidthError
from .control import (
    ABI_CONT,
    ABI_PORT,
    NATIVE_CLOCK,
    STATE_VAR,
    TASK_NONE,
    TASK_VAR,
    EdgeDetector,
    abi_ports,
    bookkeeping_decls,
    prev_value_items,
    status_decls,
)
from .scheduling import Core, TransformError, build_core

# System functions that are synthesizable (or constant-folded) and hence
# never hoisted into query traps.
_SYNTH_FUNCS = frozenset(["$signed", "$unsigned", "$clog2"])

SUFFIX = "__synergy"


@dataclass
class TaskSite:
    """One trap site: an unsynthesizable task or hoisted query.

    ``kind`` is ``"task"`` (statement position) or ``"query"``
    (expression position).  ``dest`` is the variable the runtime must
    ``set`` with the result: the query register for queries, the read
    target for ``$fread``.
    """

    id: int
    kind: str
    name: str
    args: Tuple[ast.Expr, ...]
    dest: Optional[ast.Expr] = None
    pos: ast.SourcePos = ast.SourcePos()


#: Pending-update queue capacity for NBA sites inside loops.  A loop
#: body executing one indexed site more than this many times in a
#: single virtual tick saturates the queue (further writes drop) —
#: matching the bounded shadow storage a synthesized update unit has.
NBA_QUEUE_DEPTH = 64


@dataclass
class NbaSite:
    """Shadow state materializing one non-blocking assignment site.

    Two shapes exist:

    * plain sites — one ``__we``/``__wd`` (plus ``__wa`` for indexed
      targets) shadow triple; correct when the site executes at most
      once per virtual tick, and for scalar targets always (last
      write wins on every path);
    * **queued** sites — an indexed target inside a loop body may
      execute several times per tick with different addresses, so the
      site keeps a pending-update queue of (index, value) pairs
      (``__wqa``/``__wqd`` shadow memories plus the ``__wn`` count)
      that the update state drains in execution order.  This closes
      the divergence documented by the ``loop_nba_memory`` corpus
      repro, where a single shadow address latched only the last
      iteration's write.

    Indexed sites additionally record a *sequence stamp* (the shared
    ``__wseq`` counter, sampled at write time): when a base register
    collects pending writes from more than one queued site, draining
    per-site would apply them queue-by-queue rather than in execution
    order, so the update state instead merge-drains all of that base's
    indexed sites by ascending stamp.
    """

    id: int
    lhs: ast.Expr
    we: str
    wd: str
    wa: Optional[str] = None
    #: queue names (addr memory, data memory, count) — queued sites only
    wq_addr: Optional[str] = None
    wq_data: Optional[str] = None
    wn: Optional[str] = None
    depth: int = 0
    #: sequence stamp reg (plain indexed sites)
    ws: Optional[str] = None
    #: sequence stamp memory + drain cursor reg (queued sites)
    wq_seq: Optional[str] = None
    wc: Optional[str] = None

    @property
    def queued(self) -> bool:
        return self.wn is not None

    @property
    def base_name(self) -> Optional[str]:
        """Name of the indexed target's base register, if resolvable."""
        if isinstance(self.lhs, (ast.Index, ast.RangeSelect)) and isinstance(
            self.lhs.base, ast.Identifier
        ):
            return self.lhs.base.name
        return None


@dataclass
class TransformResult:
    """A transformed module plus the metadata the runtime needs."""

    original: ast.Module
    module: ast.Module
    tasks: Dict[int, TaskSite]
    nba_sites: List[NbaSite]
    n_states: int
    final_state: int
    update_state: int
    guard_wires: List[str]
    soft_inits: List[Tuple[str, ast.Expr]]
    query_regs: List[str] = field(default_factory=list)

    @property
    def has_traps(self) -> bool:
        return bool(self.tasks)

    def external_names(self) -> "frozenset[str]":
        """Names the *runtime* touches by name while servicing traps.

        Trap argument expressions are evaluated over the ABI
        (``ReadExpr``) and results written back (``WriteLval``) against
        the live slot store — reads and writes the transformed module's
        own text never shows.  The mid-end must treat these names as
        externally observable roots or it would optimize them away.
        """
        from ..verilog.rewrite import collect_identifiers, lvalue_targets

        names: set = set()
        for site in self.tasks.values():
            for arg in site.args:
                if not isinstance(arg, ast.String):
                    names |= collect_identifiers(arg)
            if site.dest is not None:
                names |= set(lvalue_targets(site.dest))
                names |= collect_identifiers(site.dest)
        for name, init in self.soft_inits:
            names.add(name)
            names |= collect_identifiers(init)
        return frozenset(names)


class _State:
    __slots__ = ("id", "stmts", "terminator")

    def __init__(self, state_id: int):
        self.id = state_id
        self.stmts: List[ast.Stmt] = []
        # terminator: ("goto", next) | ("task", task_id, next)
        #           | ("branch", cond, then, else) | ("stop",)
        self.terminator: Tuple = ("stop",)


class _Machinifier:
    """Builds the state graph for one module's core."""

    def __init__(self, module: ast.Module, env: WidthEnv):
        self.module = module
        self.env = env
        self.states: List[_State] = []
        self.tasks: Dict[int, TaskSite] = {}
        self.nba_sites: List[NbaSite] = []
        self.new_decls: List[ast.Item] = []
        self.query_regs: List[str] = []
        self._current: Optional[_State] = None
        self._next_task_id = 1
        self._next_query = 0
        self._next_rep = 0
        #: lexical loop nesting at the point being lowered: NBA sites
        #: allocated inside a loop may execute several times per tick
        #: and get pending-update queues instead of single shadows
        self._loop_depth = 0
        self._update_loop_var: Optional[str] = None
        self._seq_var: Optional[str] = None

    # -- state graph helpers ----------------------------------------------

    def new_state(self) -> _State:
        state = _State(len(self.states))
        self.states.append(state)
        return state

    @property
    def current(self) -> _State:
        assert self._current is not None
        return self._current

    def emit(self, stmt: ast.Stmt) -> None:
        self.current.stmts.append(stmt)

    def _trap(self, site: TaskSite) -> None:
        """End the current state with a task trap; continue in a new one."""
        self.tasks[site.id] = site
        nxt = self.new_state()
        self.current.terminator = ("task", site.id, nxt.id)
        self._current = nxt

    def _goto(self, state: _State) -> None:
        self.current.terminator = ("goto", state.id)

    # -- unsynthesizable detection -------------------------------------------

    def _expr_has_query(self, expr: ast.Expr) -> bool:
        from ..verilog.ast_nodes import walk_expr

        return any(
            isinstance(node, ast.SysCall) and node.name not in _SYNTH_FUNCS
            for node in walk_expr(expr)
        )

    def _stmt_has_trap(self, stmt: Optional[ast.Stmt]) -> bool:
        if stmt is None:
            return False
        from ..verilog.ast_nodes import walk_stmt, stmt_exprs

        for node in walk_stmt(stmt):
            if isinstance(node, ast.SysTask):
                return True
            for expr in stmt_exprs(node):
                if self._expr_has_query(expr):
                    return True
        return False

    # -- query hoisting ----------------------------------------------------------

    def _hoist(self, expr: ast.Expr) -> ast.Expr:
        """Replace unsynthesizable calls in *expr* with query registers.

        Each replaced call terminates the current state with a query trap
        so the runtime can compute the value and ``set`` the register —
        the ``__feof1`` pattern of Figure 5.
        """
        if not self._expr_has_query(expr):
            return expr
        from ..verilog.rewrite import map_expr

        def fn(node: ast.Expr) -> ast.Expr:
            if isinstance(node, ast.SysCall) and node.name not in _SYNTH_FUNCS:
                return self._hoist_call(node)
            return node

        return map_expr(expr, fn)

    def _hoist_call(self, call: ast.SysCall) -> ast.Expr:
        try:
            width = self.env.width_of(call)
        except WidthError:
            width = 32
        reg = f"__q{self._next_query}"
        self._next_query += 1
        self.query_regs.append(reg)
        self.new_decls.append(
            ast.Decl("reg", reg, ast.Range(ast.Number(width - 1), ast.Number(0)))
        )
        site = TaskSite(
            self._next_task_id, "query", call.name, call.args,
            ast.Identifier(reg), call.pos,
        )
        self._next_task_id += 1
        self._trap(site)
        return ast.Identifier(reg)

    # -- NBA shadows ----------------------------------------------------------------

    def _seq_reg(self) -> str:
        """The shared write-sequence counter stamping indexed NBA sites.

        Stamps give the update state a total execution order across
        sites, which the merge-drain needs when several sites target
        one base register.  The counter resets each update state.
        """
        if self._seq_var is None:
            self._seq_var = "__wseq"
            self.new_decls.append(
                ast.Decl("reg", self._seq_var,
                         ast.Range(ast.Number(31), ast.Number(0))))
        return self._seq_var

    def _nba_shadow_stmts(self, stmt: ast.Assign) -> List[ast.Stmt]:
        """Allocate a shadow site for one NBA; returns the inline writes."""
        site_id = len(self.nba_sites)
        try:
            width = self.env.width_of(stmt.lhs)
        except WidthError:
            width = 32
        lhs = self._hoist(stmt.lhs) if self._expr_has_query(stmt.lhs) else stmt.lhs
        rhs = self._hoist(stmt.rhs)
        needs_addr = (
            isinstance(lhs, ast.Index)
            or (isinstance(lhs, ast.RangeSelect) and lhs.mode in ("+:", "-:"))
        )
        if needs_addr and self._loop_depth > 0:
            return self._nba_queue_stmts(site_id, lhs, rhs, width)
        we = f"__we_{site_id}"
        wd = f"__wd_{site_id}"
        self.new_decls.append(ast.Decl("reg", we))
        self.new_decls.append(
            ast.Decl("reg", wd, ast.Range(ast.Number(width - 1), ast.Number(0)))
        )
        wa: Optional[str] = None
        ws: Optional[str] = None
        out: List[ast.Stmt] = []
        if needs_addr:
            wa = f"__wa_{site_id}"
            self.new_decls.append(
                ast.Decl("reg", wa, ast.Range(ast.Number(31), ast.Number(0)))
            )
            addr_expr = lhs.index if isinstance(lhs, ast.Index) else lhs.msb
            out.append(ast.Assign(ast.Identifier(wa), addr_expr, blocking=True))
        out.append(ast.Assign(ast.Identifier(wd), rhs, blocking=True))
        out.append(ast.Assign(ast.Identifier(we), ast.Number(1, 1), blocking=True))
        if needs_addr:
            ws = f"__ws_{site_id}"
            self.new_decls.append(
                ast.Decl("reg", ws, ast.Range(ast.Number(31), ast.Number(0)))
            )
            seq = ast.Identifier(self._seq_reg())
            out.append(ast.Assign(ast.Identifier(ws), seq, blocking=True))
            out.append(ast.Assign(
                seq, ast.Binary("+", seq, ast.Number(1, 32)), blocking=True))
        self.nba_sites.append(NbaSite(site_id, lhs, we, wd, wa, ws=ws))
        return out

    def _nba_queue_stmts(self, site_id: int, lhs: ast.Expr, rhs: ast.Expr,
                         width: int) -> List[ast.Stmt]:
        """Pending-update queue push for a looped indexed NBA site.

        The site evaluates (index, value) at execution time — LRM
        §9.2.2 — and appends the pair; the update state replays the
        whole queue in execution order, so every iteration of a loop
        like ``for (i ...) mem[i] <= v;`` latches, not just the last.
        """
        wq_addr = f"__wqa_{site_id}"
        wq_data = f"__wqd_{site_id}"
        wq_seq = f"__wqs_{site_id}"
        wn = f"__wn_{site_id}"
        wc = f"__wc_{site_id}"
        depth = NBA_QUEUE_DEPTH
        dims = (ast.Range(ast.Number(0), ast.Number(depth - 1)),)
        self.new_decls.append(
            ast.Decl("reg", wq_addr,
                     ast.Range(ast.Number(31), ast.Number(0)), dims))
        self.new_decls.append(
            ast.Decl("reg", wq_data,
                     ast.Range(ast.Number(width - 1), ast.Number(0)), dims))
        self.new_decls.append(
            ast.Decl("reg", wq_seq,
                     ast.Range(ast.Number(31), ast.Number(0)), dims))
        self.new_decls.append(
            ast.Decl("reg", wn, ast.Range(ast.Number(31), ast.Number(0))))
        self.new_decls.append(
            ast.Decl("reg", wc, ast.Range(ast.Number(31), ast.Number(0))))
        addr_expr = lhs.index if isinstance(lhs, ast.Index) else lhs.msb
        wn_id = ast.Identifier(wn)
        seq = ast.Identifier(self._seq_reg())
        push = ast.Block((
            ast.Assign(ast.Index(ast.Identifier(wq_addr), wn_id),
                       addr_expr, blocking=True),
            ast.Assign(ast.Index(ast.Identifier(wq_data), wn_id),
                       rhs, blocking=True),
            ast.Assign(ast.Index(ast.Identifier(wq_seq), wn_id),
                       seq, blocking=True),
            ast.Assign(wn_id, ast.Binary("+", wn_id, ast.Number(1, 32)),
                       blocking=True),
            # dropped (saturated) writes consume no stamp, so the
            # increment stays inside the capacity guard
            ast.Assign(seq, ast.Binary("+", seq, ast.Number(1, 32)),
                       blocking=True),
        ))
        guarded = ast.If(
            ast.Binary("<", wn_id, ast.Number(depth, 32)), push, None)
        self.nba_sites.append(NbaSite(
            site_id, lhs, we="", wd="", wq_addr=wq_addr, wq_data=wq_data,
            wn=wn, depth=depth, wq_seq=wq_seq, wc=wc))
        return [guarded]

    def _lower_nba(self, stmt: ast.Assign) -> None:
        for shadow in self._nba_shadow_stmts(stmt):
            self.emit(shadow)

    def _shadow_nbas(self, stmt: Optional[ast.Stmt]) -> Optional[ast.Stmt]:
        """Rewrite every NBA inside an inline (trap-free) statement tree.

        Inline subtrees execute within one native cycle, but the rest of
        the virtual tick may span several more (traps, back edges) — so
        their non-blocking writes must still go through shadow registers
        and latch only in the update state.
        """
        if stmt is None:
            return None
        if isinstance(stmt, ast.Assign):
            if stmt.blocking:
                return stmt
            return ast.Block(tuple(self._nba_shadow_stmts(stmt)))
        loop = isinstance(stmt, (ast.For, ast.While, ast.RepeatStmt))
        self._loop_depth += loop
        try:
            return map_stmt(stmt, self._shadow_nbas)
        finally:
            self._loop_depth -= loop

    def _update_loop_index(self) -> str:
        """The shared index register of queue-draining update loops."""
        if self._update_loop_var is None:
            self._update_loop_var = "__wu"
            self.new_decls.append(
                ast.Decl("reg", self._update_loop_var,
                         ast.Range(ast.Number(31), ast.Number(0))))
        return self._update_loop_var

    @staticmethod
    def _retarget(site: NbaSite, addr: ast.Expr) -> ast.Expr:
        """*site*'s lhs with its address replaced by *addr*."""
        target = site.lhs
        if isinstance(target, ast.Index):
            return ast.Index(target.base, addr)
        return ast.RangeSelect(target.base, addr, target.lsb, target.mode)

    def _merged_drain_stmts(self, sites: List[NbaSite]) -> List[ast.Stmt]:
        """Drain several indexed sites on one base in execution order.

        Per-site replay applies writes queue-by-queue; with two or more
        queued sites on one memory that reorders writes across sites
        (all of site A's iterations land before any of site B's, even
        when B's iteration k executed before A's iteration k+1).  The
        merge scans the write-sequence stamps ``0 .. __wseq-1`` and
        applies whichever member's next pending write carries the
        current stamp — stamps are unique, so at most one matches.
        """
        out: List[ast.Stmt] = []
        j = ast.Identifier(self._update_loop_index())
        seq = ast.Identifier(self._seq_reg())
        body: List[ast.Stmt] = []
        for site in sites:
            if site.queued:
                wc = ast.Identifier(site.wc)
                wn = ast.Identifier(site.wn)
                out.append(ast.Assign(wc, ast.Number(0, 32), blocking=True))
                cond = ast.Binary(
                    "&&",
                    ast.Binary("<", wc, wn),
                    ast.Binary(
                        "==", ast.Index(ast.Identifier(site.wq_seq), wc), j),
                )
                apply_write = ast.Block((
                    ast.Assign(
                        self._retarget(
                            site, ast.Index(ast.Identifier(site.wq_addr), wc)),
                        ast.Index(ast.Identifier(site.wq_data), wc),
                        blocking=True),
                    ast.Assign(wc, ast.Binary("+", wc, ast.Number(1, 32)),
                               blocking=True),
                ))
            else:
                we = ast.Identifier(site.we)
                cond = ast.Binary(
                    "&&", we,
                    ast.Binary("==", ast.Identifier(site.ws), j))
                apply_write = ast.Block((
                    ast.Assign(self._retarget(site, ast.Identifier(site.wa)),
                               ast.Identifier(site.wd), blocking=True),
                    ast.Assign(we, ast.Number(0, 1), blocking=True),
                ))
            body.append(ast.If(cond, apply_write, None))
        out.append(ast.For(
            ast.Assign(j, ast.Number(0, 32), blocking=True),
            ast.Binary("<", j, seq),
            ast.Assign(j, ast.Binary("+", j, ast.Number(1, 32)),
                       blocking=True),
            ast.Block(tuple(body)),
        ))
        for site in sites:
            if site.queued:
                out.append(ast.Assign(ast.Identifier(site.wn),
                                      ast.Number(0, 32), blocking=True))
        return out

    def _update_state_stmts(self) -> List[ast.Stmt]:
        """The latch logic of the dedicated update state."""
        stmts: List[ast.Stmt] = []
        # A base register written by two or more queued sites needs its
        # indexed sites drained together in stamp order; everything
        # else keeps the cheaper per-site replay.
        queued_counts: Dict[str, int] = {}
        for site in self.nba_sites:
            base = site.base_name
            if site.queued and base is not None:
                queued_counts[base] = queued_counts.get(base, 0) + 1
        merged: Dict[str, List[NbaSite]] = {}
        for site in self.nba_sites:
            base = site.base_name
            if base is None or queued_counts.get(base, 0) < 2:
                continue
            if site.queued or (site.wa is not None and site.ws is not None):
                merged.setdefault(base, []).append(site)
        emitted: set = set()
        for site in self.nba_sites:
            base = site.base_name
            if base in merged and site in merged[base]:
                # merged groups drain at their first member's position
                if base not in emitted:
                    emitted.add(base)
                    stmts.extend(self._merged_drain_stmts(merged[base]))
                continue
            if site.queued:
                # Replay the site's pending-update queue in execution
                # order, then reset the count for the next tick.
                j = ast.Identifier(self._update_loop_index())
                addr = ast.Index(ast.Identifier(site.wq_addr), j)
                data = ast.Index(ast.Identifier(site.wq_data), j)
                target = site.lhs
                if isinstance(target, ast.Index):
                    target = ast.Index(target.base, addr)
                else:  # +:/-: range select
                    target = ast.RangeSelect(target.base, addr,
                                             target.lsb, target.mode)
                wn = ast.Identifier(site.wn)
                stmts.append(ast.For(
                    ast.Assign(j, ast.Number(0, 32), blocking=True),
                    ast.Binary("<", j, wn),
                    ast.Assign(j, ast.Binary("+", j, ast.Number(1, 32)),
                               blocking=True),
                    ast.Assign(target, data, blocking=True),
                ))
                stmts.append(ast.Assign(wn, ast.Number(0, 32), blocking=True))
                continue
            target = site.lhs
            if site.wa is not None:
                if isinstance(target, ast.Index):
                    target = ast.Index(target.base, ast.Identifier(site.wa))
                elif isinstance(target, ast.RangeSelect):
                    target = ast.RangeSelect(
                        target.base, ast.Identifier(site.wa), target.lsb, target.mode
                    )
            latch = ast.Block(
                (
                    ast.Assign(target, ast.Identifier(site.wd), blocking=True),
                    ast.Assign(ast.Identifier(site.we), ast.Number(0, 1), blocking=True),
                )
            )
            stmts.append(ast.If(ast.Identifier(site.we), latch, None))
        if self._seq_var is not None:
            stmts.append(ast.Assign(ast.Identifier(self._seq_var),
                                    ast.Number(0, 32), blocking=True))
        return stmts

    # -- statement lowering -------------------------------------------------------------

    def lower(self, stmt: Optional[ast.Stmt]) -> None:
        if stmt is None or isinstance(stmt, ast.NullStmt):
            return
        if isinstance(stmt, ast.Block) or isinstance(stmt, ast.ForkJoin):
            for inner in stmt.stmts:
                self.lower(inner)
            return
        if isinstance(stmt, ast.Assign):
            if not stmt.blocking:
                self._lower_nba(stmt)
            else:
                lhs = self._hoist(stmt.lhs)
                rhs = self._hoist(stmt.rhs)
                self.emit(ast.Assign(lhs, rhs, blocking=True, pos=stmt.pos))
            return
        if isinstance(stmt, ast.SysTask):
            args = tuple(self._hoist(a) if not isinstance(a, ast.String) else a
                         for a in stmt.args)
            dest: Optional[ast.Expr] = None
            if stmt.name == "$fread" and len(args) >= 2:
                dest = args[1]
            site = TaskSite(self._next_task_id, "task", stmt.name, args, dest, stmt.pos)
            self._next_task_id += 1
            self._trap(site)
            return
        if isinstance(stmt, ast.If):
            self._lower_if(stmt)
            return
        if isinstance(stmt, ast.Case):
            self._lower_case(stmt)
            return
        if isinstance(stmt, ast.For):
            self._lower_for(stmt)
            return
        if isinstance(stmt, ast.While):
            self._lower_while(stmt)
            return
        if isinstance(stmt, ast.RepeatStmt):
            self._lower_repeat(stmt)
            return
        if isinstance(stmt, ast.DelayStmt):
            self.lower(stmt.stmt)
            return
        raise TransformError(f"cannot lower statement {type(stmt).__name__}")

    def _lower_if(self, stmt: ast.If) -> None:
        if not self._stmt_has_trap(stmt):
            self.emit(self._shadow_nbas(stmt))
            return
        cond = self._hoist(stmt.cond)
        branch_state = self.current
        then_state = self.new_state()
        else_state = self.new_state() if stmt.else_stmt is not None else None
        phi = self.new_state()
        branch_state.terminator = (
            "branch", cond, then_state.id,
            else_state.id if else_state is not None else phi.id,
        )
        self._current = then_state
        self.lower(stmt.then_stmt)
        self._goto(phi)
        if else_state is not None:
            self._current = else_state
            self.lower(stmt.else_stmt)
            self._goto(phi)
        self._current = phi

    def _lower_case(self, stmt: ast.Case) -> None:
        if not self._stmt_has_trap(stmt):
            self.emit(self._shadow_nbas(stmt))
            return
        subject = self._hoist(stmt.expr)
        # Desugar to an if/else chain so don't-care labels keep working.
        chain: Optional[ast.Stmt] = None
        default_stmt: Optional[ast.Stmt] = None
        arms: List[Tuple[ast.Expr, Optional[ast.Stmt]]] = []
        for item in stmt.items:
            if not item.labels:
                default_stmt = item.stmt
                continue
            cond: Optional[ast.Expr] = None
            for label in item.labels:
                if (stmt.kind in ("casez", "casex") and isinstance(label, ast.Number)
                        and label.xz_mask):
                    care = ~label.xz_mask
                    test: ast.Expr = ast.Binary(
                        "==",
                        ast.Binary("&", subject, ast.Number(care & ((1 << (label.width or 32)) - 1))),
                        ast.Number(label.value & care & ((1 << (label.width or 32)) - 1)),
                    )
                else:
                    test = ast.Binary("==", subject, label)
                cond = test if cond is None else ast.Binary("||", cond, test)
            assert cond is not None
            arms.append((cond, item.stmt))
        chain = default_stmt
        for cond, body in reversed(arms):
            chain = ast.If(cond, body, chain)
        self.lower(chain)

    def _lower_for(self, stmt: ast.For) -> None:
        if not self._stmt_has_trap(stmt):
            self.emit(self._shadow_nbas(stmt))
            return
        self.lower(stmt.init)
        head = self.new_state()
        self._goto(head)
        self._current = head
        cond = self._hoist(stmt.cond)
        cond_state = self.current  # hoisting may have advanced the state
        body_state = self.new_state()
        exit_state = self.new_state()
        cond_state.terminator = ("branch", cond, body_state.id, exit_state.id)
        self._current = body_state
        self._loop_depth += 1
        try:
            self.lower(stmt.body)
            self.lower(stmt.step)
        finally:
            self._loop_depth -= 1
        self._goto(head)
        self._current = exit_state

    def _lower_while(self, stmt: ast.While) -> None:
        if not self._stmt_has_trap(stmt):
            self.emit(self._shadow_nbas(stmt))
            return
        head = self.new_state()
        self._goto(head)
        self._current = head
        cond = self._hoist(stmt.cond)
        cond_state = self.current
        body_state = self.new_state()
        exit_state = self.new_state()
        cond_state.terminator = ("branch", cond, body_state.id, exit_state.id)
        self._current = body_state
        self._loop_depth += 1
        try:
            self.lower(stmt.body)
        finally:
            self._loop_depth -= 1
        self._goto(head)
        self._current = exit_state

    def _lower_repeat(self, stmt: ast.RepeatStmt) -> None:
        if not self._stmt_has_trap(stmt):
            self.emit(self._shadow_nbas(stmt))
            return
        counter = f"__rep{self._next_rep}"
        self._next_rep += 1
        self.new_decls.append(
            ast.Decl("reg", counter, ast.Range(ast.Number(31), ast.Number(0)))
        )
        count = self._hoist(stmt.count)
        self.emit(ast.Assign(ast.Identifier(counter), count, blocking=True))
        head = self.new_state()
        self._goto(head)
        self._current = head
        body_state = self.new_state()
        exit_state = self.new_state()
        head.terminator = (
            "branch",
            ast.Binary("!=", ast.Identifier(counter), ast.Number(0)),
            body_state.id,
            exit_state.id,
        )
        self._current = body_state
        self._loop_depth += 1
        try:
            self.lower(stmt.body)
        finally:
            self._loop_depth -= 1
        self.emit(
            ast.Assign(
                ast.Identifier(counter),
                ast.Binary("-", ast.Identifier(counter), ast.Number(1)),
                blocking=True,
            )
        )
        self._goto(head)
        self._current = exit_state


def _state_assign(value: int) -> ast.Stmt:
    return ast.Assign(ast.Identifier(STATE_VAR), ast.Number(value, 32), blocking=True)


def _task_assign(value: int) -> ast.Stmt:
    return ast.Assign(ast.Identifier(TASK_VAR), ast.Number(value, 32), blocking=True)


RUN_VAR = "__run"


def _emit_state(state: _State) -> ast.Stmt:
    """Render one state as its Figure-5 ``if ((__state == k) && __run)``.

    ``__run`` is a blocking-assigned variable initialised from the
    ``__cont`` wire at the top of each native cycle and cleared when a
    state traps.  Clearing it stops the fall-through chain *within* the
    cycle — ``__cont`` itself cannot, because as a wire it is computed
    from the registers' pre-edge values.
    """
    body: List[ast.Stmt] = [_task_assign(TASK_NONE)]
    body.extend(state.stmts)
    term = state.terminator
    if term[0] == "goto":
        body.append(_state_assign(term[1]))
    elif term[0] == "goto_yield":
        # Take the transition but stop falling through: the successor
        # runs in its own native cycle.  Used for the update state so the
        # toggle/evaluate/latch phases occupy separate hardware cycles —
        # the source of the paper's minimum 3x overhead (§6.4).
        body.append(_state_assign(term[1]))
        body.append(ast.Assign(ast.Identifier(RUN_VAR), ast.Number(0, 1), blocking=True))
    elif term[0] == "task":
        body.append(_task_assign(term[1]))
        body.append(_state_assign(term[2]))
        body.append(ast.Assign(ast.Identifier(RUN_VAR), ast.Number(0, 1), blocking=True))
    elif term[0] == "branch":
        _, cond, then_id, else_id = term
        body.append(ast.If(cond, _state_assign(then_id), _state_assign(else_id)))
    elif term[0] == "stop":
        pass
    guard = ast.Binary(
        "&",
        ast.Binary("==", ast.Identifier(STATE_VAR), ast.Number(state.id, 32)),
        ast.Identifier(RUN_VAR),
    )
    return ast.If(guard, ast.Block(tuple(body)), None)


def latched_guard(guard_wire: str) -> str:
    """Name of the entry-latched copy of an edge-detection wire."""
    return "__lg" + guard_wire[1:]  # __pos_x -> _lg... keep unique prefix


def machinify(module: ast.Module, env: Optional[WidthEnv] = None) -> TransformResult:
    """Apply the full §3 transformation chain to a flattened module."""
    env = env if env is not None else WidthEnv(module)
    core = build_core(module)

    builder = _Machinifier(module, env)
    entry = builder.new_state()
    builder._current = entry

    # The core body: each conjunct guarded by its *latched* edge wires.
    for conjunct in core.conjuncts:
        cond: Optional[ast.Expr] = None
        for guard in conjunct.guards:
            ref: ast.Expr = ast.Identifier(latched_guard(guard))
            cond = ref if cond is None else ast.Binary("|", cond, ref)
        assert cond is not None
        builder._lower_if(ast.If(cond, conjunct.body, None))

    # Dedicated update state latches NBA shadows, then go idle.  The
    # transition into it yields the native cycle so evaluation and
    # latching happen in separate hardware cycles (§6.4's 3x floor).
    update_state = builder.new_state()
    builder.current.terminator = ("goto_yield", update_state.id)
    builder._current = update_state
    final_state = builder.new_state()
    update_state.stmts.extend(builder._update_state_stmts())
    update_state.terminator = ("goto", final_state.id)
    final_state.terminator = ("stop",)

    # ---- assemble the output module ----
    items: List[ast.Item] = []
    ports, port_decls = abi_ports()
    items.extend(port_decls)

    soft_inits: List[Tuple[str, ast.Expr]] = []
    original_ports = list(module.ports)
    for item in module.items:
        if isinstance(item, ast.Always):
            if item.sensitivity == ast.STAR:
                items.append(item)  # combinational blocks pass through
            continue
        if isinstance(item, ast.Initial):
            continue  # executed in software before hardware handoff
        if isinstance(item, ast.Decl):
            init = item.init
            if init is not None and _has_syscall(init):
                soft_inits.append((item.name, init))
                init = None
            items.append(
                ast.Decl(item.kind, item.name, item.range, item.unpacked, init,
                         item.direction, item.signed, item.attributes, item.pos)
            )
            continue
        if isinstance(item, ast.ContinuousAssign):
            if _has_syscall(item.rhs):
                raise TransformError(
                    "unsynthesizable call in continuous assignment; "
                    "move it into a procedural block"
                )
            items.append(item)
            continue
        if isinstance(item, ast.Instance):
            raise TransformError("machinify requires a flattened module")
        items.append(item)

    # Edge detection machinery (Figure 4).
    guard_signals = sorted({signal for _, signal in core.edge_signals})
    items.extend(prev_value_items(guard_signals))
    guard_wires: List[str] = []
    for edge, signal in core.edge_signals:
        detector = EdgeDetector(signal, edge)
        items.extend(detector.decls())
        guard_wires.append(detector.wire)
        items.append(ast.Decl("reg", latched_guard(detector.wire)))

    items.extend(bookkeeping_decls(final_state.id))
    items.append(ast.Decl("reg", RUN_VAR))
    items.extend(builder.new_decls)

    # The single always core (Figure 5).
    entry_cond: Optional[ast.Expr] = None
    for wire in guard_wires:
        ref: ast.Expr = ast.Identifier(wire)
        entry_cond = ref if entry_cond is None else ast.Binary("|", entry_cond, ref)
    core_stmts: List[ast.Stmt] = [
        # May we advance this cycle?  (Runtime grant, or free-running.)
        ast.Assign(ast.Identifier(RUN_VAR), ast.Identifier("__cont"), blocking=True)
    ]
    if entry_cond is not None:
        latch_stmts: List[ast.Stmt] = [
            ast.Assign(ast.Identifier(latched_guard(w)), ast.Identifier(w), blocking=True)
            for w in guard_wires
        ]
        latch_stmts.append(_state_assign(entry.id))
        latch_stmts.append(
            ast.Assign(ast.Identifier(RUN_VAR), ast.Number(1, 1), blocking=True)
        )
        idle = ast.Binary(
            "&",
            ast.Binary("==", ast.Identifier(STATE_VAR), ast.Number(final_state.id, 32)),
            ast.Unary("!", ast.Identifier("__tasks")),
        )
        core_stmts.append(
            ast.If(ast.Binary("&", idle, entry_cond), ast.Block(tuple(latch_stmts)), None)
        )
    for state in builder.states:
        if state.id == final_state.id:
            continue  # idle state needs no logic
        core_stmts.append(_emit_state(state))
    items.append(
        ast.Always(
            (ast.EventExpr("posedge", ast.Identifier(NATIVE_CLOCK)),),
            ast.Block(tuple(core_stmts)),
        )
    )
    items.extend(status_decls(final_state.id))

    out = ast.Module(
        module.name + SUFFIX,
        tuple(ports + original_ports),
        tuple(items),
        module.pos,
    )
    return TransformResult(
        original=module,
        module=out,
        tasks=builder.tasks,
        nba_sites=builder.nba_sites,
        n_states=len(builder.states),
        final_state=final_state.id,
        update_state=update_state.id,
        guard_wires=guard_wires,
        soft_inits=soft_inits,
        query_regs=builder.query_regs,
    )


def _has_syscall(expr: ast.Expr) -> bool:
    from ..verilog.ast_nodes import walk_expr

    return any(
        isinstance(node, ast.SysCall) and node.name not in _SYNTH_FUNCS
        for node in walk_expr(expr)
    )
