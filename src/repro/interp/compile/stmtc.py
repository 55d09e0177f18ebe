"""Statement/process compiler: AST processes → Python function source.

Each continuous assign, always block and initial block becomes one
generated function.  Blocking assignments write slots inline (with the
dirty-bitset marking fused in); non-blocking assignments evaluate any
dynamic LHS index *at the assignment site* (LRM §9.2.2 — only the
update is deferred) and enqueue a pre-compiled *writer* closure that
applies the store in the update region.

An always/initial body caches its slots in Python locals: each is
loaded once at entry and flushed once at exit, so a 64-round SHA loop
touches ``LOAD_FAST`` instead of list subscripts.  A statement the
compiler cannot lower (a system task, a ``$random``, an impure case
subject) becomes an **escape**: the locals the body writes are written
back, ``EVC.exec(<node>)`` runs it on the engine's reference semantics
(:class:`~repro.interp.simulator.Reference`, bound as ``EVC``) over the
live slot store, and a ``finally`` reloads the locals the statement may
write — the rest of the body stays lowered.  ``escapes`` records why,
per process.

Dirty-bitset equivalence of the cache: the interpreter marks a watched
slot at its first value-changing write, and the mark order (the drain
order, hence process activation order) follows statement execution
order.  A cached write preserves this exactly by comparing against the
store entry — ``if not df[s] and d[s] != L: mark`` — which holds the
value the slot had at its last write-back (entry, or an escape), while
deferring only the value store to the flush epilogue, which runs
before the scheduler's next drain.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from ...verilog import ast_nodes as ast
from ...verilog.rewrite import lvalue_indices
from ...opt.ir import stmt_writes
from ...opt.ranges import counted_loop
from ...verilog.width import WidthError, const_eval, const_value
from ..simulator import _MAX_LOOP_ITERATIONS
from .exprc import (
    LOWERED_SYSFUNCS, CompileFallback, ExprCompiler, const_range_bounds,
    dynamic_low_src, expr_is_pure,
)

#: placeholder line an escape writes back the body's cached writes at;
#: the written set is only known once the whole body is emitted (a loop
#: carries later writes back to its top)
_SPILL = "\0spill"


class StmtCompiler:
    """The carrier-neutral half of statement lowering: emission
    plumbing, the assignment prelude, the lvalue walk of
    ``Evaluator.assign``, an NBA writer's body and case-label decode.

    A carrier supplies its idioms, as ``VectorExprCompiler`` does for
    :class:`ExprCompiler`: ``_commit`` a slot, ``_store_word`` a memory
    word, ``_field_low`` (guard a dynamic field), ``_define_writer`` and
    ``_queue`` an NBA; *lanes* is the lane carrier's mask (``None`` on
    the scalar one).  Control flow stays with each carrier.
    """

    #: a writer's value parameter, and the format of its frozen indices
    _WRITER_VALUE, _WRITER_INDEX = "v", "x{}"

    def __init__(self, compiler: ExprCompiler):
        self.ec, self.env = compiler, compiler.env
        self.lines: List[str] = []
        self._tmp = 0
        #: id(index expr) → writer parameter, while a writer body is
        #: emitted: the site evaluated these indices
        self._frozen: Dict[int, str] = {}

    def _gensym(self, stem: str) -> str:
        self._tmp += 1
        return f"_{stem}{self._tmp}"

    def _emit(self, ind: int, text: str) -> None:
        self.lines.append("    " * ind + text)

    def _bound(self, src: str, ind: int, stem: str = "v") -> str:
        """*src* evaluated now, once, into a fresh local."""
        name = self._gensym(stem)
        self._emit(ind, f"{name} = {src}")
        return name

    def _named(self, value: str, ind: int) -> str:
        """*value* as a name that can be read twice."""
        return value if value.isidentifier() else self._bound(value, ind)

    def _index_src(self, expr: ast.Expr) -> str:
        """Source for an LHS index: the frozen argument inside a writer
        body, a fresh compilation elsewhere."""
        return self._frozen.get(id(expr)) or self.ec.compile(expr)

    def _compile_rhs(self, stmt: ast.Assign, width: int, ind: int) -> str:
        return self.ec.compile(stmt.rhs, width)

    def _assign(self, stmt: ast.Assign, lanes, ind: int) -> None:
        """A blocking store, or an NBA: the value and every index that
        is not constant are evaluated here, and only the store waits for
        the update region (LRM §9.2.2)."""
        width = self.env.width_of(stmt.lhs)
        value_width = max(self.env.width_of(stmt.rhs), width)
        value = self._compile_rhs(stmt, width, ind)
        if stmt.blocking:
            self._store(stmt.lhs, value, value_width, lanes, ind)
            return
        dyn = [e for e in lvalue_indices(stmt.lhs) if const_value(e) is None]
        self._queue(stmt.lhs, value, value_width, dyn, lanes, ind)

    def _writer(self, lhs: ast.Expr, value_width: int,
                dyn: List[ast.Expr]) -> str:
        """The writer of an NBA to *lhs*: the store of its value
        parameter, each index of *dyn* frozen as one more parameter."""
        params = [self._WRITER_INDEX.format(k) for k in range(len(dyn))]
        self._frozen = {id(expr): param for expr, param in zip(dyn, params)}
        try:
            return self._define_writer(params, lambda lanes: self._store(
                lhs, self._WRITER_VALUE, value_width, lanes, 1))
        finally:
            self._frozen = {}

    def _store(self, lhs: ast.Expr, value: str, width: int, lanes,
               ind: int) -> None:
        """``Evaluator.assign(lhs, value)``: *value* is source for the
        RHS at *width* bits, evaluated before any index of *lhs*."""
        if isinstance(lhs, ast.Identifier):
            sig = self.env.signal(lhs.name)
            if sig.is_memory:
                raise CompileFallback("whole-memory assignment")
            self._commit(sig, value, width <= sig.width, lanes, ind)
            return
        if isinstance(lhs, ast.Concat):
            # a later part sees what an earlier part wrote, not the value
            value, shift = self._named(value, ind), self.env.width_of(lhs)
            if self.ec.word is not None and shift > self.ec.word:
                raise CompileFallback(f"concat lvalue width {shift} > {self.ec.word}")
            for part in lhs.parts:
                part_width = self.env.width_of(part)
                shift -= part_width
                self._store(part, f"(({value} >> {shift}) & "
                                  f"{self.ec.lit_ref((1 << part_width) - 1)})",
                            part_width, lanes, ind)
            return
        if not isinstance(lhs, (ast.Index, ast.RangeSelect)):
            raise CompileFallback(f"invalid lvalue {type(lhs).__name__}")
        if not isinstance(lhs.base, ast.Identifier):
            raise CompileFallback("nested lvalue selects")
        sig = self.env.signal(lhs.base.name)
        if isinstance(lhs, ast.Index) and sig.is_memory:
            self._store_word(sig, lhs.index, value, width, lanes, ind)
            return
        # One field of the word, at a low offset known now or per start:
        # nothing lands outside the word.
        start, span = None, 0
        if isinstance(lhs, ast.Index):
            start, sel_width = lhs.index, 1
        elif lhs.mode == ":":
            low, sel_width = const_range_bounds(lhs, self.env)
        else:
            start, sel_width = lhs.msb, const_eval(lhs.lsb)
            span = sel_width - 1 if lhs.mode == "-:" else 0
        if start is not None:
            at = const_value(start)
            low = None if at is None else sig.bit_offset(at - span)
        if self.ec.word is not None and sel_width > self.ec.word:
            raise CompileFallback(f"range width {sel_width} > {self.ec.word}")
        ones, sig_mask = (1 << sel_width) - 1, (1 << sig.width) - 1
        old = self.ec.slot_src(self.ec.slot_of[sig.name])
        if low is None:
            low, lanes, ind = self._field_low(sig, self._index_src(start), span,
                                              lanes, ind)
            field = self._bound(f"({self.ec.lit_ref(ones)} << {low}) & "
                                f"{self.ec.lit_ref(sig_mask)}", ind, "f")
            self._commit(sig, f"({old} & ~{field}) | ((({value}) << {low}) & "
                              f"{field})", True, lanes, ind)
        elif 0 <= low < sig.width:
            field = (ones << low) & sig_mask
            self._commit(sig, f"({old} & {self.ec.lit_ref(~field & sig_mask)}) | "
                              f"((({value}) << {low}) & {self.ec.lit_ref(field)})",
                         True, lanes, ind)

    def _labels(self, stmt: ast.Case, width: int, item: ast.CaseItem):
        """*item*'s labels as ``(value, source, care)``, each compiled when
        reached, at the subject's *width* or its own; *value*: the
        label's ``const_value``; *care*: the bits compared (casez/casex
        skip a literal's x/z), ``None`` for all."""
        for label in item.labels:
            label_width = max(width, self.env.width_of(label))
            dontcare = (label.xz_mask if stmt.kind in ("casez", "casex")
                        and isinstance(label, ast.Number) else 0)
            yield (const_value(label, label_width),
                   self.ec.compile_at(label, label_width),
                   ~dontcare & ((1 << label_width) - 1) if dontcare else None)

    @staticmethod
    def _default(stmt: ast.Case) -> Optional[ast.CaseItem]:
        return next((item for item in stmt.items if not item.labels), None)

    def _match(self, subject: str, src: str, care: Optional[int]) -> str:
        if care is None:
            return f"{subject} == ({src})"
        care = self.ec.lit_ref(care)
        return f"({subject} & {care}) == (({src}) & {care})"


class ProcessCompiler(StmtCompiler):
    """Emits function source for one module's processes."""

    _WRITER_VALUE, _WRITER_INDEX = "_v", "_x{}"

    def __init__(self, compiler: ExprCompiler, watched_slots: Set[int]):
        super().__init__(compiler)
        #: Slots whose changes must be announced to the scheduler.
        self.watched = watched_slots
        self.writer_defs: List[str] = []
        self._writers = 0
        #: slot → local name while a procedural body is emitted
        self._cache: Optional[Dict[int, str]] = None
        self._cache_order: List[int] = []
        self._cache_written: Set[int] = set()
        #: True while a coalesced run's members emit (their counters
        #: were already merged into one bump)
        self._suppress_count = False
        #: [body indent, stmts] of the innermost abort-free counted
        #: loop: bumps at that indent collect here, charged ``trips x k``
        self._loop: Optional[List[int]] = None
        #: process name -> why each of its escapes was not lowered
        #: (empty: the body is fully lowered)
        self.escapes: Dict[str, List[str]] = {}
        self._why: List[str] = []

    # -- the slot cache -----------------------------------------------------

    def _cached_slot(self, slot: int) -> str:
        """ExprCompiler read hook while a procedural body is emitted."""
        name = self._cache.get(slot)
        if name is None:
            name = f"L{slot}"
            self._cache[slot] = name
            self._cache_order.append(slot)
        return name

    def _frame(self, name: str, body: List[str], order: Sequence[int],
               flush: List[str]) -> List[str]:
        """One process function: cached slots load ahead of the body
        and flush, with the statement count, in a ``finally`` — a
        mid-body abort (``$finish``, an iteration guard) still publishes
        every write and every statement counted up to it; a slot the
        body never reached flushes its entry value, a no-op."""
        return ([f"def {name}():", "    _st = 0"]
                + [f"    L{slot} = d[{slot}]" for slot in order]
                + ["    try:"] + (body or ["        pass"]) + ["    finally:"]
                + [f"        {store}" for store in flush]
                + ["        S.stmts_executed += _st", ""])

    # -- stores (the scalar idioms of StmtCompiler) ---------------------------

    def _mark(self, slot: int, ind: int) -> None:
        self._emit(ind, f"if not df[{slot}]:")
        self._emit(ind + 1, f"df[{slot}] = 1; dla({slot})")

    def _compile_rhs(self, stmt: ast.Assign, width: int, ind: int) -> str:
        """Counts the statement, hoists repeated pure subexpressions into
        prelude locals and binds the value to a temp — unless a blocking
        store to an unwatched scalar takes it straight (``_commit``)."""
        self._count(ind, 1)
        self.ec.begin_hoist([stmt.rhs], lambda text: self._emit(ind, text))
        try:
            rhs = self.ec.compile(stmt.rhs, width)
        finally:
            self.ec.end_hoist()
        slot = (self.ec.slot_of.get(stmt.lhs.name) if stmt.blocking
                and isinstance(stmt.lhs, ast.Identifier) else None)
        straight = slot is not None and slot not in self.watched
        return rhs if straight else self._bound(rhs, ind)

    def _commit(self, sig, value: str, fits: bool, lanes, ind: int) -> None:
        """Masked compare-write of *value* into *sig*'s slot."""
        slot, sig_mask = self.ec.slot_of[sig.name], self.ec.lit_ref((1 << sig.width) - 1)
        if self._cache is not None:
            local = self._cached_slot(slot)
            self._cache_written.add(slot)
            if slot not in self.watched:
                # no temp, no compare, no mark: the flush publishes
                self._emit(ind, f"{local} = {value}" if fits
                           else f"{local} = ({value}) & {sig_mask}")
                return
            value = self._named(value, ind)
            if not fits:
                self._emit(ind, f"{value} &= {sig_mask}")
            # First *changing* write marks, compared against the store
            # entry the flush has not overwritten yet — the interpreter's
            # mark point and order, exactly.
            self._emit(ind, f"if not df[{slot}] and d[{slot}] != {value}:")
            self._emit(ind + 1, f"df[{slot}] = 1; dla({slot})")
            self._emit(ind, f"{local} = {value}")
        elif slot in self.watched:
            value = self._named(value, ind)
            if not fits:
                self._emit(ind, f"{value} &= {sig_mask}")
            self._emit(ind, f"if d[{slot}] != {value}:")
            self._emit(ind + 1, f"d[{slot}] = {value}")
            self._mark(slot, ind + 1)
        else:
            self._emit(ind, f"d[{slot}] = {value}" if fits
                       else f"d[{slot}] = ({value} & {sig_mask})")

    def _store_word(self, sig, index: ast.Expr, value: str, width: int,
                    lanes, ind: int) -> None:
        mem, mslot = self.ec.mem_ref(sig.name), self.ec.mem_slot_of[sig.name]
        depth, cidx = sig.depth or 0, const_value(index)
        if cidx is not None:
            # Constant address: resolve the bounds check now.
            if not 0 <= cidx - sig.base < depth:
                return  # out-of-range writes are dropped
            idx = str(cidx - sig.base)
        else:
            proved = self.ec.fits(index, sig.base, sig.base + depth - 1, "guards")
            idx = f"({self._index_src(index)})" + (f" - {sig.base}" if sig.base else "")
            if not proved or mslot in self.watched:
                idx = self._bound(idx, ind, "a")
            if not proved:
                self._emit(ind, f"if 0 <= {idx} < {depth}:")
                ind += 1
        word = value
        if width > sig.width:
            word = self._bound(f"{value} & {self.ec.lit_ref((1 << sig.width) - 1)}",
                               ind, "w")
        watched = mslot in self.watched
        if watched:
            self._emit(ind, f"if {mem}[{idx}] != {word}:")
        self._emit(ind + watched, f"{mem}[{idx}] = {word}")
        if watched:
            self._mark(mslot, ind + 1)

    def _field_low(self, sig, start: str, span: int, lanes, ind: int):
        """The field's low offset, and the indent of the store it guards."""
        low = self._bound(dynamic_low_src(start, span, sig), ind, "o")
        self._emit(ind, f"if 0 <= {low} < {sig.width}:")
        return low, lanes, ind + 1

    def _queue(self, lhs: ast.Expr, value: str, value_width: int,
               dyn: List[ast.Expr], lanes, ind: int) -> None:
        writer = self._writer(lhs, value_width, dyn)
        args = [value] + [self._bound(self.ec.compile(e), ind, "x") for e in dyn]
        self._emit(ind, f"nbap(({writer}, {', '.join(args)}))")

    def _define_writer(self, params: List[str], store) -> str:
        """``nw<k>(e)``: the site queues ``e = (nw<k>, value, *indices)``,
        and the update region calls every entry as ``e[0](e)``.  Writers
        run in the latch region — after the cached body has flushed — so
        they compile against the store directly."""
        name = f"nw{self._writers}"
        self._writers += 1
        saved, cache, self.lines, self._cache = self.lines, self._cache, [], None
        self.ec.slot_src, self.ec.strict = self.ec._direct_slot, False
        try:
            store(None)
            body = self.lines
        finally:
            self.lines, self._cache = saved, cache
            self.ec.slot_src, self.ec.strict = self._cached_slot, True
        fields = ", ".join(["_", self._WRITER_VALUE] + params)
        self.writer_defs += [f"def {name}(e):", f"    {fields} = e", *body, ""]
        return name

    # -- statements ---------------------------------------------------------

    def emit_stmt(self, stmt: Optional[ast.Stmt], ind: int) -> None:
        if stmt is None:
            self._emit(ind, "pass")
            return
        mark, escapes = len(self.lines), len(self._why)
        booked = dict(self.ec.facts)
        try:
            self._emit_stmt(stmt, ind)
        except (CompileFallback, WidthError) as why:
            # Roll back the partial emission (a half-written assign would
            # double-evaluate side effects) and escape the whole node.
            del self.lines[mark:]
            del self._why[escapes:]
            self.ec.facts.update(booked)
            self._escape(stmt, ind, str(why))

    def _spill(self, ind: int, why: str) -> None:
        """Book an escape and write the body's cached writes back ahead
        of it."""
        self._why.append(why)
        self._emit(ind, _SPILL)

    def _escape(self, stmt: ast.Stmt, ind: int, why: str) -> None:
        """Run *stmt* on the engine's reference semantics
        (``EVC.exec``): write back what the body has cached, and reload
        what *stmt* may write — in a ``finally``, so a ``$finish`` still
        leaves the flush true."""
        self._spill(ind, why)
        reload = sorted(self.ec.slot_of[name] for name in stmt_writes(stmt)
                        if name in self.ec.slot_of)
        run = f"EVC.exec({self.ec.const_ref(stmt)})"
        if reload:
            self._emit(ind, "try:")
            self._emit(ind + 1, run)
            self._emit(ind, "finally:")
            run = "; ".join(f"{self._cached_slot(slot)} = d[{slot}]"
                            for slot in reload)
        self._emit(ind + bool(reload), run)

    def _cond(self, expr: ast.Expr, ind: int) -> str:
        """A branch condition: lowered, or else evaluated by the
        reference evaluator on the written-back store (it reads only)."""
        booked = dict(self.ec.facts)
        try:
            return self.ec.compile_cond(expr)
        except (CompileFallback, WidthError) as why:
            self.ec.facts.update(booked)
            self._spill(ind, str(why))
            return f"EV({self.ec.const_ref(expr)}, {self.env.width_of(expr)})"

    def _count(self, ind: int, stmts: int) -> None:
        if self._suppress_count or not stmts:
            return
        if self._loop and ind == self._loop[0]:
            self._loop[1] += stmts
        else:
            self._emit(ind, f"_st += {stmts}")

    def _emit_stmt(self, stmt: ast.Stmt, ind: int) -> None:
        if isinstance(stmt, ast.Assign):
            self._assign(stmt, None, ind)
            return
        if isinstance(stmt, (ast.Block, ast.ForkJoin)):
            self._count(ind, 1)
            self._emit_block_coalesced(stmt.stmts, ind)
            return
        if isinstance(stmt, ast.If):
            self._count(ind, 1)
            self._emit(ind, f"if {self._cond(stmt.cond, ind)}:")
            self.emit_stmt(stmt.then_stmt, ind + 1)
            if stmt.else_stmt is not None:
                self._emit(ind, "else:")
                self.emit_stmt(stmt.else_stmt, ind + 1)
            return
        if isinstance(stmt, ast.Case):
            self._emit_case(stmt, ind)
            return
        if isinstance(stmt, (ast.For, ast.While)):
            kind = "for" if isinstance(stmt, ast.For) else "while"
            if kind == "for":
                self.ec.facts["loops"] += 1
                trips = self._counted(stmt)
                if trips is not None:
                    self._emit_counted(stmt, trips, ind)
                    return
            self._count(ind, 1)
            if kind == "for":
                self.emit_stmt(stmt.init, ind)
            guard = self._gensym("it")
            self._emit(ind, f"{guard} = 0")
            self._emit(ind, f"while {self.ec.compile_cond(stmt.cond)}:")
            self.emit_stmt(stmt.body, ind + 1)
            if kind == "for":
                self.emit_stmt(stmt.step, ind + 1)
            self._emit(ind + 1, f"{guard} += 1")
            self._emit(ind + 1, f"if {guard} > {_MAX_LOOP_ITERATIONS}:")
            self._emit(ind + 2, "raise SimulationError("
                                f"'{kind}-loop iteration limit exceeded')")
            return
        if isinstance(stmt, ast.RepeatStmt):
            self._count(ind, 1)
            count = self.ec.compile(stmt.count)
            loop = self._gensym("it")
            self._emit(ind, f"for {loop} in range(min({count},"
                            f" {_MAX_LOOP_ITERATIONS})):")
            self.emit_stmt(stmt.body, ind + 1)
            return
        if isinstance(stmt, ast.NullStmt):
            self._count(ind, 1)
            return
        if isinstance(stmt, ast.DelayStmt):
            self._count(ind, 1)
            self.emit_stmt(stmt.stmt, ind)
            return
        # System tasks (and anything else) escape to the reference
        # interpreter against the slot store: identical output, cold path.
        raise CompileFallback(
            f"system task {stmt.name}" if isinstance(stmt, ast.SysTask)
            else type(stmt).__name__)

    def _counted(self, stmt: ast.For) -> Optional[range]:
        """The loop variable's values, when the range facts are licensed
        and the body may count through them (unwatched: no mark to
        place), else ``None``."""
        trips = (None if self.ec.bound is None else
                 counted_loop(stmt, self.env, _MAX_LOOP_ITERATIONS))
        watched = (trips is not None and
                   self.ec.slot_of[stmt.init.lhs.name] in self.watched)
        return None if watched else trips

    def _may_abort(self, stmt: Optional[ast.Stmt]) -> bool:
        """Can *stmt* stop part-way?  An iteration guard raises, and an
        escape may ``$finish`` or raise: a system task or function is
        what escapes (should anything else, ``_emit_counted`` escapes
        the whole loop)."""
        return stmt is not None and any(
            isinstance(node, (ast.While, ast.SysTask))
            or (isinstance(node, ast.For) and self._counted(node) is None)
            or any(isinstance(sub, ast.SysCall)
                   and sub.name not in LOWERED_SYSFUNCS
                   for expr in ast.stmt_exprs(node)
                   for sub in ast.walk_expr(expr))
            for node in ast.walk_stmt(stmt))

    def _emit_counted(self, stmt: ast.For, trips: range, ind: int) -> None:
        """``for L in range(...)`` + the exit value; the statement count
        equals the ``while`` form's (the loop and its init, then body and
        step an iteration) wherever an abort could observe it."""
        self.ec.facts["counted"] += 1
        name = stmt.init.lhs.name
        slot = self.ec.slot_of[name]
        local = self._cached_slot(slot)
        self._cache_written.add(slot)
        outer_lines, self.lines = self.lines, []
        outer, self._loop = self._loop, [
            -1 if self._may_abort(stmt.body) else ind + 1, 0]
        self.ec.bound[name] = trips
        escapes = len(self._why)
        try:
            self.emit_stmt(stmt.body, ind + 1)
            self._count(ind + 1, 1)
        finally:
            del self.ec.bound[name]
            body, self.lines = self.lines, outer_lines
            (collect, per_st), self._loop = self._loop, outer
        if collect != -1 and len(self._why) > escapes:
            # a charge for every trip would be early if the escape aborts
            raise CompileFallback(self._why[escapes])
        self._count(ind, 2 + len(trips) * per_st)
        self._emit(ind, f"for {local} in range({trips.start}, {trips.stop},"
                        f" {trips.step}):")
        self.lines.extend(body or ["    " * (ind + 1) + "pass"])
        self._emit(ind, f"{local} = {trips.start + len(trips) * trips.step}")

    def _emit_block_coalesced(self, stmts, ind: int) -> None:
        """Emit a block body with straight-line counter runs merged.

        A run of lowered plain assignments executes atomically — every
        operation in it is guarded and total, so no abort can be
        observed between its members — which makes one merged ``_st``
        bump exactly equivalent to the per-statement bumps at every
        observable point.  An escaped member counts itself and splits
        the run.
        """
        run: List[ast.Stmt] = []

        def bump(lowered: List[ast.Stmt], start: int) -> None:
            tail = self.lines[start:]
            del self.lines[start:]
            self._count(ind, len(lowered))
            self.lines += tail

        def flush() -> None:
            lowered: List[ast.Stmt] = []
            start = len(self.lines)
            for member in run:
                escapes = len(self._why)
                self._suppress_count = True
                try:
                    self.emit_stmt(member, ind)
                finally:
                    self._suppress_count = False
                if len(self._why) == escapes:
                    lowered.append(member)
                    continue
                bump(lowered, start)
                lowered, start = [], len(self.lines)
            bump(lowered, start)
            del run[:]

        for inner in stmts:
            if isinstance(inner, (ast.Assign, ast.NullStmt)):
                run.append(inner)
            else:
                flush()
                self.emit_stmt(inner, ind)
        flush()

    def _emit_case(self, stmt: ast.Case, ind: int) -> None:
        # The interpreter re-evaluates the subject per label; hoisting it
        # into a temp is only safe when subject and labels are pure.
        if not expr_is_pure(stmt.expr) or any(
                not expr_is_pure(label)
                for item in stmt.items for label in item.labels):
            raise CompileFallback("impure case subject/labels")
        subject_width = self.env.width_of(stmt.expr)
        self._count(ind, 1)
        subject = self._gensym("c")
        self._emit(ind, f"{subject} = {self.ec.compile(stmt.expr, subject_width)}")
        first = True
        for item in stmt.items:
            for _, label_src, care in self._labels(stmt, subject_width, item):
                test = self._match(subject, label_src, care)
                self._emit(ind, f"{'if' if first else 'elif'} {test}:")
                first = False
                self.emit_stmt(item.stmt, ind + 1)
        default = self._default(stmt)
        if default is not None:
            if first:
                self.emit_stmt(default.stmt, ind)
            else:
                self._emit(ind, "else:")
                self.emit_stmt(default.stmt, ind + 1)

    # -- whole processes -----------------------------------------------------

    def compile_assign(self, name: str, item: ast.ContinuousAssign) -> List[str]:
        """Function source for one continuous assignment."""
        self.lines = []
        try:
            width = self.env.width_of(item.lhs)
            value = self._bound(self.ec.compile(item.rhs, width), 1)
            self._store(item.lhs, value, max(self.env.width_of(item.rhs), width),
                        None, 1)
        except (CompileFallback, WidthError):
            self.lines = [f"    EVC.run_assign({self.ec.const_ref(item)})"]
        return [f"def {name}():"] + self.lines + [""]

    def compile_procedural(self, name: str, stmt: ast.Stmt) -> List[str]:
        """Function source for an always/initial block body: slots
        cached in locals, a statement that cannot be lowered escaped
        (``escapes[name]`` says why)."""
        self.lines = []
        self._cache, self._cache_order, self._cache_written = {}, [], set()
        self._why = self.escapes[name] = []
        self.ec.slot_src, self.ec.strict = self._cached_slot, True
        try:
            self.emit_stmt(stmt, 2)
        finally:
            self.ec.slot_src, self.ec.strict = self.ec._direct_slot, False
            self._cache = None
        order = self._cache_order
        flush = [f"d[{slot}] = L{slot}" for slot in order
                 if slot in self._cache_written]
        body, self.lines = self.lines, []
        if self._why:  # an escape writes back what the exit flushes
            spill = "; ".join(flush)
            body = [line.replace(_SPILL, spill) for line in body
                    if spill or not line.endswith(_SPILL)]
        return self._frame(name, body, order, flush)
