"""Statement/process compiler: AST processes → Python function source.

Each continuous assign, always block and initial block becomes one
generated function.  Blocking assignments write slots inline (with the
dirty-bitset marking fused in); non-blocking assignments evaluate any
dynamic LHS index *at the assignment site* (LRM §9.2.2 — only the
update is deferred) and enqueue a pre-compiled *writer* closure that
applies the store in the update region.  Statements the compiler
cannot lower fall back to ``S._exec(<node>)`` — the reference
interpreter on the live slot store — so unsupported constructs keep
interpreter-identical behaviour instead of failing at elaboration.

Two emission strategies exist per process:

* **generic** — every slot access goes to the store array ``d[i]``
  directly; any statement/expression may fall back to the reference
  interpreter.  Always correct; the only strategy at ``-O0``.
* **specialized** (licensed by the mid-end's two-state analysis) —
  slot reads and writes are cached in Python locals for the duration
  of the process body and flushed once at exit, so a 64-round SHA loop
  touches ``LOAD_FAST`` instead of list subscripts.  Legal only when
  the *whole* body compiles strictly (no ``EV``/``SYS``/``S._exec``
  escape can see the store behind the cache); the compiler attempts it
  first and silently falls back to the generic strategy per process.

Dirty-bitset equivalence of the cached strategy: the generic emitter
marks a watched slot at its first value-changing write, and the mark
order (the drain order, hence process activation order) follows
statement execution order.  The cached emitter preserves this exactly
by comparing against the (unchanged) store entry at each watched
write — ``if not df[s] and d[s] != L: mark`` — while deferring only
the value store to the flush epilogue, which runs before the
scheduler's next drain.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...verilog import ast_nodes as ast
from ...opt.ranges import counted_loop
from ...verilog.width import WidthError, const_eval
from ..simulator import _MAX_LOOP_ITERATIONS
from .exprc import (
    CompileFallback, ExprCompiler, const_range_bounds, dynamic_low_src,
    expr_is_pure, expr_nodes,
)


class ProcessCompiler:
    """Emits function source for one module's processes."""

    def __init__(self, compiler: ExprCompiler, watched_slots: Set[int]):
        self.ec = compiler
        self.env = compiler.env
        #: Slots whose changes must be announced to the scheduler.
        self.watched = watched_slots
        self.lines: List[str] = []
        self.writer_defs: List[str] = []
        self._tmp = 0
        self._writers = 0
        #: id(index expr) → writer parameter name, active while a
        #: writer body is being emitted: these indices were evaluated
        #: at the assignment site and arrive as arguments.
        self._frozen: dict = {}
        #: slot → local name while the specialized emitter is active
        self._cache: Optional[Dict[int, str]] = None
        self._cache_order: List[int] = []
        self._cache_written: Set[int] = set()
        #: True while a coalesced run's members emit (their counters
        #: were already merged into one bump)
        self._suppress_count = False
        #: [body indent, stmts, ops] of the innermost abort-free counted
        #: loop: bumps at that indent collect here, charged ``trips x k``
        self._loop: Optional[List[int]] = None
        #: process name -> the strategy it got (and why not the other)
        self.strategy: Dict[str, str] = {}

    # -- small emission helpers -------------------------------------------

    def _gensym(self, stem: str) -> str:
        self._tmp += 1
        return f"_{stem}{self._tmp}"

    def _emit(self, ind: int, text: str) -> None:
        self.lines.append("    " * ind + text)

    def _fallback(self, stmt: ast.Stmt, ind: int) -> None:
        self._emit(ind, f"S._exec({self.ec.const_ref(stmt)})")

    # -- the slot cache -----------------------------------------------------

    def _cached_slot(self, slot: int) -> str:
        """ExprCompiler read hook while the specialized emitter runs."""
        assert self._cache is not None
        name = self._cache.get(slot)
        if name is None:
            name = f"L{slot}"
            self._cache[slot] = name
            self._cache_order.append(slot)
        return name

    def _begin_cache(self) -> None:
        self._cache = {}
        self._cache_order = []
        self._cache_written = set()
        self.ec.slot_src = self._cached_slot
        self.ec.strict = True

    def _end_cache(self) -> Tuple[List[int], Set[int]]:
        order, written = self._cache_order, self._cache_written
        self._cache = None
        self._cache_order = []
        self._cache_written = set()
        self.ec.slot_src = self.ec._direct_slot
        self.ec.strict = False
        return order, written

    def _frame(self, name: str, body: List[str], order: Sequence[int] = (),
               written: Set[int] = frozenset()) -> List[str]:
        """One process function: cached slots load ahead of the body
        and flush, with the counters, in a ``finally`` — a mid-body
        abort (``$finish``, an iteration guard) still publishes every
        write and every statement counted up to it; a slot the body
        never reached flushes its entry value, a no-op."""
        return ([f"def {name}():", "    _st = 0; _ops = 0"]
                + [f"    L{slot} = d[{slot}]" for slot in order]
                + ["    try:"] + (body or ["        pass"]) + ["    finally:"]
                + [f"        d[{slot}] = L{slot}"
                   for slot in order if slot in written]
                + ["        S.stmts_executed += _st",
                   "        EVC.ops_evaluated += _ops", ""])

    # -- slot write emission ------------------------------------------------

    def _mark(self, slot: int, ind: int) -> None:
        self._emit(ind, f"if not df[{slot}]:")
        self._emit(ind + 1, f"df[{slot}] = 1; dla({slot})")

    def _store_scalar(self, slot: int, value: str, width_ok: bool,
                      sig_mask: int, ind: int) -> None:
        """Masked compare-write of *value* (a temp name) into a slot."""
        if self._cache is not None:
            local = self._cached_slot(slot)
            self._cache_written.add(slot)
            if not width_ok:
                self._emit(ind, f"{value} &= {self.ec.lit_ref(sig_mask)}")
            if slot in self.watched:
                # First *changing* write marks, compared against the
                # store entry the flush has not overwritten yet — the
                # generic emitter's mark point and order, exactly.
                self._emit(ind, f"if not df[{slot}] and d[{slot}] != {value}:")
                self._emit(ind + 1, f"df[{slot}] = 1; dla({slot})")
            self._emit(ind, f"{local} = {value}")
            return
        masked = (value if width_ok
                  else f"({value} & {self.ec.lit_ref(sig_mask)})")
        if slot in self.watched:
            if not width_ok:
                self._emit(ind, f"{value} &= {self.ec.lit_ref(sig_mask)}")
            self._emit(ind, f"if d[{slot}] != {value}:")
            self._emit(ind + 1, f"d[{slot}] = {value}")
            self._mark(slot, ind + 1)
        else:
            self._emit(ind, f"d[{slot}] = {masked}")

    def _emit_store(self, lhs: ast.Expr, value: str, value_width: int,
                    ind: int) -> None:
        """Emit the equivalent of ``Evaluator.assign(lhs, value)``.

        *value* is the name of a temp already holding the RHS result
        (evaluated at *value_width* bits), so index expressions are
        evaluated after it — the interpreter's order.
        """
        if isinstance(lhs, ast.Identifier):
            sig = self.env.signal(lhs.name)
            if sig.is_memory:
                raise CompileFallback("whole-memory assignment")
            slot = self.ec.slot_of[lhs.name]
            self._store_scalar(slot, value, value_width <= sig.width,
                               (1 << sig.width) - 1, ind)
            return
        if isinstance(lhs, ast.Index):
            if not isinstance(lhs.base, ast.Identifier):
                raise CompileFallback("nested lvalue selects")
            sig = self.env.signal(lhs.base.name)
            if sig.is_memory:
                mem = self.ec.mem_ref(lhs.base.name)
                mslot = self.ec.mem_slot_of[lhs.base.name]
                depth = sig.depth or 0
                cidx = (None if self._frozen.get(id(lhs.index))
                        else self.ec.try_const(lhs.index))
                if cidx is not None:
                    # Constant address: resolve the bounds check now.
                    if not 0 <= cidx - sig.base < depth:
                        return  # out-of-range writes are dropped
                    idx = str(cidx - sig.base)
                else:
                    proved = self.ec.fits(lhs.index, sig.base,
                                          sig.base + depth - 1, "guards")
                    idx = f"({self._index_src(lhs.index)})"
                    if sig.base:
                        idx += f" - {sig.base}"
                    if not proved or mslot in self.watched:
                        addr = self._gensym("a")
                        self._emit(ind, f"{addr} = {idx}")
                        idx = addr
                    if not proved:
                        self._emit(ind, f"if 0 <= {idx} < {depth}:")
                        ind += 1
                word = value
                if value_width > sig.width:
                    word = self._gensym("w")
                    self._emit(ind, f"{word} = {value} & "
                                    f"{self.ec.lit_ref((1 << sig.width) - 1)}")
                if mslot in self.watched:
                    self._emit(ind, f"if {mem}[{idx}] != {word}:")
                    self._emit(ind + 1, f"{mem}[{idx}] = {word}")
                    self._mark(mslot, ind + 1)
                else:
                    self._emit(ind, f"{mem}[{idx}] = {word}")
                return
            slot = self.ec.slot_of[lhs.base.name]
            cidx = self.ec.try_const(lhs.index)
            offset_src: Optional[str] = None
            if cidx is not None:
                offset = sig.bit_offset(cidx)
                if not 0 <= offset < sig.width:
                    return  # out-of-range bit writes are dropped
                offset_src = str(offset)
                body_ind = ind
            else:
                off = self._gensym("o")
                idx = self._index_src(lhs.index)
                if sig.msb >= sig.lsb:
                    expr = f"({idx}) - {sig.lsb}" if sig.lsb else f"({idx})"
                else:
                    expr = f"{sig.lsb} - ({idx})"
                self._emit(ind, f"{off} = {expr}")
                self._emit(ind, f"if 0 <= {off} < {sig.width}:")
                offset_src, body_ind = off, ind + 1
            new = self._gensym("n")
            self._emit(body_ind,
                       f"{new} = ({self.ec.slot_src(slot)} & ~(1 << {offset_src}))"
                       f" | (({value} & 1) << {offset_src})")
            self._store_scalar(slot, new, True, (1 << sig.width) - 1, body_ind)
            return
        if isinstance(lhs, ast.RangeSelect):
            if not isinstance(lhs.base, ast.Identifier):
                raise CompileFallback("nested lvalue selects")
            sig = self.env.signal(lhs.base.name)
            slot = self.ec.slot_of[lhs.base.name]
            sig_mask = (1 << sig.width) - 1
            if lhs.mode == ":":
                low, sel_width = const_range_bounds(lhs, self.env)
                if low < 0:
                    return
                field = ((1 << sel_width) - 1) << low
                new = self._gensym("n")
                src = (f"({self.ec.slot_src(slot)} & "
                       f"{self.ec.lit_ref(~field & sig_mask)})"
                       f" | (({value} << {low}) & {self.ec.lit_ref(field)})")
                if field & ~sig_mask:
                    src = f"({src}) & {self.ec.lit_ref(sig_mask)}"
                self._emit(ind, f"{new} = {src}")
                self._store_scalar(slot, new, True, sig_mask, ind)
                return
            sel_width = const_eval(lhs.lsb, self.env.params)
            low_src = dynamic_low_src(lhs.mode, self._index_src(lhs.msb),
                                      sel_width, sig)
            low = self._gensym("o")
            field = self._gensym("f")
            new = self._gensym("n")
            self._emit(ind, f"{low} = {low_src}")
            self._emit(ind, f"if {low} >= 0:")
            self._emit(ind + 1,
                       f"{field} = {self.ec.lit_ref((1 << sel_width) - 1)}"
                       f" << {low}")
            self._emit(ind + 1,
                       f"{new} = (({self.ec.slot_src(slot)} & ~{field})"
                       f" | (({value} << {low}) & {field}))"
                       f" & {self.ec.lit_ref(sig_mask)}")
            self._store_scalar(slot, new, True, sig_mask, ind + 1)
            return
        if isinstance(lhs, ast.Concat):
            shift = sum(self.env.width_of(p) for p in lhs.parts)
            for part in lhs.parts:
                part_width = self.env.width_of(part)
                shift -= part_width
                piece = self._gensym("v")
                self._emit(ind, f"{piece} = ({value} >> {shift})"
                                f" & {self.ec.lit_ref((1 << part_width) - 1)}")
                self._emit_store(part, piece, part_width, ind)
            return
        raise CompileFallback(f"invalid lvalue {type(lhs).__name__}")

    # -- statements ---------------------------------------------------------

    def emit_stmt(self, stmt: Optional[ast.Stmt], ind: int) -> None:
        if stmt is None:
            self._emit(ind, "pass")
            return
        if self._cache is not None:
            # Specialized attempt: any fallback aborts the whole body
            # (the caller retries with the generic strategy).
            self._emit_stmt(stmt, ind)
            return
        mark = len(self.lines)
        try:
            self._emit_stmt(stmt, ind)
        except (CompileFallback, WidthError):
            # Roll back any partial emission (a half-written assign would
            # double-evaluate side effects) and interpret the whole node.
            del self.lines[mark:]
            self._fallback(stmt, ind)

    def _count(self, ind: int, stmts: int, ops: int) -> None:
        if self._suppress_count:
            return
        if self._loop and ind == self._loop[0]:
            self._loop[1] += stmts
            self._loop[2] += ops
            return
        bumps = ([f"_st += {stmts}"] if stmts else []) + (
            [f"_ops += {ops}"] if ops else [])
        if bumps:
            self._emit(ind, "; ".join(bumps))

    def _emit_stmt(self, stmt: ast.Stmt, ind: int) -> None:
        if isinstance(stmt, ast.Assign):
            width = self.env.width_of(stmt.lhs)
            value_width = max(self.env.width_of(stmt.rhs), width)
            self._count(ind, 1, expr_nodes(stmt.rhs))
            if self._cache is not None:
                # Specialized bodies hoist repeated pure subexpressions
                # of this statement into prelude locals.
                self.ec.begin_hoist(
                    [stmt.rhs], lambda text: self._emit(ind, text))
                try:
                    rhs = self.ec.compile(stmt.rhs, width)
                finally:
                    self.ec.end_hoist()
            else:
                rhs = self.ec.compile(stmt.rhs, width)
            if (self._cache is not None and stmt.blocking
                    and isinstance(stmt.lhs, ast.Identifier)):
                # Straight-to-local fast path for unwatched scalars:
                # no temp, no compare, no mark — the flush publishes.
                sig = self.env.signal(stmt.lhs.name)
                if not sig.is_memory:
                    slot = self.ec.slot_of[stmt.lhs.name]
                    if slot not in self.watched:
                        local = self._cached_slot(slot)
                        self._cache_written.add(slot)
                        if value_width > sig.width:
                            mask_src = self.ec.lit_ref((1 << sig.width) - 1)
                            self._emit(ind, f"{local} = ({rhs}) & {mask_src}")
                        else:
                            self._emit(ind, f"{local} = {rhs}")
                        return
            value = self._gensym("v")
            self._emit(ind, f"{value} = {rhs}")
            if stmt.blocking:
                self._emit_store(stmt.lhs, value, value_width, ind)
            else:
                writer, dyn = self._compile_writer(stmt.lhs, value_width)
                args = [value]
                for index_expr in dyn:
                    frozen = self._gensym("x")
                    self._emit(ind,
                               f"{frozen} = {self.ec.compile(index_expr)}")
                    args.append(frozen)
                self._emit(ind, f"nbap(({writer}, {', '.join(args)}))")
            return
        if isinstance(stmt, (ast.Block, ast.ForkJoin)):
            self._count(ind, 1, 0)
            if self._cache is not None:
                self._emit_block_coalesced(stmt.stmts, ind)
                return
            for inner in stmt.stmts:
                self.emit_stmt(inner, ind)
            return
        if isinstance(stmt, ast.If):
            self._count(ind, 1, expr_nodes(stmt.cond))
            self._emit(ind, f"if {self.ec.compile_cond(stmt.cond)}:")
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
            self._count(ind, 1, 0)
            if kind == "for":
                self.emit_stmt(stmt.init, ind)
            guard = self._gensym("it")
            self._emit(ind, f"{guard} = 0")
            self._emit(ind, f"while {self.ec.compile_cond(stmt.cond)}:")
            if kind == "for":
                self._count(ind + 1, 0, expr_nodes(stmt.cond))
            self.emit_stmt(stmt.body, ind + 1)
            if kind == "for":
                self.emit_stmt(stmt.step, ind + 1)
            self._emit(ind + 1, f"{guard} += 1")
            self._emit(ind + 1, f"if {guard} > {_MAX_LOOP_ITERATIONS}:")
            self._emit(ind + 2, "raise SimulationError("
                                f"'{kind}-loop iteration limit exceeded')")
            return
        if isinstance(stmt, ast.RepeatStmt):
            self._count(ind, 1, expr_nodes(stmt.count))
            count = self.ec.compile(stmt.count)
            loop = self._gensym("it")
            self._emit(ind, f"for {loop} in range(min({count},"
                            f" {_MAX_LOOP_ITERATIONS})):")
            self.emit_stmt(stmt.body, ind + 1)
            return
        if isinstance(stmt, ast.NullStmt):
            self._count(ind, 1, 0)
            return
        if isinstance(stmt, ast.DelayStmt):
            self._count(ind, 1, 0)
            self.emit_stmt(stmt.stmt, ind)
            return
        # System tasks (and anything else) run through the reference
        # interpreter against the slot store: identical output, cold path.
        raise CompileFallback(
            f"system task {stmt.name}" if isinstance(stmt, ast.SysTask)
            else type(stmt).__name__)

    def _counted(self, stmt: ast.For) -> Optional[range]:
        """The loop variable's values, when a specialized body may count
        through them (unwatched: no mark to place), else ``None``."""
        trips = (None if self._cache is None else
                 counted_loop(stmt, self.env, _MAX_LOOP_ITERATIONS))
        watched = (trips is not None and
                   self.ec.slot_of[stmt.init.lhs.name] in self.watched)
        return None if watched else trips

    def _may_abort(self, stmt: Optional[ast.Stmt]) -> bool:
        """Only an iteration guard raises inside a strict body."""
        return stmt is not None and any(
            isinstance(node, ast.While)
            or (isinstance(node, ast.For) and self._counted(node) is None)
            for node in ast.walk_stmt(stmt))

    def _emit_counted(self, stmt: ast.For, trips: range, ind: int) -> None:
        """``for L in range(...)`` + the exit value; counters equal the
        ``while`` form's (condition nodes, body, one statement + step
        nodes an iteration) wherever an abort could observe them."""
        self.ec.facts["counted"] += 1
        name = stmt.init.lhs.name
        slot = self.ec.slot_of[name]
        local = self._cached_slot(slot)
        self._cache_written.add(slot)
        outer_lines, self.lines = self.lines, []
        outer, self._loop = self._loop, [
            -1 if self._may_abort(stmt.body) else ind + 1, 0, 0]
        self.ec.bound[name] = trips
        try:
            self._count(ind + 1, 0, expr_nodes(stmt.cond))
            self.emit_stmt(stmt.body, ind + 1)
            self._count(ind + 1, 1, expr_nodes(stmt.step.rhs))
        finally:
            del self.ec.bound[name]
            body, self.lines = self.lines, outer_lines
            (_, per_st, per_ops), self._loop = self._loop, outer
        self._count(ind, 2 + len(trips) * per_st,
                    expr_nodes(stmt.init.rhs) + len(trips) * per_ops)
        self._emit(ind, f"for {local} in range({trips.start}, {trips.stop},"
                        f" {trips.step}):")
        self.lines.extend(body or ["    " * (ind + 1) + "pass"])
        self._emit(ind, f"{local} = {trips.start + len(trips) * trips.step}")

    def _emit_block_coalesced(self, stmts, ind: int) -> None:
        """Emit a block body with straight-line counter runs merged.

        A run of plain assignments in a strict-compiled body executes
        atomically — every operation in it is guarded and total, so no
        abort can be observed between its members — which makes one
        merged ``_st``/``_ops`` bump exactly equivalent to the
        per-statement bumps at every observable point.
        """
        run: List[ast.Stmt] = []

        def flush() -> None:
            if not run:
                return
            ops = sum(expr_nodes(s.rhs) for s in run
                      if isinstance(s, ast.Assign))
            self._count(ind, len(run), ops)
            self._suppress_count = True
            try:
                for member in run:
                    self.emit_stmt(member, ind)
            finally:
                self._suppress_count = False
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
        ops = expr_nodes(stmt.expr)
        self._count(ind, 1, ops)
        subject = self._gensym("c")
        self._emit(ind, f"{subject} = {self.ec.compile(stmt.expr, subject_width)}")
        first = True
        default: Optional[ast.CaseItem] = None
        for item in stmt.items:
            if not item.labels:
                if default is None:
                    default = item
                continue
            for label in item.labels:
                label_width = max(subject_width, self.env.width_of(label))
                label_src = self.ec.compile_at(label, label_width)
                dontcare = 0
                if stmt.kind in ("casez", "casex") and isinstance(label, ast.Number):
                    dontcare = label.xz_mask
                if dontcare:
                    test = (f"({subject} & {self.ec.lit_ref(~dontcare)}) == "
                            f"(({label_src}) & {self.ec.lit_ref(~dontcare)})")
                else:
                    test = f"{subject} == ({label_src})"
                self._emit(ind, f"{'if' if first else 'elif'} {test}:")
                first = False
                self.emit_stmt(item.stmt, ind + 1)
        if default is not None:
            if first:
                self.emit_stmt(default.stmt, ind)
            else:
                self._emit(ind, "else:")
                self.emit_stmt(default.stmt, ind + 1)

    # -- writers (non-blocking assignment targets) ---------------------------

    def _dynamic_indices(self, lhs: ast.Expr) -> List[ast.Expr]:
        """LHS index expressions that must be evaluated at the site."""
        out: List[ast.Expr] = []
        if isinstance(lhs, ast.Index):
            if self.ec.try_const(lhs.index) is None:
                out.append(lhs.index)
        elif isinstance(lhs, ast.RangeSelect):
            if lhs.mode != ":" and self.ec.try_const(lhs.msb) is None:
                out.append(lhs.msb)
        elif isinstance(lhs, ast.Concat):
            for part in lhs.parts:
                out.extend(self._dynamic_indices(part))
        return out

    def _index_src(self, expr: ast.Expr) -> str:
        """Source for an LHS index: the frozen argument inside a writer
        body, a fresh compilation elsewhere."""
        return self._frozen.get(id(expr)) or self.ec.compile(expr)

    def _compile_writer(self, lhs: ast.Expr,
                        value_width: int) -> "tuple[str, List[ast.Expr]]":
        """Compile *lhs* into a writer ``nw<k>(value, *indices)``.

        Dynamic index expressions are evaluated at the assignment site
        (LRM §9.2.2) and passed in as arguments; the writer only
        applies the deferred store in the update region.  Writers run
        in the latch region — after any cached body has flushed — so
        they always compile against the store directly, even while a
        specialized body is being emitted.
        """
        name = f"nw{self._writers}"
        self._writers += 1
        dyn = self._dynamic_indices(lhs)
        params = ["_v"] + [f"_x{k}" for k in range(len(dyn))]
        saved, self.lines = self.lines, []
        self._frozen = {id(expr): f"_x{k}" for k, expr in enumerate(dyn)}
        cache_saved = self._cache
        strict_saved = self.ec.strict
        self._cache = None
        self.ec.slot_src = self.ec._direct_slot
        self.ec.strict = False
        try:
            self._emit_store(lhs, "_v", value_width, 1)
            body = self.lines or ["    pass"]
        finally:
            self.lines = saved
            self._frozen = {}
            self._cache = cache_saved
            if cache_saved is not None:
                self.ec.slot_src = self._cached_slot
            self.ec.strict = strict_saved
        self.writer_defs.append(f"def {name}({', '.join(params)}):")
        self.writer_defs.extend(body)
        self.writer_defs.append("")
        return name, dyn

    # -- whole processes -----------------------------------------------------

    def compile_assign(self, name: str, item: ast.ContinuousAssign) -> List[str]:
        """Function source for one continuous assignment."""
        self.lines = []
        try:
            width = self.env.width_of(item.lhs)
            value_width = max(self.env.width_of(item.rhs), width)
            value = self._gensym("v")
            self._emit(2, f"{value} = {self.ec.compile(item.rhs, width)}")
            self._emit_store(item.lhs, value, value_width, 2)
            footer = f"        EVC.ops_evaluated += {expr_nodes(item.rhs)}"
        except (CompileFallback, WidthError):
            # The interpreted fallback counts its own evaluated ops.
            self.lines = [f"        S._run_assign({self.ec.const_ref(item)})"]
            footer = "        pass"
        return ([f"def {name}():", "    try:"] + self.lines
                + ["    finally:", footer, ""])

    def compile_procedural(self, name: str, stmt: ast.Stmt,
                           specialize: bool = False) -> List[str]:
        """Function source for an always/initial block body.

        With *specialize*, the slot-cached strategy is attempted first;
        a body that needs any interpreter escape keeps the generic one
        and ``strategy`` records the escape.
        """
        self.strategy[name] = "generic (no two-state licence)"
        if specialize:
            booked = dict(self.ec.facts)
            try:
                lines = self._compile_procedural_cached(name, stmt)
                self.strategy[name] = "specialized"
                return lines
            except (CompileFallback, WidthError) as why:
                self.strategy[name] = f"generic ({why})"
                self.ec.facts = booked
        self.lines = []
        self.emit_stmt(stmt, 2)
        return self._frame(name, self.lines)

    def _compile_procedural_cached(self, name: str, stmt: ast.Stmt) -> List[str]:
        """The specialized strategy: loads hoisted, stores flushed once."""
        self.lines = []
        self._begin_cache()
        try:
            self.emit_stmt(stmt, 2)
        except BaseException:
            self.lines = []
            raise
        finally:
            order, written = self._end_cache()
        body, self.lines = self.lines, []
        return self._frame(name, body, order, written)
