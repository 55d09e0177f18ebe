"""The word-level mid-end IR.

A :class:`Design` is the mid-end's view of one elaborated (flattened,
parameter-free) module: the item list in declaration order, the width
environment, and derived def/use structure — per-process read/write
sets, continuous-assign driver maps, and transitive combinational
cones.  Passes rewrite the item list functionally (the AST is
immutable) and call :meth:`Design.replace_items`, which invalidates
the derived analyses; ``to_module()`` re-prints the design back to a
standard :class:`~repro.verilog.ast_nodes.Module`, so every pass
output remains parseable Verilog and can be differentially checked
against the interpreter oracle.

The IR is *word-level*: values are integers of declared width, never
bit-blasted, matching the simulator's store.  Analyses here are
deliberately conservative — a read set may over-approximate, never
under-approximate — because pass legality arguments lean on them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..verilog import ast_nodes as ast
from ..verilog.rewrite import (
    collect_identifiers,
    lvalue_reads,
    lvalue_targets,
    StmtMapper,
    map_expr,
    stmt_identifiers,
)
from ..verilog.width import WidthEnv

#: System functions whose evaluation has no side effects; everything
#: else ($random, $fgetc, $time, ...) pins interpreter-identical
#: evaluation order and blocks motion/deduplication.
PURE_SYSFUNCS = frozenset(["$signed", "$unsigned", "$clog2"])

ExprFn = Callable[[ast.Expr], ast.Expr]


# -- expression predicates --------------------------------------------------


def expr_pure(expr: ast.Expr) -> bool:
    """True when evaluating *expr* has no observable side effects."""
    for node in ast.walk_expr(expr):
        if isinstance(node, ast.SysCall) and node.name not in PURE_SYSFUNCS:
            return False
    return True


def stmt_pure(stmt: Optional[ast.Stmt]) -> bool:
    """True when *stmt* contains no system tasks or impure calls."""
    if stmt is None:
        return True
    for node in ast.walk_stmt(stmt):
        if isinstance(node, ast.SysTask):
            return False
        for expr in ast.stmt_exprs(node):
            if not expr_pure(expr):
                return False
    return True


def expr_nodes(expr: ast.Expr) -> int:
    """Number of AST nodes in *expr* (the mid-end's size metric)."""
    return 1 + sum(map(expr_nodes, ast.expr_children(expr)))


def expr_key(expr: ast.Expr) -> Tuple:
    """Structural identity of *expr*, ignoring source positions.

    The frozen dataclasses compare positions too, which would make
    structurally identical expressions from different source lines
    distinct; passes key on this instead.
    """
    if isinstance(expr, ast.Number):
        return ("num", expr.value, expr.width, expr.signed, expr.xz_mask)
    if isinstance(expr, ast.String):
        return ("str", expr.value)
    if isinstance(expr, ast.Identifier):
        return ("id", expr.name)
    if isinstance(expr, ast.Index):
        return ("idx", expr_key(expr.base), expr_key(expr.index))
    if isinstance(expr, ast.RangeSelect):
        return ("rsel", expr.mode, expr_key(expr.base),
                expr_key(expr.msb), expr_key(expr.lsb))
    if isinstance(expr, ast.Concat):
        return ("cat",) + tuple(expr_key(p) for p in expr.parts)
    if isinstance(expr, ast.Repeat):
        return ("rep", expr_key(expr.count), expr_key(expr.value))
    if isinstance(expr, ast.Unary):
        return ("un", expr.op, expr_key(expr.operand))
    if isinstance(expr, ast.Binary):
        return ("bin", expr.op, expr_key(expr.left), expr_key(expr.right))
    if isinstance(expr, ast.Ternary):
        return ("tern", expr_key(expr.cond), expr_key(expr.if_true),
                expr_key(expr.if_false))
    if isinstance(expr, ast.SysCall):
        return ("sys", expr.name) + tuple(expr_key(a) for a in expr.args)
    raise TypeError(f"cannot key expression {type(expr).__name__}")


# -- rvalue-scoped rewriting ------------------------------------------------
#
# Substitution passes must not touch lvalue *targets* (the base names
# being written), only the index expressions inside them — and must
# leave sensitivity lists alone, because edge-trigger bookkeeping is
# keyed to the signals named there (see passes.propagate_constants for
# the boot-time edge argument).


def _map_lvalue(lhs: ast.Expr, fn: ExprFn) -> ast.Expr:
    if isinstance(lhs, ast.Index):
        return ast.Index(lhs.base, map_expr(lhs.index, fn), lhs.pos)
    if isinstance(lhs, ast.RangeSelect):
        if lhs.mode == ":":
            return lhs  # constant bounds: nothing dynamic to rewrite
        return ast.RangeSelect(lhs.base, map_expr(lhs.msb, fn),
                               lhs.lsb, lhs.mode, lhs.pos)
    if isinstance(lhs, ast.Concat):
        return ast.Concat(tuple(_map_lvalue(p, fn) for p in lhs.parts), lhs.pos)
    return lhs  # bare Identifier: a write target, not a read


def map_stmt_rvalues(stmt: Optional[ast.Stmt], fn: ExprFn) -> Optional[ast.Stmt]:
    """Rewrite every *read* expression in *stmt*, preserving lvalues."""

    def read(expr: ast.Expr) -> ast.Expr:
        return expr if type(expr) is ast.String else map_expr(expr, fn)

    def write(lhs: ast.Expr) -> ast.Expr:
        return _map_lvalue(lhs, fn)

    return None if stmt is None else StmtMapper(read, write)(stmt)


def map_item_rvalues(item: ast.Item, fn: ExprFn) -> ast.Item:
    """Rewrite the read positions of one item (never sensitivity,
    never register/integer initializers — those run before the first
    settle, against pre-settle store state)."""
    if isinstance(item, ast.ContinuousAssign):
        return ast.ContinuousAssign(_map_lvalue(item.lhs, fn),
                                    map_expr(item.rhs, fn), item.pos)
    if isinstance(item, ast.Always):
        return ast.Always(item.sensitivity,
                          map_stmt_rvalues(item.stmt, fn), item.pos)
    if isinstance(item, ast.Initial):
        return ast.Initial(map_stmt_rvalues(item.stmt, fn), item.pos)
    if isinstance(item, ast.Decl) and item.kind == "wire" and item.init is not None:
        return ast.Decl(item.kind, item.name, item.range, item.unpacked,
                        map_expr(item.init, fn), item.direction, item.signed,
                        item.attributes, item.pos)
    return item


# -- statement-level write analysis -----------------------------------------


def blocking_writes(stmt: Optional[ast.Stmt]) -> Set[str]:
    """Names written by blocking assignments anywhere in *stmt*.

    ``For`` init/step statements are included explicitly — they are
    blocking assigns but not statement children in the walker.
    """
    out: Set[str] = set()
    if stmt is None:
        return out
    for node in ast.walk_stmt(stmt):
        if isinstance(node, ast.Assign) and node.blocking:
            out.update(lvalue_targets(node.lhs))
        elif isinstance(node, ast.For):
            for part in (node.init, node.step):
                if isinstance(part, ast.Assign) and part.blocking:
                    out.update(lvalue_targets(part.lhs))
        elif isinstance(node, ast.SysTask):
            if node.name == "$fread" and len(node.args) >= 2:
                out.update(lvalue_targets(node.args[1]))
    return out


def stmt_writes(stmt: Optional[ast.Stmt]) -> Set[str]:
    """All names written in *stmt* (blocking, non-blocking, $fread,
    $readmem)."""
    out: Set[str] = set()
    if stmt is None:
        return out
    for node in ast.walk_stmt(stmt):
        if isinstance(node, ast.Assign):
            out.update(lvalue_targets(node.lhs))
        elif isinstance(node, ast.For):
            for part in (node.init, node.step):
                if isinstance(part, ast.Assign):
                    out.update(lvalue_targets(part.lhs))
        elif isinstance(node, ast.SysTask):
            if node.name == "$fread" and len(node.args) >= 2:
                out.update(lvalue_targets(node.args[1]))
            elif node.name in ("$readmemh", "$readmemb") and len(node.args) >= 2:
                out.update(lvalue_targets(node.args[1]))
    return out


# -- processes and the design -----------------------------------------------


class Process:
    """One schedulable unit: a continuous assign, always, or initial.

    ``reads`` conservatively includes every identifier the process can
    evaluate (sensitivity expressions included); ``writes`` every name
    it can store to; ``blocking`` only the blocking-assign subset,
    which is what intra-settle staleness arguments care about.
    """

    __slots__ = ("index", "kind", "item", "reads", "writes", "blocking",
                 "pure", "sens_key")

    def __init__(self, index: int, kind: str, item: ast.Item,
                 reads: Set[str], writes: Set[str], blocking: Set[str],
                 pure: bool, sens_key: Optional[Tuple] = None):
        self.index = index       # position in Design.items
        self.kind = kind         # "assign" | "star" | "edge" | "initial"
        self.item = item
        self.reads = reads
        self.writes = writes
        self.blocking = blocking
        self.pure = pure
        self.sens_key = sens_key  # structural sensitivity identity (edge)


class Design:
    """The mid-end view of one elaborated module."""

    def __init__(self, module: ast.Module, env: Optional[WidthEnv] = None,
                 keep: "frozenset[str]" = frozenset()):
        self.name = module.name
        self.ports: Tuple[str, ...] = tuple(module.ports)
        self.items: List[ast.Item] = list(module.items)
        #: Externally observable names beyond ports/state/bookkeeping —
        #: e.g. signals the runtime's trap servicer reads over the ABI.
        #: Passes treat them exactly like ports.
        self.keep = keep
        self._env = env if env is not None else WidthEnv(module)
        self._env_dirty = False
        self._analysis: Optional[Dict[str, object]] = None
        #: Set by the clock-gate detection pass: item index -> enable
        #: expression proving the clocked block a no-op when false.
        self.clock_gates: Dict[int, ast.Expr] = {}

    # -- structural surface ------------------------------------------------

    @property
    def env(self) -> WidthEnv:
        if self._env_dirty:
            self._env = WidthEnv(self.to_module())
            self._env_dirty = False
        return self._env

    def to_module(self) -> ast.Module:
        return ast.Module(self.name, self.ports, tuple(self.items))

    def replace_items(self, items: Sequence[ast.Item],
                      decls_changed: bool = False) -> None:
        """Install a rewritten item list, invalidating derived state."""
        self.items = list(items)
        self._analysis = None
        if decls_changed:
            self._env_dirty = True

    # -- derived analyses ---------------------------------------------------

    def _analyze(self) -> Dict[str, object]:
        if self._analysis is not None:
            return self._analysis
        processes: List[Process] = []
        drivers: Dict[str, List[int]] = {}
        proc_writes: Dict[str, List[int]] = {}
        for index, item in enumerate(self.items):
            proc: Optional[Process] = None
            if isinstance(item, ast.ContinuousAssign):
                reads = collect_identifiers(item.rhs) | lvalue_reads(item.lhs)
                writes = set(lvalue_targets(item.lhs))
                proc = Process(index, "assign", item, reads, writes,
                               set(), expr_pure(item.rhs))
                for name in writes:
                    drivers.setdefault(name, []).append(index)
            elif (isinstance(item, ast.Decl) and item.kind == "wire"
                    and item.init is not None):
                reads = collect_identifiers(item.init)
                proc = Process(index, "assign", item, reads, {item.name},
                               set(), expr_pure(item.init))
                drivers.setdefault(item.name, []).append(index)
            elif isinstance(item, ast.Always):
                reads = stmt_identifiers(item.stmt)
                writes = stmt_writes(item.stmt)
                blocking = blocking_writes(item.stmt)
                if item.sensitivity == ast.STAR:
                    proc = Process(index, "star", item, reads, writes,
                                   blocking, stmt_pure(item.stmt))
                else:
                    for event in item.sensitivity:
                        reads = reads | collect_identifiers(event.expr)
                    key = tuple((e.edge, expr_key(e.expr))
                                for e in item.sensitivity)
                    proc = Process(index, "edge", item, reads, writes,
                                   blocking, stmt_pure(item.stmt), key)
                for name in writes:
                    proc_writes.setdefault(name, []).append(index)
            elif isinstance(item, ast.Initial):
                reads = stmt_identifiers(item.stmt)
                writes = stmt_writes(item.stmt)
                proc = Process(index, "initial", item, reads, writes,
                               blocking_writes(item.stmt),
                               stmt_pure(item.stmt))
                for name in writes:
                    proc_writes.setdefault(name, []).append(index)
            if proc is not None:
                processes.append(proc)
        self._analysis = {
            "processes": processes,
            "drivers": drivers,
            "proc_writes": proc_writes,
        }
        return self._analysis

    def processes(self) -> List[Process]:
        return self._analyze()["processes"]  # type: ignore[return-value]

    def drivers(self) -> Dict[str, List[int]]:
        """name -> item indices of continuous assigns driving it."""
        return self._analyze()["drivers"]  # type: ignore[return-value]

    def procedural_writers(self) -> Dict[str, List[int]]:
        """name -> item indices of always/initial blocks writing it."""
        return self._analyze()["proc_writes"]  # type: ignore[return-value]

    def comb_sources(self) -> Dict[str, Set[str]]:
        """wire -> every signal transitively feeding it through
        continuous assigns (the combinational cone inputs, wires
        included)."""
        drivers = self.drivers()
        memo: Dict[str, Set[str]] = {}
        for name in list(drivers):
            _cone(name, set(), memo, drivers, self.items)
        return memo


def _cone(name: str, stack: Set[str], memo: Dict[str, Set[str]],
          drivers: Dict[str, List[int]], items: List[ast.Item]) -> Set[str]:
    """:meth:`Design.comb_sources` of *name*, memoized in *memo*."""
    if name in memo:
        return memo[name]
    if name in stack:
        return set()  # combinational cycle: cut here
    out: Set[str] = set()
    stack = stack | {name}
    for index in drivers.get(name, ()):
        item = items[index]
        rhs = (item.rhs if isinstance(item, ast.ContinuousAssign)
               else item.init)
        lhs_extra = (lvalue_reads(item.lhs)
                     if isinstance(item, ast.ContinuousAssign) else set())
        for read in collect_identifiers(rhs) | lhs_extra:
            out.add(read)
            out |= _cone(read, stack, memo, drivers, items)
    memo[name] = out
    return out


def node_count(module: ast.Module) -> int:
    """Total expression nodes across *module*'s items (reporting)."""
    total = 0
    for item in module.items:
        if isinstance(item, ast.ContinuousAssign):
            total += expr_nodes(item.lhs) + expr_nodes(item.rhs)
        elif isinstance(item, (ast.Always, ast.Initial)):
            if isinstance(item, ast.Always) and item.sensitivity != ast.STAR:
                total += sum(expr_nodes(e.expr) for e in item.sensitivity)
            for node in ast.walk_stmt(item.stmt):
                for expr in ast.stmt_exprs(node):
                    total += expr_nodes(expr)
        elif isinstance(item, ast.Decl) and item.init is not None:
            total += expr_nodes(item.init)
    return total

