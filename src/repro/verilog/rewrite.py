"""Functional AST rewriting utilities.

The AST is immutable, so every pass builds new trees.  ``map_expr``
rebuilds an expression bottom-up, applying a function to every node.
Statements and items have one rebuilder each, and they are the only
places that spell out a node's fields:

* ``map_stmt(stmt, child, expr=None, lvalue=None)`` rebuilds *one*
  level of a statement.  Each sub-statement (``For`` init and step
  included) goes through *child*, each read expression through *expr*,
  and each write position — an assignment's left side, the arguments of
  ``$fread``/``$readmemh``/``$readmemb`` — through *lvalue*; ``None``
  is the identity.  A rewrite recurses by passing itself as *child*:
  a post-map rewrites the rebuilt node (``scheduling.defork``), a
  pre-map replaces a node before descending (``grid.strip_tasks_stmt``),
  and a rewrite with context wraps its own recursion
  (``machinify``'s loop-depth counter around ``_shadow_nbas``).
* ``map_item_exprs(item, fn)`` applies *fn* to every whole expression
  of a module item — ranges, initializers, sensitivity, process bodies
  via ``map_stmt``, instance connections.

On these sit ``map_stmt_exprs``, ``rename_*`` and ``substitute_expr`` —
the workhorses for hierarchy flattening and for the name-mangling steps
of the Synergy control transformations.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, List, Mapping, Optional

from . import ast_nodes as ast

ExprFn = Callable[[ast.Expr], ast.Expr]
StmtFn = Callable[[ast.Stmt], ast.Stmt]

#: System tasks whose arguments are write positions (their destinations).
_WRITE_TASKS = frozenset(["$fread", "$readmemh", "$readmemb"])

_LEAVES = frozenset([ast.Assign, ast.SysTask, ast.NullStmt])


def _same(node: ast.Expr) -> ast.Expr:
    return node


def _opt(child: StmtFn, stmt: Optional[ast.Stmt]) -> Optional[ast.Stmt]:
    return None if stmt is None else child(stmt)


def map_expr(expr: ast.Expr, fn: ExprFn) -> ast.Expr:
    """Rebuild *expr* bottom-up, applying *fn* to every node.

    *fn* receives each node after its children have been rewritten and
    returns a replacement (or the node unchanged).
    """
    if isinstance(expr, (ast.Number, ast.String, ast.Identifier)):
        return fn(expr)
    if isinstance(expr, ast.Index):
        return fn(ast.Index(map_expr(expr.base, fn), map_expr(expr.index, fn), expr.pos))
    if isinstance(expr, ast.RangeSelect):
        return fn(
            ast.RangeSelect(
                map_expr(expr.base, fn),
                map_expr(expr.msb, fn),
                map_expr(expr.lsb, fn),
                expr.mode,
                expr.pos,
            )
        )
    if isinstance(expr, ast.Concat):
        return fn(ast.Concat(tuple(map_expr(p, fn) for p in expr.parts), expr.pos))
    if isinstance(expr, ast.Repeat):
        return fn(ast.Repeat(map_expr(expr.count, fn), map_expr(expr.value, fn), expr.pos))
    if isinstance(expr, ast.Unary):
        return fn(ast.Unary(expr.op, map_expr(expr.operand, fn), expr.pos))
    if isinstance(expr, ast.Binary):
        return fn(
            ast.Binary(expr.op, map_expr(expr.left, fn), map_expr(expr.right, fn), expr.pos)
        )
    if isinstance(expr, ast.Ternary):
        return fn(
            ast.Ternary(
                map_expr(expr.cond, fn),
                map_expr(expr.if_true, fn),
                map_expr(expr.if_false, fn),
                expr.pos,
            )
        )
    if isinstance(expr, ast.SysCall):
        return fn(ast.SysCall(expr.name, tuple(map_expr(a, fn) for a in expr.args), expr.pos))
    raise TypeError(f"cannot rewrite expression {type(expr).__name__}")


def map_stmt(stmt: ast.Stmt, child: StmtFn, expr: Optional[ExprFn] = None,
             lvalue: Optional[ExprFn] = None) -> ast.Stmt:
    """Rebuild one level of *stmt*, the one place a statement's shape is spelled.

    Every sub-statement goes through *child* (``For`` init and step
    included; absent ones stay ``None``), every read expression
    through *expr*, and every write position — an assignment's left
    side, a ``$fread``/``$readmem*`` argument — through *lvalue*.  A
    ``None`` mapper is the identity; with neither expression mapper
    an assignment, system task or null statement comes back as is.
    """
    kind = type(stmt)
    if expr is None and lvalue is None and kind in _LEAVES:
        return stmt
    rd = expr or _same
    wr = lvalue or _same
    if kind is ast.Assign:
        return ast.Assign(wr(stmt.lhs), rd(stmt.rhs), stmt.blocking, stmt.pos)
    if kind is ast.Block or kind is ast.ForkJoin:
        return kind(tuple(map(child, stmt.stmts)), stmt.name, stmt.pos)
    if kind is ast.If:
        return ast.If(rd(stmt.cond), _opt(child, stmt.then_stmt),
                      _opt(child, stmt.else_stmt), stmt.pos)
    if kind is ast.Case:
        items = tuple(ast.CaseItem(tuple(map(rd, item.labels)), _opt(child, item.stmt))
                      for item in stmt.items)
        return ast.Case(rd(stmt.expr), items, stmt.kind, stmt.pos)
    if kind is ast.SysTask:
        args = map(wr if stmt.name in _WRITE_TASKS else rd, stmt.args)
        return ast.SysTask(stmt.name, tuple(args), stmt.pos)
    if kind is ast.NullStmt:
        return stmt
    if kind is ast.For:
        return ast.For(child(stmt.init), rd(stmt.cond), child(stmt.step),
                       _opt(child, stmt.body), stmt.pos)
    if kind is ast.While:
        return ast.While(rd(stmt.cond), _opt(child, stmt.body), stmt.pos)
    if kind is ast.RepeatStmt:
        return ast.RepeatStmt(rd(stmt.count), _opt(child, stmt.body), stmt.pos)
    if kind is ast.DelayStmt:
        return ast.DelayStmt(rd(stmt.delay), _opt(child, stmt.stmt), stmt.pos)
    raise TypeError(f"cannot rewrite statement {kind.__name__}")


class StmtMapper:
    """``map_stmt`` all the way down, with the same *expr* and *lvalue*
    mappers at every level.  A callable object passes itself as the
    child mapper without naming itself, so a rewrite leaves no
    reference cycle behind for the collector (a closure that recurses
    through its own name is one)."""

    __slots__ = ("expr", "lvalue")

    def __init__(self, expr: Optional[ExprFn], lvalue: Optional[ExprFn]):
        self.expr = expr
        self.lvalue = lvalue

    def __call__(self, stmt: ast.Stmt) -> ast.Stmt:
        return map_stmt(stmt, self, self.expr, self.lvalue)


def map_stmt_exprs(stmt: ast.Stmt, fn: ExprFn) -> ast.Stmt:
    """Rewrite every expression inside *stmt* (recursively) with *fn*."""

    def expr(node: ast.Expr) -> ast.Expr:
        return map_expr(node, fn)

    return StmtMapper(expr, expr)(stmt)


def map_item_exprs(item: ast.Item, fn: ExprFn) -> ast.Item:
    """Apply *fn* to every whole expression of a module item.

    Declared ranges and initializers, both sides of a continuous
    assignment, sensitivity events, every expression of a process body
    and instance connections; names are left alone.
    """

    walk = StmtMapper(fn, fn)

    def rng(r: ast.Range) -> ast.Range:
        return ast.Range(fn(r.msb), fn(r.lsb))

    def conn(c: ast.PortConn) -> ast.PortConn:
        return ast.PortConn(c.name, None if c.expr is None else fn(c.expr))

    if isinstance(item, ast.Decl):
        return ast.Decl(item.kind, item.name,
                        None if item.range is None else rng(item.range),
                        tuple(map(rng, item.unpacked)),
                        None if item.init is None else fn(item.init),
                        item.direction, item.signed, item.attributes, item.pos)
    if isinstance(item, ast.ContinuousAssign):
        return ast.ContinuousAssign(fn(item.lhs), fn(item.rhs), item.pos)
    if isinstance(item, ast.Always):
        sens = item.sensitivity
        if sens != ast.STAR:
            sens = tuple(ast.EventExpr(e.edge, fn(e.expr)) for e in sens)
        return ast.Always(sens, walk(item.stmt), item.pos)
    if isinstance(item, ast.Initial):
        return ast.Initial(walk(item.stmt), item.pos)
    if isinstance(item, ast.Instance):
        return ast.Instance(item.module, item.name, tuple(map(conn, item.params)),
                            tuple(map(conn, item.ports)), item.pos)
    raise TypeError(f"cannot rewrite item {type(item).__name__}")


def _renamer(mapping: Mapping[str, str]) -> ExprFn:
    def fn(node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.Identifier) and node.name in mapping:
            return ast.Identifier(mapping[node.name], node.pos)
        return node

    return fn


def rename_expr(expr: ast.Expr, mapping: Mapping[str, str]) -> ast.Expr:
    """Substitute identifier names per *mapping* (missing names unchanged)."""
    return map_expr(expr, _renamer(mapping))


def rename_stmt(stmt: ast.Stmt, mapping: Mapping[str, str]) -> ast.Stmt:
    """Substitute identifier names inside a statement tree."""
    return map_stmt_exprs(stmt, _renamer(mapping))


def substitute_expr(expr: ast.Expr, mapping: Mapping[str, ast.Expr]) -> ast.Expr:
    """Replace identifiers with arbitrary expressions (port binding)."""

    def fn(node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.Identifier) and node.name in mapping:
            return mapping[node.name]
        return node

    return map_expr(expr, fn)


def rename_item(item: ast.Item, mapping: Mapping[str, str]) -> ast.Item:
    """Substitute identifier names inside a module item, declared names too."""
    fn = _renamer(mapping)
    out = map_item_exprs(item, lambda e: map_expr(e, fn))
    if isinstance(out, (ast.Decl, ast.Instance)) and out.name in mapping:
        out = replace(out, name=mapping[out.name])
    return out


def _add_identifiers(expr: ast.Expr, names: "set[str]") -> None:
    # A walk, not a ``map_expr``: nothing is rebuilt.
    if isinstance(expr, ast.Identifier):
        names.add(expr.name)
    else:
        for child in ast.expr_children(expr):
            _add_identifiers(child, names)


def collect_identifiers(expr: ast.Expr) -> "set[str]":
    """Return the set of identifier names referenced by *expr*."""
    names: set = set()
    _add_identifiers(expr, names)
    return names


def stmt_identifiers(stmt: ast.Stmt) -> "set[str]":
    """Return the set of identifier names referenced inside *stmt*."""
    names: set = set()
    for node in ast.walk_stmt(stmt):
        for expr in ast.stmt_exprs(node):
            _add_identifiers(expr, names)
    return names


def lvalue_targets(lhs: ast.Expr) -> "list[str]":
    """Return the base names written by an lvalue expression."""
    if isinstance(lhs, ast.Identifier):
        return [lhs.name]
    if isinstance(lhs, (ast.Index, ast.RangeSelect)):
        return lvalue_targets(lhs.base)
    if isinstance(lhs, ast.Concat):
        names: list = []
        for part in lhs.parts:
            names.extend(lvalue_targets(part))
        return names
    raise TypeError(f"invalid lvalue {type(lhs).__name__}")


def lvalue_reads(lhs: ast.Expr) -> "set[str]":
    """Return the names read by index expressions on an lvalue."""
    if isinstance(lhs, ast.Index):
        return collect_identifiers(lhs.index)
    if isinstance(lhs, ast.RangeSelect):
        return collect_identifiers(lhs.msb)
    if isinstance(lhs, ast.Concat):
        return set().union(*map(lvalue_reads, lhs.parts))
    return set()


def lvalue_indices(lhs: ast.Expr) -> List[ast.Expr]:
    """Return the index expressions an lvalue evaluates at its site: an
    ``Index``'s index and a ``+:``/``-:`` select's start, through
    concatenations (a constant ``[msb:lsb]`` has none)."""
    if isinstance(lhs, ast.Index):
        return [lhs.index]
    if isinstance(lhs, ast.RangeSelect) and lhs.mode != ":":
        return [lhs.msb]
    if isinstance(lhs, ast.Concat):
        return [e for part in lhs.parts for e in lvalue_indices(part)]
    return []
