"""Functional AST rewriting utilities.

The AST is immutable, so every pass builds new trees.  These helpers
implement the boilerplate: ``map_expr`` applies a transformation to every
sub-expression bottom-up, ``map_stmt_exprs`` rewrites the expressions
embedded in a statement tree, and ``rename`` substitutes identifiers —
the workhorse for hierarchy flattening and for the name-mangling steps of
the Synergy control transformations.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional

from . import ast_nodes as ast

ExprFn = Callable[[ast.Expr], ast.Expr]


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


def map_stmt_exprs(stmt: ast.Stmt, fn: ExprFn) -> ast.Stmt:
    """Rewrite every expression inside *stmt* (recursively) with *fn*."""
    if isinstance(stmt, ast.Assign):
        return ast.Assign(map_expr(stmt.lhs, fn), map_expr(stmt.rhs, fn), stmt.blocking, stmt.pos)
    if isinstance(stmt, ast.NullStmt):
        return stmt
    if isinstance(stmt, ast.SysTask):
        return ast.SysTask(stmt.name, tuple(map_expr(a, fn) for a in stmt.args), stmt.pos)
    if isinstance(stmt, ast.Block):
        return ast.Block(tuple(map_stmt_exprs(s, fn) for s in stmt.stmts), stmt.name, stmt.pos)
    if isinstance(stmt, ast.ForkJoin):
        return ast.ForkJoin(tuple(map_stmt_exprs(s, fn) for s in stmt.stmts), stmt.name, stmt.pos)
    if isinstance(stmt, ast.If):
        return ast.If(
            map_expr(stmt.cond, fn),
            map_stmt_exprs(stmt.then_stmt, fn) if stmt.then_stmt else None,
            map_stmt_exprs(stmt.else_stmt, fn) if stmt.else_stmt else None,
            stmt.pos,
        )
    if isinstance(stmt, ast.Case):
        items = tuple(
            ast.CaseItem(
                tuple(map_expr(lbl, fn) for lbl in item.labels),
                map_stmt_exprs(item.stmt, fn) if item.stmt else None,
            )
            for item in stmt.items
        )
        return ast.Case(map_expr(stmt.expr, fn), items, stmt.kind, stmt.pos)
    if isinstance(stmt, ast.For):
        return ast.For(
            map_stmt_exprs(stmt.init, fn),  # type: ignore[arg-type]
            map_expr(stmt.cond, fn),
            map_stmt_exprs(stmt.step, fn),  # type: ignore[arg-type]
            map_stmt_exprs(stmt.body, fn) if stmt.body else None,
            stmt.pos,
        )
    if isinstance(stmt, ast.While):
        return ast.While(
            map_expr(stmt.cond, fn),
            map_stmt_exprs(stmt.body, fn) if stmt.body else None,
            stmt.pos,
        )
    if isinstance(stmt, ast.RepeatStmt):
        return ast.RepeatStmt(
            map_expr(stmt.count, fn),
            map_stmt_exprs(stmt.body, fn) if stmt.body else None,
            stmt.pos,
        )
    if isinstance(stmt, ast.DelayStmt):
        return ast.DelayStmt(
            map_expr(stmt.delay, fn),
            map_stmt_exprs(stmt.stmt, fn) if stmt.stmt else None,
            stmt.pos,
        )
    raise TypeError(f"cannot rewrite statement {type(stmt).__name__}")


def rename_expr(expr: ast.Expr, mapping: Mapping[str, str]) -> ast.Expr:
    """Substitute identifier names per *mapping* (missing names unchanged)."""

    def fn(node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.Identifier) and node.name in mapping:
            return ast.Identifier(mapping[node.name], node.pos)
        return node

    return map_expr(expr, fn)


def rename_stmt(stmt: ast.Stmt, mapping: Mapping[str, str]) -> ast.Stmt:
    """Substitute identifier names inside a statement tree."""

    def fn(node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.Identifier) and node.name in mapping:
            return ast.Identifier(mapping[node.name], node.pos)
        return node

    return map_stmt_exprs(stmt, fn)


def substitute_expr(expr: ast.Expr, mapping: Mapping[str, ast.Expr]) -> ast.Expr:
    """Replace identifiers with arbitrary expressions (port binding)."""

    def fn(node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.Identifier) and node.name in mapping:
            return mapping[node.name]
        return node

    return map_expr(expr, fn)


def rename_item(item: ast.Item, mapping: Mapping[str, str]) -> ast.Item:
    """Substitute identifier names inside a module item."""
    if isinstance(item, ast.Decl):
        new_range = None
        if item.range is not None:
            new_range = ast.Range(
                rename_expr(item.range.msb, mapping), rename_expr(item.range.lsb, mapping)
            )
        unpacked = tuple(
            ast.Range(rename_expr(d.msb, mapping), rename_expr(d.lsb, mapping))
            for d in item.unpacked
        )
        return ast.Decl(
            item.kind,
            mapping.get(item.name, item.name),
            new_range,
            unpacked,
            rename_expr(item.init, mapping) if item.init is not None else None,
            item.direction,
            item.signed,
            item.attributes,
            item.pos,
        )
    if isinstance(item, ast.ContinuousAssign):
        return ast.ContinuousAssign(
            rename_expr(item.lhs, mapping), rename_expr(item.rhs, mapping), item.pos
        )
    if isinstance(item, ast.Always):
        sens = item.sensitivity
        if sens != ast.STAR:
            sens = tuple(
                ast.EventExpr(e.edge, rename_expr(e.expr, mapping)) for e in sens
            )
        return ast.Always(sens, rename_stmt(item.stmt, mapping), item.pos)
    if isinstance(item, ast.Initial):
        return ast.Initial(rename_stmt(item.stmt, mapping), item.pos)
    if isinstance(item, ast.Instance):
        params = tuple(
            ast.PortConn(c.name, rename_expr(c.expr, mapping) if c.expr else None)
            for c in item.params
        )
        ports = tuple(
            ast.PortConn(c.name, rename_expr(c.expr, mapping) if c.expr else None)
            for c in item.ports
        )
        return ast.Instance(item.module, mapping.get(item.name, item.name), params, ports, item.pos)
    raise TypeError(f"cannot rename item {type(item).__name__}")


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
