"""Scheduling transformations (paper §3.2, Figure 3).

Establishes the invariant that all procedural logic appears in a single
control statement — the *core* — through three sound rewrites:

1. ``fork``/``join`` → ``begin``/``end`` (sequential execution is a valid
   scheduling of a parallel block);
2. nested ``begin``/``end`` flattening (nesting implies no scheduling
   constraints);
3. merging every ``always`` block into one statement guarded by the union
   of the original events, with each conjunct guarded by a name-mangled
   edge-detection wire (``__pos_x`` / ``__neg_x`` / ``__any_x``).

These rewrites are sound even for programs with multiple clock domains,
because Verilog only allows disjunctive guards (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..verilog import ast_nodes as ast
from ..verilog.rewrite import map_stmt


class TransformError(Exception):
    """Raised when a module cannot be transformed (unsupported shape)."""


def defork(stmt: ast.Stmt) -> ast.Stmt:
    """Replace every ``fork``/``join`` with an equivalent ``begin``/``end``."""
    out = map_stmt(stmt, defork)
    if isinstance(out, ast.ForkJoin):
        return ast.Block(out.stmts, out.name, out.pos)
    return out


def flatten_blocks(stmt: ast.Stmt) -> ast.Stmt:
    """Flatten nested unnamed ``begin``/``end`` blocks into a single block."""
    out = map_stmt(stmt, flatten_blocks)
    if not isinstance(out, ast.Block):
        return out
    flat: List[ast.Stmt] = []
    for inner in out.stmts:
        if isinstance(inner, ast.Block) and inner.name is None:
            flat.extend(inner.stmts)
        else:
            flat.append(inner)
    return ast.Block(tuple(flat), out.name, out.pos)


def guard_name(edge: str, signal: str) -> str:
    """The mangled name of an edge-detection wire (Figure 3's ``G``)."""
    prefix = {"posedge": "__pos_", "negedge": "__neg_", "any": "__any_"}[edge]
    return prefix + signal


@dataclass
class GuardedConjunct:
    """One original ``always`` block after normalization.

    ``guards`` names the edge-detection wires whose disjunction enables
    the body within the merged core.
    """

    events: Tuple[ast.EventExpr, ...]
    guards: Tuple[str, ...]
    body: ast.Stmt


@dataclass
class Core:
    """The merged core: every procedural block behind one control point."""

    conjuncts: List[GuardedConjunct] = field(default_factory=list)
    #: (edge, signal-name) pairs needing edge-detection machinery.
    edge_signals: List[Tuple[str, str]] = field(default_factory=list)

    def body(self) -> ast.Stmt:
        """The merged core body: each conjunct wrapped in its guard test."""
        stmts: List[ast.Stmt] = []
        for conjunct in self.conjuncts:
            cond: Optional[ast.Expr] = None
            for guard in conjunct.guards:
                ref: ast.Expr = ast.Identifier(guard)
                cond = ref if cond is None else ast.Binary("|", cond, ref)
            assert cond is not None
            stmts.append(ast.If(cond, conjunct.body, None))
        return ast.Block(tuple(stmts))


def build_core(module: ast.Module) -> Core:
    """Apply the Figure 3 transformations to every ``always`` block."""
    core = Core()
    seen_edges: Dict[Tuple[str, str], None] = {}
    for item in module.items:
        if not isinstance(item, ast.Always):
            continue
        if item.sensitivity == ast.STAR:
            # @* blocks are combinational; they are handled like continuous
            # assignments by the backend and do not join the core.
            continue
        guards: List[str] = []
        events: List[ast.EventExpr] = []
        for event in item.sensitivity:
            if not isinstance(event.expr, ast.Identifier):
                raise TransformError(
                    "core merging requires identifier events "
                    f"(got {event.expr!r})"
                )
            signal = event.expr.name
            guards.append(guard_name(event.edge, signal))
            events.append(event)
            seen_edges.setdefault((event.edge, signal), None)
        body = flatten_blocks(defork(item.stmt))
        core.conjuncts.append(GuardedConjunct(tuple(events), tuple(guards), body))
    core.edge_signals = list(seen_edges)
    return core
