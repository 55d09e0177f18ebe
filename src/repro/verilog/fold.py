"""Width-safe constant folding over literal subtrees.

The folder collapses an operator node whose operands are all
:class:`~repro.verilog.ast_nodes.Number` literals — the trees that
parameter materialization and the mid-end's constant propagation leave
behind — into a single literal, *without* changing observable width
semantics.

The subtlety is that the simulator evaluates context-determined
operands at the width of their *context*, not their self-determined
width (LRM §5.4): ``8'hFF + 8'h01`` is ``16'h100`` in a 16-bit context
but ``8'h00`` in an 8-bit one.  A literal produced by folding is
re-masked at whatever context it lands in, so a fold is only legal
when the folded value is identical at *every* context width the
original could be evaluated at.  The node is valued once by the
reference evaluator (:func:`~repro.verilog.width.const_value`) at its
own width and once at a context wide enough to hold its exact result;
it folds only where the two agree.

Signed literals are left alone entirely: signedness propagates upward
into comparison semantics, and replacing a signed subtree with an
unsigned literal would flip a parent comparison from signed to
unsigned.  x/z masks carry don't-care semantics (casez labels) that a
folded value would erase.
"""

from __future__ import annotations

from . import ast_nodes as ast
from .width import const_number, const_value

#: shifts by more than this read 0 at run time through the engines'
#: guard path; they are left for it
_SHIFT_GUARD = 4096
#: operators never folded, so the flat prints stay as they were (a
#: ``-(1'd0)`` would fold soundly)
_AS_WRITTEN = {ast.Unary: ("+", "-", "~"), ast.Binary: ("**",)}


def fold_expr(expr: ast.Expr) -> ast.Expr:
    """Fold *expr* if it is an all-literal operator node; otherwise
    return it.

    Designed as a ``map_expr`` callback: children are already folded
    when the parent is visited, so constant trees collapse bottom-up.
    An unsized fold stays unsized (and below 2^31, so reparsing and
    resizing cannot reinterpret it).
    """
    kind = type(expr)
    if kind is not ast.Binary and kind is not ast.Unary and kind is not ast.Ternary:
        return expr
    for operand in ast.expr_children(expr):
        if type(operand) is not ast.Number or operand.signed or operand.xz_mask:
            return expr
    if kind is not ast.Ternary and (
            expr.op in _AS_WRITTEN[kind] or kind is ast.Binary
            and expr.op[:2] in ("<<", ">>") and expr.right.value > _SHIFT_GUARD):
        return expr
    folded = const_number(expr)
    if folded is None or folded.signed:
        return expr
    if kind is ast.Ternary:  # the taken arm, where it is the node's width
        taken = expr.if_true if expr.cond.value else expr.if_false
        return taken if taken.width == folded.width else expr
    width = 32 if folded.width is None else folded.width
    # wide enough for any exact result: a product, a guarded shift
    if const_value(expr, 64 * width + _SHIFT_GUARD + 1) != folded.value:
        return expr
    if folded.width is None and folded.value >= 1 << 31:
        return expr
    return folded
