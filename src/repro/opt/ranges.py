"""Range facts: what a constant-bound loop and word arithmetic prove.

Pure functions, no rewriting.  The emitters ask them under the
``specialize`` licence and delete a runtime check only where the answer
proves it idle; "unknown" (``None``) is always legal and keeps the check.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

from ..verilog import ast_nodes as ast
from ..verilog.width import WidthEnv
from .ir import stmt_writes


def _atom(expr: ast.Expr, env: WidthEnv) -> Optional[int]:
    """A literal or parameter that reads the same at every width."""
    if isinstance(expr, ast.Number):
        value = expr.value
    elif isinstance(expr, ast.Identifier) and expr.name in env.params:
        value = env.params[expr.name]
    else:
        return None
    return value if 0 <= value < (1 << env.width_of(expr)) else None


def _is(expr: ast.Expr, name: str) -> bool:
    return isinstance(expr, ast.Identifier) and expr.name == name


def counted_loop(stmt: ast.For, env: WidthEnv,
                 max_trips: int) -> Optional[range]:
    """The values ``i`` takes in ``for (i = c0; i </<= c1; i = i + c)``.

    Refused unless the body never assigns ``i``, the trip count is at
    most *max_trips* (the iteration guard stays silent) and ``c1`` and
    every value of ``i``, the exit value included, lie below ``i``'s
    sign bit: no wrap, and signed and unsigned compares agree.
    """
    init, cond, step = stmt.init, stmt.cond, stmt.step
    if not (isinstance(init.lhs, ast.Identifier)
            and init.blocking and step.blocking):
        return None
    name = init.lhs.name
    sig = env.signals.get(name)
    if sig is None or sig.is_memory or not (
            _is(step.lhs, name) and isinstance(cond, ast.Binary)
            and cond.op in ("<", "<=") and _is(cond.left, name)
            and isinstance(step.rhs, ast.Binary) and step.rhs.op == "+"
            and _is(step.rhs.left, name)):
        return None
    first, last = _atom(init.rhs, env), _atom(cond.right, env)
    stride = _atom(step.rhs.right, env)
    if first is None or last is None or not stride:
        return None
    trips = range(first, last + (cond.op == "<="), stride)
    if (max(last, first + len(trips) * stride) >> (sig.width - 1)
            or len(trips) > max_trips or name in stmt_writes(stmt.body)):
        return None
    return trips


def interval(expr: ast.Expr, env: WidthEnv,
             bound: Mapping[str, range]) -> Optional[Tuple[int, int]]:
    """``(lo, hi)`` holding ``Evaluator._eval(expr, w)`` for every
    ``w >= env.width_of(expr)``, or ``None`` when that is not proved.

    *bound* maps each enclosing counted loop's variable to its range;
    any other signal is ``[0, 2^width - 1]``.  A sum or a difference is
    known only where the ``2^w`` wrap cannot occur.
    """
    if isinstance(expr, ast.Identifier) and expr.name in bound:
        trips = bound[expr.name]
        return (trips[0], trips[-1]) if trips else None
    value = _atom(expr, env)
    if value is not None:
        return value, value
    if isinstance(expr, ast.Identifier):
        sig = env.signals.get(expr.name)
        if sig is None or sig.is_memory:
            return None
    if isinstance(expr, (ast.Identifier, ast.Index, ast.RangeSelect)):
        return 0, (1 << env.width_of(expr)) - 1  # self-determined
    if not (isinstance(expr, ast.Binary) and expr.op in ("+", "-", "&", ">>")):
        return None
    left = interval(expr.left, env, bound)
    right = interval(expr.right, env, bound)
    if expr.op == "&":  # every value is a non-negative int, known or not
        tops = [side[1] for side in (left, right) if side is not None]
        return (0, min(tops)) if tops else None
    if left is None or right is None:
        return None
    if expr.op == "+":
        top = left[1] + right[1]
        return None if top >> env.width_of(expr) else (left[0] + right[0], top)
    if expr.op == "-":
        return None if left[0] < right[1] else (left[0] - right[1],
                                                left[1] - right[0])
    # a logical shift right; an amount above 4096 reads as zero
    return (0 if right[1] > 4096 else left[0] >> right[1],
            0 if right[0] > 4096 else left[1] >> right[0])
