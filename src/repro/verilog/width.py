"""Width/type inference, and the constants read through it.

Implements the Verilog-2005 expression sizing rules (§5.4 of the LRM) for
the 2-state subset: every expression has a *self-determined* width, and
operands of context-determined operators are evaluated at the maximum of
their self-determined width and the context width.  The interpreter and
the synthesis estimator both consume the :class:`WidthEnv` produced here.
A constant is a literal tree valued by the reference evaluator over a
scope of no signals (:func:`const_value`); nothing here has a table of
its own.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from . import ast_nodes as ast


class WidthError(Exception):
    """Raised when widths cannot be inferred (unknown name, bad select)."""


# Operators whose result width is max(left, right) and whose operands are
# context-determined.
_CONTEXT_BINOPS = frozenset(["+", "-", "*", "/", "%", "&", "|", "^", "^~", "~^"])
# Operators producing a single bit.
_BOOL_BINOPS = frozenset(["==", "!=", "===", "!==", "<", "<=", ">", ">=", "&&", "||"])
# Shifts and power: result width = left operand width.
_LEFT_BINOPS = frozenset(["<<", ">>", "<<<", ">>>", "**"])

_REDUCTION_OPS = frozenset(["&", "~&", "|", "~|", "^", "~^", "^~"])


def mask(value: int, width: int) -> int:
    """Truncate *value* to *width* bits (2-state semantics)."""
    return value & ((1 << width) - 1)


def to_signed(value: int, width: int) -> int:
    """Reinterpret an unsigned *width*-bit value as two's-complement."""
    if width <= 0:
        return 0
    sign_bit = 1 << (width - 1)
    return (value & (sign_bit - 1)) - (value & sign_bit)


def const_value(expr: ast.Expr, width: int = 0) -> Optional[int]:
    """*expr*'s value as the reference
    :class:`~repro.interp.eval_expr.Evaluator` gives it at *width* (its
    own width at least), or None where *expr* is not a literal tree.

    The one constant semantics (docs/ARCHITECTURE.md, "Constants"):
    parameters, ranges, folds and the emitters' constants all read it.
    """
    if isinstance(expr, ast.Number):  # most calls: a bare literal
        return mask(expr.value, max(32 if expr.width is None else expr.width, width))
    valued = _valued(expr, width)
    return None if valued is None else valued[0]


def const_number(expr: ast.Expr) -> Optional[ast.Number]:
    """Literal tree *expr* as one literal: its :func:`const_value` at its
    own width and signedness, unsized where it is 32 bits wide and holds
    no sized literal; None where *expr* is not a literal tree."""
    if isinstance(expr, ast.Number):
        return expr
    valued = _valued(expr, 0)
    if valued is None:
        return None
    value, width, signed = valued
    return ast.Number(value, None if width == 32 and _unsized(expr) else width, signed)


def const_eval(expr: ast.Expr) -> int:
    """The integer a range bound, memory dimension, replication count or
    ``+:`` width reads: :func:`const_number` of *expr*, as two's
    complement where it is signed or 32 bits wide (an ``integer``, or an
    unsized decimal, which the engines read unsigned), so ``reg [3:-4]``
    reads -4.  Raises :class:`WidthError` where *expr* is not constant.
    """
    num = const_number(expr)
    if num is None:
        raise WidthError(f"expression {expr!r} is not constant")
    width = 32 if num.width is None else num.width
    value = mask(num.value, width)
    return to_signed(value, width) if num.signed or width == 32 else value


def _valued(expr: ast.Expr, width: int) -> Optional[Tuple[int, int, bool]]:
    """``(value at width, own width, signed)`` of literal tree *expr*."""
    from ..interp.eval_expr import EvalError, Evaluator

    evaluator = Evaluator(_LITERALS, None)
    evaluator.plan = {}  # its own: no entry outlives the tree
    try:
        value = evaluator.eval(expr, width)
    except (WidthError, EvalError):
        return None
    entry = evaluator.entry(expr)
    return value, entry[1], entry[2]


def _unsized(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.Number):
        return expr.width is None
    return not isinstance(expr, ast.String) and all(map(_unsized, ast.expr_children(expr)))


class Signal:
    """Static description of one declared name in a module.

    ``width`` is the packed width; ``depth`` is the number of memory
    elements (``None`` for scalars); ``msb``/``lsb`` give the declared
    packed range for part-select arithmetic.
    """

    __slots__ = ("name", "kind", "width", "msb", "lsb", "depth", "base",
                 "signed", "direction", "non_volatile_attr", "init")

    def __init__(self, name: str, kind: str, width: int, msb: int, lsb: int,
                 depth: Optional[int] = None, base: int = 0, signed: bool = False,
                 direction: Optional[str] = None, non_volatile_attr: bool = False,
                 init: Optional[ast.Expr] = None):
        self.name = name
        self.kind = kind
        self.width = width
        self.msb = msb
        self.lsb = lsb
        self.depth = depth
        self.base = base            # lowest memory address
        self.signed = signed
        self.direction = direction
        self.non_volatile_attr = non_volatile_attr
        self.init = init

    @property
    def is_memory(self) -> bool:
        return self.depth is not None

    @property
    def is_state(self) -> bool:
        """Registers and integers hold state; wires do not."""
        return self.kind in ("reg", "integer")

    def bit_offset(self, index: int) -> int:
        """Map a declared bit index onto a 0-based offset."""
        if self.msb >= self.lsb:
            return index - self.lsb
        return self.lsb - index

    def __repr__(self) -> str:
        dims = f"[{self.msb}:{self.lsb}]" if self.width > 1 else ""
        mem = f" x{self.depth}" if self.is_memory else ""
        return f"<Signal {self.kind} {self.name}{dims}{mem}>"


class WidthEnv:
    """Symbol table mapping names to :class:`Signal` descriptions."""

    def __init__(self, module: ast.Module):
        self.module = module
        self.signals: Dict[str, Signal] = {}
        #: the interpreter's plan: ``id(node) -> entry`` (see
        #: :mod:`repro.interp.eval_expr`); rebuilt on use, never pickled
        self.plan: Dict[int, tuple] = {}
        self._build()

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "plan"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.plan = {}

    def _build(self) -> None:
        # Every net/variable declaration becomes a Signal; parameters are
        # literals once a module is flattened.
        for item in self.module.items:
            if not isinstance(item, ast.Decl) or item.kind == "genvar":
                continue
            if item.kind in ("parameter", "localparam"):
                raise WidthError(f"parameter {item.name}: elaborate first")
            msb, lsb = 0, 0
            if item.range is not None:
                msb = const_eval(item.range.msb)
                lsb = const_eval(item.range.lsb)
            width = abs(msb - lsb) + 1
            depth: Optional[int] = None
            base = 0
            if item.unpacked:
                if len(item.unpacked) > 1:
                    raise WidthError(
                        f"{item.name}: only single-dimension memories are supported"
                    )
                dim = item.unpacked[0]
                hi = const_eval(dim.msb)
                lo = const_eval(dim.lsb)
                depth = abs(hi - lo) + 1
                base = min(hi, lo)
            self.signals[item.name] = Signal(
                item.name, item.kind, width, msb, lsb, depth, base,
                item.signed, item.direction,
                item.has_attribute("non_volatile"), item.init,
            )

    def signal(self, name: str) -> Signal:
        try:
            return self.signals[name]
        except KeyError:
            raise WidthError(f"unknown identifier {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self.signals

    # -- expression sizing -------------------------------------------------

    def width_of(self, expr: ast.Expr) -> int:
        """Self-determined width of *expr* per LRM §5.4.1."""
        entry = self.plan.get(id(expr))
        if entry is not None:
            return entry[1]
        if isinstance(expr, ast.Number):
            return expr.width if expr.width is not None else 32
        if isinstance(expr, ast.String):
            return max(8, 8 * len(expr.value))
        if isinstance(expr, ast.Identifier):
            return self.signal(expr.name).width
        if isinstance(expr, ast.Index):
            sig = self.base_signal(expr.base)
            if sig is not None and sig.is_memory and isinstance(expr.base, ast.Identifier):
                return sig.width
            return 1
        if isinstance(expr, ast.RangeSelect):
            if expr.mode == ":":
                msb = const_eval(expr.msb)
                lsb = const_eval(expr.lsb)
                return abs(msb - lsb) + 1
            return const_eval(expr.lsb)  # +: / -: width operand
        if isinstance(expr, ast.Concat):
            return sum(self.width_of(p) for p in expr.parts)
        if isinstance(expr, ast.Repeat):
            return const_eval(expr.count) * self.width_of(expr.value)
        if isinstance(expr, ast.Unary):
            if expr.op in ("!",) or expr.op in _REDUCTION_OPS:
                return 1
            return self.width_of(expr.operand)
        if isinstance(expr, ast.Binary):
            if expr.op in _BOOL_BINOPS:
                return 1
            if expr.op in _LEFT_BINOPS:
                return self.width_of(expr.left)
            return max(self.width_of(expr.left), self.width_of(expr.right))
        if isinstance(expr, ast.Ternary):
            return max(self.width_of(expr.if_true), self.width_of(expr.if_false))
        if isinstance(expr, ast.SysCall):
            return _SYSFUNC_WIDTHS.get(expr.name, 32) if expr.name != "$signed" \
                and expr.name != "$unsigned" else self.width_of(expr.args[0])
        raise WidthError(f"cannot size expression {type(expr).__name__}")

    def base_signal(self, expr: ast.Expr) -> Optional[Signal]:
        if isinstance(expr, ast.Identifier):
            return self.signals.get(expr.name)
        return None

    def is_signed(self, expr: ast.Expr) -> bool:
        """Best-effort signedness (2-state subset: explicit only)."""
        entry = self.plan.get(id(expr))
        if entry is not None:
            return entry[2]
        if isinstance(expr, ast.Number):
            return expr.signed
        if isinstance(expr, ast.Identifier):
            sig = self.signals.get(expr.name)
            return bool(sig and sig.signed)
        if isinstance(expr, ast.SysCall) and expr.name == "$signed":
            return True
        if isinstance(expr, ast.Unary) and expr.op in ("-", "~", "+"):
            return self.is_signed(expr.operand)
        if isinstance(expr, ast.Binary) and expr.op in _CONTEXT_BINOPS:
            return self.is_signed(expr.left) and self.is_signed(expr.right)
        if isinstance(expr, ast.Ternary):
            return self.is_signed(expr.if_true) and self.is_signed(expr.if_false)
        return False


_SYSFUNC_WIDTHS = {
    "$time": 64,
    "$random": 32,
    "$urandom": 32,
    "$feof": 32,
    "$fopen": 32,
    "$fgetc": 32,
    "$clog2": 32,
    "$stime": 32,
}

#: the scope of a literal tree: no signal
_LITERALS = WidthEnv(ast.Module("", (), ()))
