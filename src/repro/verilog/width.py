"""Width/type inference and constant evaluation.

Implements the Verilog-2005 expression sizing rules (§5.4 of the LRM) for
the 2-state subset: every expression has a *self-determined* width, and
operands of context-determined operators are evaluated at the maximum of
their self-determined width and the context width.  The interpreter and
the synthesis estimator both consume the :class:`WidthEnv` produced here.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

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


def const_eval(expr: ast.Expr, params: Optional[Mapping[str, int]] = None) -> int:
    """Evaluate a constant expression (parameters allowed via *params*).

    Used for ranges, memory dimensions, parameter values, replication
    counts and case label matching.  Raises :class:`WidthError` when the
    expression is not constant.
    """
    params = params or {}
    if isinstance(expr, ast.Number):
        return expr.value
    if isinstance(expr, ast.Identifier):
        if expr.name in params:
            return params[expr.name]
        raise WidthError(f"identifier {expr.name!r} is not a constant")
    if isinstance(expr, ast.Unary):
        val = const_eval(expr.operand, params)
        if expr.op == "-":
            return -val
        if expr.op == "~":
            return ~val
        if expr.op == "!":
            return 0 if val else 1
        if expr.op == "&":
            return 1 if val == -1 else 0  # best effort on unsized constants
        if expr.op == "|":
            return 1 if val != 0 else 0
        raise WidthError(f"unary {expr.op!r} not supported in constant context")
    if isinstance(expr, ast.Binary):
        left = const_eval(expr.left, params)
        right = const_eval(expr.right, params)
        table = {
            "+": lambda: left + right,
            "-": lambda: left - right,
            "*": lambda: left * right,
            "/": lambda: left // right if right else 0,
            "%": lambda: left % right if right else 0,
            "**": lambda: left ** right,
            "&": lambda: left & right,
            "|": lambda: left | right,
            "^": lambda: left ^ right,
            "<<": lambda: left << right,
            ">>": lambda: left >> right,
            "<<<": lambda: left << right,
            ">>>": lambda: left >> right,
            "==": lambda: int(left == right),
            "!=": lambda: int(left != right),
            "===": lambda: int(left == right),
            "!==": lambda: int(left != right),
            "<": lambda: int(left < right),
            "<=": lambda: int(left <= right),
            ">": lambda: int(left > right),
            ">=": lambda: int(left >= right),
            "&&": lambda: int(bool(left) and bool(right)),
            "||": lambda: int(bool(left) or bool(right)),
        }
        if expr.op not in table:
            raise WidthError(f"binary {expr.op!r} not supported in constant context")
        return table[expr.op]()
    if isinstance(expr, ast.Ternary):
        return (
            const_eval(expr.if_true, params)
            if const_eval(expr.cond, params)
            else const_eval(expr.if_false, params)
        )
    if isinstance(expr, ast.SysCall) and expr.name == "$clog2" and len(expr.args) == 1:
        val = const_eval(expr.args[0], params)
        return max(0, (val - 1).bit_length())
    raise WidthError(f"expression {expr!r} is not constant")


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

    def __init__(self, module: ast.Module, params: Optional[Mapping[str, int]] = None):
        self.module = module
        self.params: Dict[str, int] = dict(params or {})
        self.signals: Dict[str, Signal] = {}
        self._build()

    def _build(self) -> None:
        # First pass: resolve parameters/localparams in order.
        for item in self.module.items:
            if isinstance(item, ast.Decl) and item.kind in ("parameter", "localparam"):
                if item.name not in self.params:
                    if item.init is None:
                        raise WidthError(f"parameter {item.name} has no value")
                    self.params[item.name] = const_eval(item.init, self.params)
        # Second pass: every net/variable declaration becomes a Signal.
        for item in self.module.items:
            if not isinstance(item, ast.Decl):
                continue
            if item.kind in ("parameter", "localparam", "genvar"):
                continue
            msb, lsb = 0, 0
            if item.range is not None:
                msb = const_eval(item.range.msb, self.params)
                lsb = const_eval(item.range.lsb, self.params)
            width = abs(msb - lsb) + 1
            depth: Optional[int] = None
            base = 0
            if item.unpacked:
                if len(item.unpacked) > 1:
                    raise WidthError(
                        f"{item.name}: only single-dimension memories are supported"
                    )
                dim = item.unpacked[0]
                hi = const_eval(dim.msb, self.params)
                lo = const_eval(dim.lsb, self.params)
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
        return name in self.signals or name in self.params

    # -- expression sizing -------------------------------------------------

    def width_of(self, expr: ast.Expr) -> int:
        """Self-determined width of *expr* per LRM §5.4.1."""
        if isinstance(expr, ast.Number):
            return expr.width if expr.width is not None else 32
        if isinstance(expr, ast.String):
            return max(8, 8 * len(expr.value))
        if isinstance(expr, ast.Identifier):
            if expr.name in self.params:
                return 32
            return self.signal(expr.name).width
        if isinstance(expr, ast.Index):
            sig = self.base_signal(expr.base)
            if sig is not None and sig.is_memory and isinstance(expr.base, ast.Identifier):
                return sig.width
            return 1
        if isinstance(expr, ast.RangeSelect):
            if expr.mode == ":":
                msb = const_eval(expr.msb, self.params)
                lsb = const_eval(expr.lsb, self.params)
                return abs(msb - lsb) + 1
            return const_eval(expr.lsb, self.params)  # +: / -: width operand
        if isinstance(expr, ast.Concat):
            return sum(self.width_of(p) for p in expr.parts)
        if isinstance(expr, ast.Repeat):
            return const_eval(expr.count, self.params) * self.width_of(expr.value)
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
