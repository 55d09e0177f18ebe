"""Expression evaluation and lvalue assignment over a :class:`Store`.

Implements Verilog-2005 sizing semantics for the 2-state subset: every
operand of a context-determined operator is evaluated at the expression's
final width, so carries and wraparound behave exactly as they would in a
hardware netlist of that width.

A node is resolved once per :class:`WidthEnv`, on first use, into a
*plan entry* ``(fn, width, signed, node, pure, ...)`` in ``env.plan``
under ``id(node)``: the method for its type and operator, its
self-determined width and signedness, the node (keeping its id), whether
evaluating it has no side effect, then the method's operand entries and
constants.
"""

from __future__ import annotations

import operator

from ..opt.ir import PURE_SYSFUNCS
from ..verilog import ast_nodes as ast
from ..verilog.width import WidthEnv, const_eval, to_signed


class EvalError(Exception):
    """Raised when an expression cannot be evaluated."""


_REDUCE = {  # ! and the reductions: (operand value, its all-ones) -> bit
    "!": lambda v, ones: int(v == 0), "~|": lambda v, ones: int(v == 0),
    "|": lambda v, ones: int(v != 0), "&": lambda v, ones: int(v == ones),
    "~&": lambda v, ones: int(v != ones),
    "^": lambda v, ones: bin(v).count("1") & 1,
    "~^": lambda v, ones: (bin(v).count("1") & 1) ^ 1,
    "^~": lambda v, ones: (bin(v).count("1") & 1) ^ 1,
}
_COMPARE = {
    "==": operator.eq, "!=": operator.ne, "===": operator.eq,
    "!==": operator.ne, "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "~^": lambda a, b: ~(a ^ b), "^~": lambda a, b: ~(a ^ b)}
_BITWISE = {"&": operator.and_, "|": operator.or_, "^": operator.xor}


class Evaluator:
    """Evaluates expressions and applies assignments for one module."""

    def __init__(self, env: WidthEnv, store):
        self.env = env
        self.store = store
        self.plan = env.plan

    # -- evaluation -------------------------------------------------------

    def eval(self, expr: ast.Expr, context_width: int = 0) -> int:
        """Evaluate *expr*; result is masked to max(self, context) width."""
        e = self.plan.get(id(expr)) or self.entry(expr)
        return e[0](self, e, e[1] if e[1] > context_width else context_width)

    def eval_bool(self, expr: ast.Expr) -> bool:
        """Evaluate *expr* for truthiness (self-determined width)."""
        e = self.plan.get(id(expr)) or self.entry(expr)
        return e[0](self, e, e[1]) != 0

    def _eval(self, expr: ast.Expr, width: int) -> int:
        e = self.plan.get(id(expr)) or self.entry(expr)
        return e[0](self, e, width)

    def entry(self, expr: ast.Expr) -> tuple:
        """The plan entry of *expr*, resolved on its first use."""
        e = self.plan.get(id(expr))
        if e is None:
            e = self.plan[id(expr)] = self._resolve(expr)
        return e

    def _resolve(self, node: ast.Expr) -> tuple:
        env, E, sub = self.env, Evaluator, self.entry
        kids, extra = (), ()
        if isinstance(node, ast.Number):  # leaves: most nodes, sized as width_of does
            width = 32 if node.width is None else node.width
            return E._number, width, node.signed, node, True, node.value
        if isinstance(node, ast.Identifier):
            if node.name in env.params:
                return E._const, 32, False, node, True, env.params[node.name]
            sig = env.signal(node.name)
            if sig.is_memory:
                return E._fail, sig.width, sig.signed, node, True, \
                    f"memory {node.name!r} used without an index"
            return E._signal, sig.width, sig.signed, node, True, node.name
        if isinstance(node, ast.String):
            value = 0
            for ch in node.value:
                value = (value << 8) | ord(ch)
            fn, extra = E._const, (value,)
        elif isinstance(node, ast.Index):
            if not isinstance(node.base, ast.Identifier):
                fn, kids = E._bit_of, (sub(node.base), sub(node.index))
            else:
                sig = env.signal(node.base.name)
                fn = E._word if sig.is_memory else E._bit
                kids, extra = (sub(node.index),), (sig,)
        elif isinstance(node, ast.RangeSelect):
            sig, kids = env.base_signal(node.base), (sub(node.base),)
            if node.mode == ":":
                msb = const_eval(node.msb, env.params)
                lsb = const_eval(node.lsb, env.params)
                low_index = lsb if (sig is None or sig.msb >= sig.lsb) else msb
                low = sig.bit_offset(low_index) if sig is not None else min(msb, lsb)
                fn, extra = E._part, (low, (1 << (abs(msb - lsb) + 1)) - 1)
            else:
                fn, kids = E._indexed_part, kids + (sub(node.msb),)
                extra = (const_eval(node.lsb, env.params), node.mode == "-:", sig)
        elif isinstance(node, ast.Concat):
            fn, kids = E._concat, tuple(sub(p) for p in node.parts)
        elif isinstance(node, ast.Repeat):
            fn, kids = E._repeat, (sub(node.value),)
            extra = (const_eval(node.count, env.params),)
        elif isinstance(node, ast.Unary):
            kids, op = (sub(node.operand),), node.op
            if op in _REDUCE:
                fn, extra = E._reduce, (_REDUCE[op],)
            elif op in ("~", "-"):
                fn, extra = E._unary, (operator.invert if op == "~" else operator.neg,)
            else:
                fn, kids, extra = E._fail, (), (f"unknown unary operator {op!r}",)
        elif isinstance(node, ast.Binary):
            kids = (left, right) = (sub(node.left), sub(node.right))
            op, signed = node.op, left[2] and right[2]
            if op in _COMPARE:
                fn, extra = E._compare, (max(left[1], right[1]), signed, _COMPARE[op])
            elif op in ("&&", "||"):
                fn, extra = E._logic, (op == "&&",)
            elif op in ("<<", "<<<", ">>", ">>>", "**"):
                fn, extra = E._shift, (">>>" if op == ">>>" and left[2] else op[:2],)
            elif op in _ARITH or op in _BITWISE:
                fn = E._arith if op in _ARITH else E._bitwise
                extra = (_ARITH.get(op) or _BITWISE[op],)
            elif op in ("/", "%"):
                fn, extra = E._divide, (signed, op == "%")
            else:
                fn, kids, extra = E._fail, (), (f"unknown binary operator {op!r}",)
        elif isinstance(node, ast.Ternary):
            fn, kids = E._ternary, (sub(node.cond), sub(node.if_true), sub(node.if_false))
        elif isinstance(node, ast.SysCall):
            kids = tuple(sub(arg) for arg in node.args)
            fn = E._cast if node.name in ("$signed", "$unsigned") else E._sysfunc
        else:
            raise EvalError(f"cannot evaluate {type(node).__name__}")
        pure = (all(kid[4] for kid in kids) and not (
            isinstance(node, ast.SysCall) and node.name not in PURE_SYSFUNCS))
        return (fn, env.width_of(node), env.is_signed(node), node, pure) + kids + extra

    # -- entry methods: fn(self, entry, width) -> value ------------------------
    # entry: (fn, width, signed, node, pure, operands and constants...)

    def _number(self, e, w):
        return e[5] & ((1 << w) - 1) if w else e[5]

    def _const(self, e, w):  # a string or a parameter
        return e[5] & ((1 << w) - 1)

    def _signal(self, e, w):
        return self.store.get(e[5]) & ((1 << w) - 1)

    def _fail(self, e, w):
        raise EvalError(e[5])

    def _word(self, e, w):  # mem[i]
        i = e[5]
        return self.store.mem_get(e[6].name, i[0](self, i, i[1])) & ((1 << w) - 1)

    def _bit(self, e, w):  # sig[i]
        i, sig = e[5], e[6]
        offset = sig.bit_offset(i[0](self, i, i[1]))
        if offset < 0 or offset >= sig.width:
            return 0
        return (self.store.get(sig.name) >> offset) & 1 & ((1 << w) - 1)

    def _bit_of(self, e, w):  # (expr)[i]
        b, i = e[5], e[6]
        base = b[0](self, b, b[1])
        return (base >> i[0](self, i, i[1])) & 1 & ((1 << w) - 1)

    def _part(self, e, w):  # [msb:lsb]
        b, low = e[5], e[6]
        base = b[0](self, b, b[1])
        return (base >> low) & e[7] & ((1 << w) - 1) if low >= 0 else 0

    def _indexed_part(self, e, w):
        b, s = e[5], e[6]
        base = b[0](self, b, b[1])
        low = self._low(e, s[0](self, s, s[1]))
        return (base >> low) & ((1 << e[7]) - 1) & ((1 << w) - 1) if low >= 0 else 0

    @staticmethod
    def _low(e: tuple, start: int) -> int:  # of [start +: k] / [start -: k]
        if e[8]:
            start -= e[7] - 1
        return e[9].bit_offset(start) if e[9] is not None else start

    def _concat(self, e, w):
        value = 0
        for p in e[5:]:
            value = (value << p[1]) | p[0](self, p, p[1])
        return value & ((1 << w) - 1)

    def _repeat(self, e, w):
        u = e[5]
        unit = u[0](self, u, u[1])
        value = 0
        for _ in range(e[6]):
            value = (value << u[1]) | unit
        return value & ((1 << w) - 1)

    def _reduce(self, e, w):
        o = e[5]
        return e[6](o[0](self, o, o[1]), (1 << o[1]) - 1)

    def _unary(self, e, w):  # ~ and -
        o = e[5]
        return e[6](o[0](self, o, w)) & ((1 << w) - 1)

    def _logic(self, e, w):  # && and ||: the right operand only if it decides
        l, r, is_and = e[5], e[6], e[7]
        if (l[0](self, l, l[1]) != 0) is not is_and:
            return 0 if is_and else 1
        return 1 if r[0](self, r, r[1]) else 0

    def _compare(self, e, w):
        l, r, cw = e[5], e[6], e[7]
        left, right = l[0](self, l, cw), r[0](self, r, cw)
        if e[8]:
            left, right = to_signed(left, cw), to_signed(right, cw)
        return 1 if e[9](left, right) else 0

    def _shift(self, e, w):  # and **: the right operand at its own width
        l, r, kind = e[5], e[6], e[7]
        left = l[0](self, l, w)
        shift = r[0](self, r, r[1])
        if kind == "**":
            return pow(left, min(shift, 64), 1 << max(w, 1)) & ((1 << w) - 1)
        if shift > 4096:
            return 0
        if kind == "<<":
            return (left << shift) & ((1 << w) - 1)
        if kind == ">>>":  # a signed left operand
            return (to_signed(left, w) >> shift) & ((1 << w) - 1)
        return left >> shift

    def _arith(self, e, w):
        l, r = e[5], e[6]
        return e[7](l[0](self, l, w), r[0](self, r, w)) & ((1 << w) - 1)

    def _bitwise(self, e, w):  # & | ^ of operands already at the width
        l, r = e[5], e[6]
        return e[7](l[0](self, l, w), r[0](self, r, w))

    def _divide(self, e, w):
        l, r, is_mod = e[5], e[6], e[8]
        left, right = l[0](self, l, w), r[0](self, r, w)
        if right == 0:
            return (1 << w) - 1  # x in 4-state; all-ones here
        if not e[7]:
            return left % right if is_mod else left // right
        sl, sr = to_signed(left, w), to_signed(right, w)
        return (sl - sr * int(sl / sr) if is_mod else int(sl / sr)) & ((1 << w) - 1)

    def _ternary(self, e, w):
        c = e[5]
        arm = e[6] if c[0](self, c, c[1]) else e[7]
        return arm[0](self, arm, w)

    def _cast(self, e, w):  # $signed / $unsigned
        a = e[5]
        return a[0](self, a, w)

    def _sysfunc(self, e, w):
        return self.sysfunc(e[3], w) & ((1 << w) - 1)

    def sysfunc(self, expr: ast.SysCall, width: int) -> int:
        """The value of system function *expr*: an engine's
        :class:`~repro.interp.simulator.Reference` answers; a bare
        evaluator has no runtime to ask."""
        raise EvalError(f"system function {expr.name} needs a runtime handler")

    # -- assignment ----------------------------------------------------------

    def assign(self, lhs: ast.Expr, value: int, notify: bool = True) -> bool:
        """Write *value* into lvalue *lhs*; returns True on change.  A
        later part of a concatenation sees what an earlier part wrote."""
        if isinstance(lhs, ast.Identifier):
            return self.store.set(lhs.name, value, notify)
        if isinstance(lhs, ast.Concat):
            return any([self.assign(lhs.parts[k], bits, notify)
                        for k, bits in self._split(lhs, value)])
        return self.write(self.target(lhs), value, notify)

    def target(self, lhs: ast.Expr) -> tuple:
        """``(lhs, index)``: LRM §9.2.2, an NBA evaluates its lvalue index
        when it executes, as the hardware transform's ``__wa`` captures
        do; only the :meth:`write` waits."""
        if isinstance(lhs, ast.Concat):
            return lhs, tuple(self.target(p) for p in lhs.parts)
        if isinstance(lhs, ast.Identifier):
            return lhs, None
        if not isinstance(getattr(lhs, "base", None), ast.Identifier):
            raise EvalError(f"invalid lvalue {type(lhs).__name__} "
                            "(a nested select is not supported)")
        if isinstance(lhs, ast.RangeSelect) and lhs.mode == ":":
            return lhs, None
        index = lhs.index if isinstance(lhs, ast.Index) else lhs.msb
        return lhs, self.eval(index)

    def apply(self, entry: tuple) -> None:
        """Apply a queued ``(applier, target, value)`` NBA entry."""
        self.write(entry[1], entry[2])

    def write(self, target: tuple, value: int, notify: bool = True) -> bool:
        """Apply *value* to a :meth:`target`; returns True on change."""
        lhs, at = target
        store = self.store
        if isinstance(lhs, ast.Identifier):
            return store.set(lhs.name, value, notify)
        if isinstance(lhs, ast.Concat):
            return any([self.write(at[k], bits, notify)
                        for k, bits in self._split(lhs, value)])
        sig = self.env.signal(lhs.base.name)
        if isinstance(lhs, ast.Index):
            if sig.is_memory:
                return store.mem_set(sig.name, at, value, notify)
            low, field = sig.bit_offset(at), 1
            if low >= sig.width:
                return False
        elif at is None:
            low, field = self.entry(lhs)[6:8]
        else:
            e = self.entry(lhs)
            low, field = self._low(e, at), (1 << e[7]) - 1
        if low < 0:
            return False
        field <<= low
        return store.set(sig.name, (store.get(sig.name) & ~field)
                         | ((value << low) & field), notify)

    def _split(self, lhs: ast.Concat, value: int):
        """``(k, bits)``: the slice of *value* for each part of *lhs*."""
        shift = self.entry(lhs)[1]
        for k, part in enumerate(lhs.parts):
            part_width = self.entry(part)[1]
            shift -= part_width
            yield k, (value >> shift) & ((1 << part_width) - 1)
