"""Batched vectorized backend: one compiled program over N tenant lanes.

The hypervisor's steady state is many tenants of one design: the
artifact store already shares a single :class:`CompiledModuleCode`
between them, but each engine still advances one Python dispatch per
tenant per tick.  This module adds the next sharing level — *execution*
— by compiling the module once into NumPy closures over a
``(n_scalars, N)`` uint64 state matrix, so one dispatch advances the
whole cohort.

Licensing.  Vectorization piggybacks on the mid-end's two-state
specialization: a module qualifies only when schedule analysis grants
``vector_licensed`` (x/z-free, a small acyclic combinational cone,
every edge process on one bare clock) and every declared width fits a
64-bit lane.  The verdict is analysis, not a property of either scalar
configuration, so the closures build against whichever code artifact
the caller already holds.  Anything else — or any construct outside
the vector subset ($random, file I/O, ...) — raises
:class:`BatchUnsupported` and the caller falls back to the scalar
compiled backend on that same artifact, keeping behavior identical by
construction.

Divergence.  Lanes may disagree on ``if``/``case`` arms, ``$display``
arguments and ``$finish`` ticks.  Control flow is handled by boolean
lane masks (both arms execute, each over its own disjoint mask — sound
because all state is per-lane), output tasks drop to a per-lane loop
over the active mask, and ``$finish`` clears the lane's ``alive`` bit
so every subsequent statement, NBA latch and time increment ignores it
exactly like the scalar engine's ``FinishSignal`` abort.

Equivalence contract.  Every closure mirrors one clause of
:class:`~repro.interp.eval_expr.Evaluator` / the scalar inline tick in
``compile/simulator.py`` — including the quirks (shift>4096 → 0,
division by zero → all-ones, float-truncating signed division, the
64-iteration exponent clamp).  The differential fuzz oracle runs this
backend as its own lane to keep that contract honest.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, Iterable, List, Optional, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised via monkeypatching
    np = None

from ...verilog import ast_nodes as ast
from ...verilog.width import WidthError, const_eval, mask, to_signed
from ..eval_expr import EvalError, Evaluator
from ..simulator import (
    _MAX_LOOP_ITERATIONS,
    _MAX_SETTLE_ROUNDS,
    InterpSimulator,
    SimulationError,
)
from ..systasks import TaskHost, verilog_format
from .simulator import CompiledModuleCode, CompiledSimulator

HAVE_NUMPY = np is not None

_NUMPY_HINT = (
    "backend='batched' requires NumPy; install the optional extra with "
    "`pip install -e .[batch]` or select a scalar backend"
)


class UnsupportedBackend(RuntimeError):
    """``backend='batched'`` was requested but NumPy is unavailable."""


class BatchUnsupported(Exception):
    """The module falls outside the vectorized subset (use scalar)."""


if HAVE_NUMPY:
    _U0 = np.uint64(0)
    _U1 = np.uint64(1)
    _U63 = np.uint64(63)
    _U64 = np.uint64(64)
    _U4096 = np.uint64(4096)
    _UFULL = np.uint64(0xFFFFFFFFFFFFFFFF)
    _HAVE_BITCOUNT = hasattr(np, "bitwise_count")


def _umask(width: int):
    return np.uint64(mask(-1, width))


def _as_lanes(st: "BatchedCohort", value):
    """View *value* as a full (N,) uint64 vector (broadcast, read-only)."""
    arr = np.asarray(value, dtype=np.uint64)
    if arr.ndim == 0:
        return np.broadcast_to(arr, (st.n,))
    return arr


def _own(st: "BatchedCohort", value):
    """Materialize *value* as an owned, writable (N,) uint64 copy."""
    arr = np.asarray(value, dtype=np.uint64)
    if arr.ndim == 0:
        return np.full(st.n, arr, dtype=np.uint64)
    return arr.copy()


def _live(st: "BatchedCohort", m):
    """Mask *m* down to live lanes; ``None`` when no lane is active.

    The per-statement ``& alive`` guards against a masked ``$finish``
    earlier in the same dispatch.  Callers never dispatch an empty
    mask, and any ``$finish`` flips ``alive_all`` off, so while every
    lane is alive the re-and and its two reductions are pure overhead
    — the hot path for big cohorts — and are skipped.
    """
    if st.alive_all:
        return m
    am = m & st.alive
    return am if am.any() else None


def _to_signed_fn(width: int):
    """Vector mirror of ``to_signed``: uint64 → int64 two's complement."""
    if width >= 64:
        return lambda v: np.asarray(v, dtype=np.uint64).astype(np.int64)
    high = np.int64(1 << (width - 1))
    low = np.int64((1 << (width - 1)) - 1)

    def signed(v):
        sv = np.asarray(v, dtype=np.uint64).astype(np.int64)
        return (sv & low) - (sv & high)

    return signed


class _VectorCompiler:
    """Compiles expressions/statements into closures over a cohort.

    Expression closures take the cohort and return a uint64 scalar
    (constants) or (N,) vector; statement closures take the cohort and
    a boolean lane mask.  Width resolution copies the scalar
    :class:`Evaluator` clause for clause; any construct or width the
    vector subset cannot express raises :class:`BatchUnsupported`.
    """

    def __init__(self, code: CompiledModuleCode):
        self.code = code
        self.env = code.env
        self.layout = code.layout
        self.comb_in = code.comb_in
        self.trig_slots = set(code.trig_slots)

    # -- expression entry points -------------------------------------------

    def expr_ctx(self, expr: ast.Expr, context_width: int):
        """Mirror ``Evaluator.eval``: widen to the context."""
        return self._expr(expr, max(self.env.width_of(expr), context_width))

    def expr_self(self, expr: ast.Expr):
        """Mirror ``Evaluator.eval(expr)`` with no context (self width)."""
        return self._expr(expr, self.env.width_of(expr))

    def expr_bool(self, expr: ast.Expr):
        """Mirror ``Evaluator.eval_bool``: nonzero at self width."""
        vf = self.expr_self(expr)
        return lambda st: vf(st) != _U0

    # -- expression dispatch -----------------------------------------------

    def _expr(self, expr: ast.Expr, width: int):
        if width < 1 or width > 64:
            raise BatchUnsupported(
                f"expression width {width} outside the 64-bit lane word")
        if isinstance(expr, ast.Number):
            value = np.uint64(mask(expr.value, width))
            return lambda st: value
        if isinstance(expr, ast.String):
            packed = 0
            for ch in expr.value:
                packed = (packed << 8) | ord(ch)
            value = np.uint64(mask(packed, width))
            return lambda st: value
        if isinstance(expr, ast.Identifier):
            return self._expr_identifier(expr, width)
        if isinstance(expr, ast.Index):
            return self._expr_index(expr)
        if isinstance(expr, ast.RangeSelect):
            return self._expr_range(expr)
        if isinstance(expr, ast.Concat):
            return self._expr_concat(expr)
        if isinstance(expr, ast.Repeat):
            return self._expr_repeat(expr)
        if isinstance(expr, ast.Unary):
            return self._expr_unary(expr, width)
        if isinstance(expr, ast.Binary):
            return self._expr_binary(expr, width)
        if isinstance(expr, ast.Ternary):
            cf = self.expr_bool(expr.cond)
            tf = self._expr(expr.if_true, width)
            ff = self._expr(expr.if_false, width)
            # Both arms evaluate (pure under licensing); the scalar
            # evaluator picks one lazily — same values either way.
            return lambda st: np.where(cf(st), tf(st), ff(st))
        if isinstance(expr, ast.SysCall):
            return self._expr_syscall(expr, width)
        raise BatchUnsupported(f"cannot vectorize {type(expr).__name__}")

    def _expr_identifier(self, expr: ast.Identifier, width: int):
        name = expr.name
        slot = self.layout.slot_of.get(name)
        if slot is not None:
            # Stored values are already masked at the declared width and
            # width >= width_of(expr) here, so no extra mask is needed.
            return lambda st: st.d[slot]
        if name in self.env.params:
            value = np.uint64(mask(self.env.params[name], width))
            return lambda st: value
        raise BatchUnsupported(f"cannot vectorize read of {name!r}")

    def _expr_index(self, expr: ast.Index):
        if not isinstance(expr.base, ast.Identifier):
            bf = self.expr_self(expr.base)
            idxf = self.expr_self(expr.index)

            def bit_of_value(st):
                base = bf(st)
                idx = _as_lanes(st, idxf(st))
                clamped = np.minimum(idx, _U63)
                return np.where(idx > _U63, _U0, (base >> clamped) & _U1)

            return bit_of_value
        sig = self.env.signals.get(expr.base.name)
        if sig is None:
            raise BatchUnsupported(f"index into unknown {expr.base.name!r}")
        idxf = self.expr_self(expr.index)
        if sig.is_memory:
            name = sig.name
            base_addr, _, _, depth = self.layout.mem_specs[name]
            baseu = np.uint64(base_addr)
            endu = np.uint64(base_addr + depth)

            def mem_read(st):
                idx = _as_lanes(st, idxf(st))
                valid = (idx >= baseu) & (idx < endu)
                safe = np.where(valid, idx - baseu, _U0).astype(np.intp)
                return np.where(valid, st.mems[name][st.lanes, safe], _U0)

            return mem_read
        slot = self.layout.slot_of[sig.name]
        lsb = np.int64(sig.lsb)
        sig_width = np.int64(sig.width)
        ascending = sig.msb >= sig.lsb

        def bit_read(st):
            iv = _as_lanes(st, idxf(st)).astype(np.int64)
            off = (iv - lsb) if ascending else (lsb - iv)
            valid = (off >= 0) & (off < sig_width)
            offu = np.where(valid, off, 0).astype(np.uint64)
            return np.where(valid, (st.d[slot] >> offu) & _U1, _U0)

        return bit_read

    def _range_bounds_const(self, expr: ast.RangeSelect):
        """Mirror ``Evaluator._range_bounds`` for the constant ':' mode."""
        sig = None
        if isinstance(expr.base, ast.Identifier):
            sig = self.env.signals.get(expr.base.name)
        msb = const_eval(expr.msb, self.env.params)
        lsb = const_eval(expr.lsb, self.env.params)
        sel_width = abs(msb - lsb) + 1
        low_index = lsb if (sig is None or sig.msb >= sig.lsb) else msb
        low = sig.bit_offset(low_index) if sig is not None else min(msb, lsb)
        return low, sel_width

    def _expr_range(self, expr: ast.RangeSelect):
        bf = self.expr_self(expr.base)
        if expr.mode == ":":
            low, sel_width = self._range_bounds_const(expr)
            if sel_width < 1 or sel_width > 64:
                raise BatchUnsupported(f"range width {sel_width} > 64")
            if low < 0 or low >= 64:
                return lambda st: _U0
            smask = _umask(sel_width)
            if low == 0:
                return lambda st: bf(st) & smask
            lowu = np.uint64(low)
            return lambda st: (bf(st) >> lowu) & smask
        # "+:" / "-:" — dynamic start, constant width.
        startf = self.expr_self(expr.msb)
        sel_width = const_eval(expr.lsb, self.env.params)
        if sel_width < 1 or sel_width > 64:
            raise BatchUnsupported(f"range width {sel_width} > 64")
        smask = _umask(sel_width)
        sig = None
        if isinstance(expr.base, ast.Identifier):
            sig = self.env.signals.get(expr.base.name)
        ascending = sig is None or sig.msb >= sig.lsb
        lsb = np.int64(sig.lsb if sig is not None else 0)
        minus = expr.mode == "-:"
        span = np.int64(sel_width - 1)

        def range_read(st):
            iv = _as_lanes(st, startf(st)).astype(np.int64)
            li = (iv - span) if minus else iv
            low = (li - lsb) if ascending else (lsb - li)
            valid = (low >= 0) & (low < 64)
            if not ascending:
                # int64 wrap of a huge unsigned start must stay
                # out-of-range, as the scalar big-int math has it.
                valid = valid & (iv >= 0)
            lowu = np.where(valid, low, 0).astype(np.uint64)
            return np.where(valid, (bf(st) >> lowu) & smask, _U0)

        return range_read

    def _expr_concat(self, expr: ast.Concat):
        parts = [(self.expr_self(p), self.env.width_of(p))
                 for p in expr.parts]
        total = sum(pw for _, pw in parts)
        if total > 64:
            raise BatchUnsupported(f"concat width {total} > 64")
        if not parts:
            raise BatchUnsupported("empty concatenation")

        def concat(st):
            fn0, _ = parts[0]
            value = fn0(st)
            for fn, pw in parts[1:]:
                value = (value << np.uint64(pw)) | fn(st)
            return value

        return concat

    def _expr_repeat(self, expr: ast.Repeat):
        count = const_eval(expr.count, self.env.params)
        unit_width = self.env.width_of(expr.value)
        if count * unit_width > 64:
            raise BatchUnsupported(f"repeat width {count * unit_width} > 64")
        if count <= 0:
            return lambda st: _U0
        uf = self.expr_self(expr.value)
        if count == 1:
            return uf
        shift = np.uint64(unit_width)

        def repeat(st):
            unit = uf(st)
            value = unit
            for _ in range(count - 1):
                value = (value << shift) | unit
            return value

        return repeat

    def _expr_unary(self, expr: ast.Unary, width: int):
        op = expr.op
        if op == "!":
            bf = self.expr_bool(expr.operand)
            return lambda st: (~bf(st)).astype(np.uint64)
        if op in ("&", "~&", "|", "~|", "^", "~^", "^~"):
            operand_width = self.env.width_of(expr.operand)
            vf = self._expr(expr.operand, operand_width)
            owm = _umask(operand_width)
            if op == "&":
                return lambda st: (vf(st) == owm).astype(np.uint64)
            if op == "~&":
                return lambda st: (vf(st) != owm).astype(np.uint64)
            if op == "|":
                return lambda st: (vf(st) != _U0).astype(np.uint64)
            if op == "~|":
                return lambda st: (vf(st) == _U0).astype(np.uint64)
            if _HAVE_BITCOUNT:
                def parity(st):
                    return np.bitwise_count(vf(st)).astype(np.uint64) & _U1
            else:  # pragma: no cover - NumPy < 2.0 fallback
                def parity(st):
                    v = np.asarray(vf(st), dtype=np.uint64)
                    for s in (32, 16, 8, 4, 2, 1):
                        v = v ^ (v >> np.uint64(s))
                    return v & _U1
            if op == "^":
                return parity
            return lambda st: parity(st) ^ _U1
        vf = self._expr(expr.operand, width)
        wm = _umask(width)
        if op == "~":
            return lambda st: (~vf(st)) & wm
        if op == "-":
            return lambda st: (_U0 - vf(st)) & wm
        raise BatchUnsupported(f"cannot vectorize unary {op!r}")

    def _expr_binary(self, expr: ast.Binary, width: int):
        op = expr.op
        env = self.env
        wm = _umask(width)
        if op in ("&&", "||"):
            # Pure operands under licensing, so both-eval matches the
            # scalar short-circuit bit for bit.
            lf = self.expr_bool(expr.left)
            rf = self.expr_bool(expr.right)
            if op == "&&":
                return lambda st: (lf(st) & rf(st)).astype(np.uint64)
            return lambda st: (lf(st) | rf(st)).astype(np.uint64)
        if op in ("==", "!=", "===", "!==", "<", "<=", ">", ">="):
            cmp_width = max(env.width_of(expr.left), env.width_of(expr.right))
            if cmp_width > 64:
                raise BatchUnsupported(f"comparison width {cmp_width} > 64")
            lf = self._expr(expr.left, cmp_width)
            rf = self._expr(expr.right, cmp_width)
            if env.is_signed(expr.left) and env.is_signed(expr.right):
                signed = _to_signed_fn(cmp_width)
                pair = lambda st: (signed(lf(st)), signed(rf(st)))
            else:
                pair = lambda st: (lf(st), rf(st))
            cmp_ops = {
                "==": lambda a, b: a == b, "===": lambda a, b: a == b,
                "!=": lambda a, b: a != b, "!==": lambda a, b: a != b,
                "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
                ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
            }
            fn = cmp_ops[op]

            def compare(st):
                a, b = pair(st)
                return fn(a, b).astype(np.uint64)

            return compare
        if op in ("<<", "<<<", ">>", ">>>"):
            lf = self._expr(expr.left, width)
            if (isinstance(expr.right, ast.Number)
                    and not expr.right.xz_mask
                    and not (op == ">>>" and env.is_signed(expr.left))):
                # Constant unsigned shift: the clamp/overflow guards
                # fold away, leaving one vector op — shifts are the
                # hottest expr kind in register-mill datapaths.
                amount = expr.right.value
                if amount >= 64:
                    zero = _U0
                    return lambda st: zero
                su = np.uint64(amount)
                if op in ("<<", "<<<"):
                    return lambda st: (lf(st) << su) & wm
                return lambda st: lf(st) >> su
            sf = self.expr_self(expr.right)
            if op in ("<<", "<<<"):
                def shl(st):
                    s = sf(st)
                    clamped = np.minimum(s, _U63)
                    return np.where(s >= _U64, _U0, (lf(st) << clamped) & wm)
                return shl
            if op == ">>>" and env.is_signed(expr.left):
                signed = _to_signed_fn(width)

                def sra(st):
                    s = sf(st)
                    clamped = np.minimum(s, _U63).astype(np.int64)
                    filled = (signed(lf(st)) >> clamped).astype(np.uint64) & wm
                    # Scalar quirk: any shift > 4096 short-circuits to 0
                    # before the arithmetic branch is reached.
                    return np.where(s > _U4096, _U0, filled)

                return sra

            def shr(st):
                s = sf(st)
                clamped = np.minimum(s, _U63)
                return np.where(s >= _U64, _U0, lf(st) >> clamped)

            return shr
        if op == "**":
            bf = self._expr(expr.left, width)
            ef = self.expr_self(expr.right)
            modulus = 1 << max(width, 1)

            def power(st):
                base = _as_lanes(st, bf(st))
                exponent = _as_lanes(st, ef(st))
                out = np.empty(st.n, dtype=np.uint64)
                for i in range(st.n):
                    e = int(exponent[i])
                    if e > 64:
                        e = 64
                    out[i] = pow(int(base[i]), e, modulus)
                return out

            return power
        lf = self._expr(expr.left, width)
        rf = self._expr(expr.right, width)
        if op == "+":
            return lambda st: (lf(st) + rf(st)) & wm
        if op == "-":
            return lambda st: (lf(st) - rf(st)) & wm
        if op == "*":
            return lambda st: (lf(st) * rf(st)) & wm
        if op in ("/", "%"):
            if env.is_signed(expr.left) and env.is_signed(expr.right):
                return self._signed_divmod(lf, rf, op, width)
            if op == "/":
                def udiv(st):
                    left, right = lf(st), rf(st)
                    zero = right == _U0
                    safe = np.where(zero, _U1, right)
                    return np.where(zero, wm, left // safe)
                return udiv

            def umod(st):
                left, right = lf(st), rf(st)
                zero = right == _U0
                safe = np.where(zero, _U1, right)
                return np.where(zero, wm, left % safe)

            return umod
        if op == "&":
            return lambda st: lf(st) & rf(st)
        if op == "|":
            return lambda st: lf(st) | rf(st)
        if op == "^":
            return lambda st: lf(st) ^ rf(st)
        if op in ("~^", "^~"):
            return lambda st: (~(lf(st) ^ rf(st))) & wm
        raise BatchUnsupported(f"cannot vectorize binary {op!r}")

    def _signed_divmod(self, lf, rf, op: str, width: int):
        """Per-lane signed '/' and '%', bit-exact with the evaluator.

        The scalar path truncates via *float* division (``int(a / b)``)
        — replicate it literally, precision loss included.
        """
        div = op == "/"

        def signed_divmod(st):
            left = _as_lanes(st, lf(st))
            right = _as_lanes(st, rf(st))
            out = np.empty(st.n, dtype=np.uint64)
            for i in range(st.n):
                rv = int(right[i])
                if rv == 0:
                    out[i] = mask(-1, width)
                    continue
                sl = to_signed(int(left[i]), width)
                sr = to_signed(rv, width)
                if div:
                    out[i] = mask(int(sl / sr), width)
                else:
                    out[i] = mask(sl - sr * int(sl / sr), width)
            return out

        return signed_divmod

    def _expr_syscall(self, expr: ast.SysCall, width: int):
        name = expr.name
        if name in ("$signed", "$unsigned") and expr.args:
            return self._expr(expr.args[0], width)
        if name in ("$time", "$stime"):
            return lambda st: st.times
        if name == "$clog2" and expr.args:
            vf = self.expr_self(expr.args[0])

            def clog2(st):
                values = _as_lanes(st, vf(st))
                out = np.empty(st.n, dtype=np.uint64)
                for i in range(st.n):
                    out[i] = max(0, (int(values[i]) - 1).bit_length())
                return out

            return clog2
        # $random/$urandom draw from the host RNG stream per *executed*
        # call; a masked vector evaluation would advance lanes that the
        # scalar engine would not.  File I/O is host-stateful per lane.
        raise BatchUnsupported(f"cannot vectorize system function {name}")

    # -- lvalue writers ----------------------------------------------------

    def writer(self, lhs: ast.Expr, mark: bool):
        """Compile an lvalue into ``(capture_fns, apply_fn)``.

        ``apply_fn(st, m, value, *captured)`` performs the masked
        write.  ``capture_fns`` evaluate the lvalue's dynamic indices;
        blocking assigns evaluate them inline, non-blocking assigns
        materialize them at statement execution (LRM §9.2.2) and replay
        them in the update region.  ``mark`` selects the procedural
        flavor that raises ``need_sweep`` on combinational-input
        changes; the ranked sweep itself runs in full order every pass
        and must not re-mark.
        """
        if isinstance(lhs, ast.Identifier):
            return self._writer_identifier(lhs, mark)
        if isinstance(lhs, ast.Index):
            return self._writer_index(lhs, mark)
        if isinstance(lhs, ast.RangeSelect):
            return self._writer_range(lhs, mark)
        if isinstance(lhs, ast.Concat):
            return self._writer_concat(lhs, mark)
        raise BatchUnsupported(
            f"cannot vectorize assignment to {type(lhs).__name__}")

    def _check_not_trigger(self, slot: int) -> None:
        if slot in self.trig_slots:
            # The licence guarantees no process writes the clock;
            # anything else here would need edge re-detection.
            raise BatchUnsupported("write to an edge-trigger slot")

    def _writer_identifier(self, lhs: ast.Identifier, mark: bool):
        slot = self.layout.slot_of.get(lhs.name)
        if slot is None:
            raise BatchUnsupported(f"cannot vectorize write to {lhs.name!r}")
        self._check_not_trigger(slot)
        sig_mask = _umask(self.env.signal(lhs.name).width)
        comb_mark = mark and bool(self.comb_in[slot])

        if comb_mark:
            def apply(st, m, value):
                row = st.d[slot]
                new = np.asarray(value, dtype=np.uint64) & sig_mask
                changed = m & (row != new)
                if not changed.any():
                    return
                np.copyto(row, new, where=changed, casting="unsafe")
                st.need_sweep = True
        else:
            # No sweep re-marking → no need to detect change at all;
            # a masked overwrite of equal values is free of side
            # effects and two reductions cheaper.
            def apply(st, m, value):
                new = np.asarray(value, dtype=np.uint64) & sig_mask
                np.copyto(st.d[slot], new, where=m, casting="unsafe")

        return [], apply

    def _writer_index(self, lhs: ast.Index, mark: bool):
        if not isinstance(lhs.base, ast.Identifier):
            raise BatchUnsupported("cannot vectorize nested index store")
        sig = self.env.signals.get(lhs.base.name)
        if sig is None:
            raise BatchUnsupported(f"store into unknown {lhs.base.name!r}")
        idxf = self.expr_self(lhs.index)
        if sig.is_memory:
            name = sig.name
            base_addr, word_mask, mem_slot, depth = self.layout.mem_specs[name]
            baseu = np.uint64(base_addr)
            endu = np.uint64(base_addr + depth)
            wmask = np.uint64(word_mask)
            comb_mark = mark and bool(self.comb_in[mem_slot])

            def apply_mem(st, m, value, addr):
                addrs = _as_lanes(st, addr)
                valid = m & (addrs >= baseu) & (addrs < endu)
                if not valid.any():
                    return
                rows = st.lanes[valid]
                cols = (addrs[valid] - baseu).astype(np.intp)
                new = _as_lanes(st, value)[valid] & wmask
                memory = st.mems[name]
                if comb_mark and (memory[rows, cols] != new).any():
                    st.need_sweep = True
                memory[rows, cols] = new

            return [idxf], apply_mem
        slot = self.layout.slot_of[sig.name]
        self._check_not_trigger(slot)
        lsb = np.int64(sig.lsb)
        sig_width = np.int64(sig.width)
        ascending = sig.msb >= sig.lsb
        comb_mark = mark and bool(self.comb_in[slot])

        def apply_bit(st, m, value, idx):
            iv = _as_lanes(st, idx).astype(np.int64)
            off = (iv - lsb) if ascending else (lsb - iv)
            valid = m & (off >= 0) & (off < sig_width)
            if not valid.any():
                return
            offu = np.where(valid, off, 0).astype(np.uint64)
            row = st.d[slot]
            bit = (_as_lanes(st, value) & _U1) << offu
            new = (row & ~(_U1 << offu)) | bit
            changed = valid & (row != new)
            if not changed.any():
                return
            np.copyto(row, new, where=changed, casting="unsafe")
            if comb_mark:
                st.need_sweep = True

        return [idxf], apply_bit

    def _writer_range(self, lhs: ast.RangeSelect, mark: bool):
        if not isinstance(lhs.base, ast.Identifier):
            raise BatchUnsupported("cannot vectorize nested range store")
        sig = self.env.signals.get(lhs.base.name)
        if sig is None:
            raise BatchUnsupported(f"store into unknown {lhs.base.name!r}")
        slot = self.layout.slot_of[sig.name]
        self._check_not_trigger(slot)
        sig_mask = _umask(sig.width)
        comb_mark = mark and bool(self.comb_in[slot])
        if lhs.mode == ":":
            low, sel_width = self._range_bounds_const(lhs)
            if sel_width < 1 or sel_width > 64:
                raise BatchUnsupported(f"range width {sel_width} > 64")
            if low < 0 or low >= sig.width:
                # Out-of-range constant slice: the scalar store masks
                # the update away, leaving the value unchanged.
                return [], lambda st, m, value: None
            field = np.uint64((mask(-1, sel_width) << low) & mask(-1, sig.width))
            lowu = np.uint64(low)

            def apply_const(st, m, value):
                row = st.d[slot]
                vv = np.asarray(value, dtype=np.uint64)
                new = (row & ~field) | ((vv << lowu) & field)
                changed = m & (row != new)
                if not changed.any():
                    return
                np.copyto(row, new, where=changed, casting="unsafe")
                if comb_mark:
                    st.need_sweep = True

            return [], apply_const
        startf = self.expr_self(lhs.msb)
        sel_width = const_eval(lhs.lsb, self.env.params)
        if sel_width < 1 or sel_width > 64:
            raise BatchUnsupported(f"range width {sel_width} > 64")
        smask = _umask(sel_width)
        ascending = sig.msb >= sig.lsb
        lsb = np.int64(sig.lsb)
        minus = lhs.mode == "-:"
        span = np.int64(sel_width - 1)

        def apply_dyn(st, m, value, start):
            iv = _as_lanes(st, start).astype(np.int64)
            li = (iv - span) if minus else iv
            low = (li - lsb) if ascending else (lsb - li)
            valid = m & (low >= 0) & (low < 64)
            if not ascending:
                valid = valid & (iv >= 0)
            if not valid.any():
                return
            lowu = np.where(valid, low, 0).astype(np.uint64)
            field = (smask << lowu) & sig_mask
            row = st.d[slot]
            vv = _as_lanes(st, value)
            new = (row & ~field) | ((vv << lowu) & field)
            changed = valid & (row != new)
            if not changed.any():
                return
            np.copyto(row, new, where=changed, casting="unsafe")
            if comb_mark:
                st.need_sweep = True

        return [startf], apply_dyn

    def _writer_concat(self, lhs: ast.Concat, mark: bool):
        total = sum(self.env.width_of(p) for p in lhs.parts)
        if total > 64:
            raise BatchUnsupported(f"concat lvalue width {total} > 64")
        pieces = []
        caps: List[Callable] = []
        shift = total
        for part in lhs.parts:
            part_width = self.env.width_of(part)
            shift -= part_width
            part_caps, part_apply = self.writer(part, mark)
            lo = len(caps)
            caps.extend(part_caps)
            hi = len(caps)
            pieces.append((part_apply, np.uint64(shift),
                           _umask(part_width), lo, hi))

        def apply(st, m, value, *captured):
            vv = np.asarray(value, dtype=np.uint64)
            for part_apply, sh, pm, lo, hi in pieces:
                part_apply(st, m, (vv >> sh) & pm, *captured[lo:hi])

        return caps, apply

    # -- statements --------------------------------------------------------

    def compile_assign(self, item: ast.ContinuousAssign):
        """One ranked sweep entry (``assign lhs = rhs``), no re-marking."""
        width = self.env.width_of(item.lhs)
        rf = self.expr_ctx(item.rhs, width)
        caps, apply = self.writer(item.lhs, mark=False)
        if not caps:
            return lambda st, m: apply(st, m, rf(st))
        return lambda st, m: apply(st, m, rf(st),
                                   *[cf(st) for cf in caps])

    def compile_stmt(self, stmt) -> Optional[Callable]:
        """Compile one statement into ``fn(st, m)`` (None = no-op)."""
        if stmt is None or isinstance(stmt, ast.NullStmt):
            return None
        if isinstance(stmt, ast.DelayStmt):
            return self.compile_stmt(stmt.stmt)
        if isinstance(stmt, (ast.Block, ast.ForkJoin)):
            fns = [f for f in (self.compile_stmt(s) for s in stmt.stmts) if f]
            if not fns:
                return None

            def block(st, m):
                for fn in fns:
                    fn(st, m)

            return block
        if isinstance(stmt, ast.Assign):
            return self._compile_assign_stmt(stmt)
        if isinstance(stmt, ast.If):
            return self._compile_if(stmt)
        if isinstance(stmt, ast.Case):
            return self._compile_case(stmt)
        if isinstance(stmt, ast.For):
            return self._compile_for(stmt)
        if isinstance(stmt, ast.While):
            return self._compile_while(stmt)
        if isinstance(stmt, ast.RepeatStmt):
            return self._compile_repeat(stmt)
        if isinstance(stmt, ast.SysTask):
            return self._compile_systask(stmt)
        raise BatchUnsupported(
            f"cannot vectorize statement {type(stmt).__name__}")

    def _compile_assign_stmt(self, stmt: ast.Assign):
        width = self.env.width_of(stmt.lhs)
        rf = self.expr_ctx(stmt.rhs, width)
        caps, apply = self.writer(stmt.lhs, mark=True)
        if stmt.blocking:
            def blocking(st, m):
                st.stmts_executed += 1
                am = _live(st, m)
                if am is None:
                    return
                apply(st, am, rf(st), *[cf(st) for cf in caps])

            return blocking

        def nonblocking(st, m):
            st.stmts_executed += 1
            am = _live(st, m)
            if am is None:
                return
            # Value and indices are frozen now, applied in the update
            # region — the vector analogue of _freeze_lval.
            st.nba.append((apply, am, _own(st, rf(st)),
                           *[_own(st, cf(st)) for cf in caps]))

        return nonblocking

    def _compile_if(self, stmt: ast.If):
        cf = self.expr_bool(stmt.cond)
        tf = self.compile_stmt(stmt.then_stmt)
        ef = self.compile_stmt(stmt.else_stmt)

        def branch(st, m):
            st.stmts_executed += 1
            am = _live(st, m)
            if am is None:
                return
            cond = cf(st)
            taken = am & cond
            other = am & ~cond
            taken_any = taken.any()
            other_any = other.any()
            if taken_any and other_any:
                st.divergence += 1
            if taken_any and tf is not None:
                tf(st, taken)
            if other_any and ef is not None:
                ef(st, other)

        return branch

    def _compile_case(self, stmt: ast.Case):
        subject_width = self.env.width_of(stmt.expr)
        if subject_width > 64:
            raise BatchUnsupported(f"case subject width {subject_width} > 64")
        sf = self._expr(stmt.expr, subject_width)
        wildcard = stmt.kind in ("casez", "casex")
        arms = []
        default_fn = None
        have_default = False
        for item in stmt.items:
            if not item.labels:
                if not have_default:
                    have_default = True
                    default_fn = self.compile_stmt(item.stmt)
                continue
            labels = []
            for label in item.labels:
                label_width = max(subject_width, self.env.width_of(label))
                lf = self._expr(label, label_width)
                dontcare = 0
                if wildcard and isinstance(label, ast.Number):
                    dontcare = label.xz_mask
                labels.append((lf, np.uint64(mask(~dontcare, 64))))
            arms.append((labels, self.compile_stmt(item.stmt)))

        def case(st, m):
            st.stmts_executed += 1
            am = _live(st, m)
            if am is None:
                return
            subject = sf(st)
            # All labels evaluate before any arm body runs, matching
            # the scalar per-lane read-labels-then-execute order.
            remaining = am
            selected = []
            for labels, body in arms:
                hit = None
                for lf, care in labels:
                    one = (subject & care) == (lf(st) & care)
                    hit = one if hit is None else (hit | one)
                sel = remaining & hit
                remaining = remaining & ~sel
                selected.append((sel, body))
            taken_arms = 0
            for sel, body in selected:
                if sel.any():
                    taken_arms += 1
                    if body is not None:
                        body(st, sel)
            if have_default and remaining.any():
                taken_arms += 1
                if default_fn is not None:
                    default_fn(st, remaining)
            if taken_arms > 1:
                st.divergence += 1

        return case

    def _compile_for(self, stmt: ast.For):
        initf = self.compile_stmt(stmt.init)
        cf = self.expr_bool(stmt.cond)
        stepf = self.compile_stmt(stmt.step)
        bodyf = self.compile_stmt(stmt.body)

        def loop(st, m):
            st.stmts_executed += 1
            am = _live(st, m)
            if am is None:
                return
            if initf is not None:
                initf(st, am)
            live = am
            iterations = 0
            while True:
                live = (live & cf(st) if st.alive_all
                        else live & st.alive & cf(st))
                if not live.any():
                    return
                if bodyf is not None:
                    bodyf(st, live)
                if stepf is not None:
                    stepf(st, live)
                iterations += 1
                if iterations > _MAX_LOOP_ITERATIONS:
                    raise SimulationError("for-loop iteration limit exceeded")

        return loop

    def _compile_while(self, stmt: ast.While):
        cf = self.expr_bool(stmt.cond)
        bodyf = self.compile_stmt(stmt.body)

        def loop(st, m):
            st.stmts_executed += 1
            am = _live(st, m)
            if am is None:
                return
            live = am
            iterations = 0
            while True:
                live = (live & cf(st) if st.alive_all
                        else live & st.alive & cf(st))
                if not live.any():
                    return
                if bodyf is not None:
                    bodyf(st, live)
                iterations += 1
                if iterations > _MAX_LOOP_ITERATIONS:
                    raise SimulationError(
                        "while-loop iteration limit exceeded")

        return loop

    def _compile_repeat(self, stmt: ast.RepeatStmt):
        countf = self.expr_self(stmt.count)
        bodyf = self.compile_stmt(stmt.body)

        def loop(st, m):
            st.stmts_executed += 1
            am = _live(st, m)
            if am is None:
                return
            count = _as_lanes(st, countf(st))
            i = 0
            while i < _MAX_LOOP_ITERATIONS:
                live = (am & (count > np.uint64(i)) if st.alive_all
                        else am & st.alive & (count > np.uint64(i)))
                if not live.any():
                    return
                if bodyf is not None:
                    bodyf(st, live)
                i += 1

        return loop

    def _compile_systask(self, stmt: ast.SysTask):
        name = stmt.name
        if name in ("$display", "$write", "$strobe", "$monitor"):
            return self._compile_output_task(stmt, append=name == "$write")
        if name in ("$finish", "$stop"):
            codef = self.expr_self(stmt.args[0]) if stmt.args else None

            def finish(st, m):
                st.stmts_executed += 1
                am = _live(st, m)
                if am is None:
                    return
                if (st.alive & ~am).any():
                    st.divergence += 1
                codes = _as_lanes(st, codef(st)) if codef is not None else None
                for lane in np.nonzero(am)[0]:
                    host = st.hosts[lane]
                    host.finished = True
                    host.finish_code = int(codes[lane]) if codes is not None else 0
                # Masked abort: later statements, NBA latches and the
                # time increment all re-and with ``alive``, which is the
                # vector form of the scalar FinishSignal unwind.
                st.alive[am] = False
                st.alive_all = False

            return finish
        # $random-consuming tasks, file I/O, $save/$restart/$yield and
        # $readmem mutate per-lane host state mid-tick in ways the
        # masked evaluation cannot replicate; the unknown-task banner
        # would at least need per-lane ordering too.  All fall back.
        raise BatchUnsupported(f"cannot vectorize system task {name}")

    def _compile_output_task(self, stmt: ast.SysTask, append: bool):
        args = stmt.args
        formatted = (bool(args) and isinstance(args[0], ast.String)
                     and "%" in args[0].value)
        if formatted:
            fmt = args[0].value
            specs = [(arg.value, None) if isinstance(arg, ast.String)
                     else (None, self.expr_self(arg))
                     for arg in args[1:]]
        else:
            fmt = None
            specs = [(arg.value, None) if isinstance(arg, ast.String)
                     else (None, self.expr_self(arg))
                     for arg in args]

        def output(st, m):
            st.stmts_executed += 1
            am = _live(st, m)
            if am is None:
                return
            rendered = [(text, None) if text is not None
                        else (None, _as_lanes(st, vf(st)))
                        for text, vf in specs]
            for lane in np.nonzero(am)[0]:
                values = [text if text is not None else int(vec[lane])
                          for text, vec in rendered]
                if fmt is not None:
                    line = verilog_format(fmt, values)
                else:
                    line = " ".join(v if isinstance(v, str) else str(v)
                                    for v in values)
                if append:
                    st.wbuf[lane] += line
                else:
                    st.hosts[lane].display(st.wbuf[lane] + line)
                    st.wbuf[lane] = ""

        return output


class BatchedModuleCode:
    """Vector closures for one licensed :class:`CompiledModuleCode`.

    Shared and immutable, like the scalar code artifact it decorates:
    cohorts bind it to per-lane state.  Construction raises
    :class:`BatchUnsupported` when the module is outside the subset.
    """

    def __init__(self, code: CompiledModuleCode):
        if np is None:
            raise UnsupportedBackend(_NUMPY_HINT)
        if not code.vector_licensed:
            raise BatchUnsupported(
                "module is not licensed for vectorized execution (needs a "
                "two-state, small acyclic cone under one bare clock)")
        env = code.env
        for sig in env.signals.values():
            if sig.width > 64:
                raise BatchUnsupported(
                    f"signal {sig.name!r} is {sig.width} bits wide (> 64)")
        self.code = code
        self.clock = code.tick_clock
        self.clock_slot = code.tick_clock_slot
        self.comb_in_clock = bool(code.comb_in[self.clock_slot])
        for slot, specs in enumerate(code.trig_specs):
            if slot != self.clock_slot and specs:
                raise BatchUnsupported("non-clock sensitivity")
        compiler = _VectorCompiler(code)
        try:
            self.sweep_fns = tuple(
                compiler.compile_assign(code.processes[index].assign)
                for index in code.comb_order)
            proc_fns: Dict[int, Callable] = {}
            for proc in code.processes:
                if proc.kind == "edge":
                    fn = compiler.compile_stmt(proc.stmt)
                    proc_fns[proc.index] = fn if fn is not None else (
                        lambda st, m: None)
                elif proc.kind == "star":
                    raise BatchUnsupported("star process")
            self.proc_fns = proc_fns
        except WidthError as exc:
            raise BatchUnsupported(str(exc)) from exc
        self.n_events = len(code.edge_specs)
        # Clock-slot firing plan: (event index, process index, edge kind).
        self.clock_entries = tuple(
            (k, code.edge_specs[k][0], code.edge_specs[k][1])
            for kind, k in code.trig_specs[self.clock_slot])


class BatchedCohort:
    """N lanes of one program advanced by shared vector dispatches.

    State is slot-major — ``d[slot]`` is the (N,) row for one signal —
    so every closure touches contiguous memory.  (The issue sketches
    the transpose; row-major-per-signal is the cache-friendly
    orientation for per-slot operations and holds the same data.)
    Lanes join by booting (or restoring) a scalar
    :class:`CompiledSimulator` and copying its columns in, and leave by
    the inverse — which is also how suspend/resume/migration interop
    works: a lane snapshot is bit-compatible with the scalar store
    snapshot.
    """

    def __init__(self, batch: BatchedModuleCode):
        self.batch = batch
        self.code = batch.code
        self.env = batch.code.env
        self.layout = batch.code.layout
        layout = self.layout
        self.n = 0
        self.d = np.zeros((layout.n_scalars, 0), dtype=np.uint64)
        self.mems = {
            name: np.zeros((0, spec[3]), dtype=np.uint64)
            for name, spec in layout.mem_specs.items()
        }
        self.prev = np.zeros((batch.n_events, 0), dtype=np.uint64)
        self.alive = np.zeros(0, dtype=bool)
        #: fast-path flag: True iff every lane's ``alive`` bit is set
        #: (see :func:`_live`); must be refreshed on any alive change
        self.alive_all = True
        self.times = np.zeros(0, dtype=np.uint64)
        self.lanes = np.zeros(0, dtype=np.intp)
        self.hosts: List[TaskHost] = []
        self.wbuf: List[str] = []
        self.misc: List[Dict[str, int]] = []
        self.nba: List[tuple] = []
        self.queue: List[int] = []
        self.qmask: Dict[int, "np.ndarray"] = {}
        self.need_sweep = False
        self.stmts_executed = 0
        self.settle_rounds = 0
        self.divergence = 0

    # -- lane membership ---------------------------------------------------

    def _require_quiescent(self, action: str) -> None:
        if self.nba or self.queue or self.need_sweep:
            raise SimulationError(
                f"cohort {action} requires quiescence (pending events)")

    def join(self, host: TaskHost, state: Optional[Dict[str, object]] = None) -> int:
        """Add a lane for *host*; returns its index.

        A scalar engine boots the lane (running initial blocks against
        a throwaway host when *state* is supplied, mirroring
        ``SoftwareEngine(quiet_init=True)``), then its columns are
        copied in.  Requires quiescence.
        """
        self._require_quiescent("join")
        boot_host = host if state is None else TaskHost()
        scalar = CompiledSimulator(self.code.module, host=boot_host,
                                   code=self.code)
        if state is not None:
            scalar.host = host
            scalar.store.restore(state)
            scalar.step()
        column = np.array(scalar.store.data, dtype=np.uint64)[:, None]
        self.d = np.concatenate([self.d, column], axis=1)
        for name in self.mems:
            row = np.array(scalar.store.memories[name],
                           dtype=np.uint64)[None, :]
            self.mems[name] = np.concatenate([self.mems[name], row], axis=0)
        prev_col = np.array([trig.prev for trig in scalar._events],
                            dtype=np.uint64)[:, None]
        self.prev = np.concatenate([self.prev, prev_col], axis=1)
        self.alive = np.append(self.alive, not host.finished)
        self.alive_all = bool(self.alive.all())
        self.times = np.append(self.times, np.uint64(scalar.time))
        self.hosts.append(host)
        self.wbuf.append(scalar._write_buffer)
        self.misc.append(dict(scalar.store._misc))
        self.n += 1
        self.lanes = np.arange(self.n, dtype=np.intp)
        return self.n - 1

    def leave(self, lane: int) -> None:
        """Remove a lane (its state should be snapshot first)."""
        self._require_quiescent("leave")
        self.d = np.delete(self.d, lane, axis=1)
        for name in self.mems:
            self.mems[name] = np.delete(self.mems[name], lane, axis=0)
        self.prev = np.delete(self.prev, lane, axis=1)
        self.alive = np.delete(self.alive, lane)
        self.alive_all = bool(self.alive.all())
        self.times = np.delete(self.times, lane)
        self.hosts.pop(lane)
        self.wbuf.pop(lane)
        self.misc.pop(lane)
        self.n -= 1
        self.lanes = np.arange(self.n, dtype=np.intp)

    # -- per-lane state (scalar-store compatible) --------------------------

    def snapshot_lane(self, lane: int,
                      names: Optional[Iterable[str]] = None) -> Dict[str, object]:
        selected = set(names) if names is not None else None
        out: Dict[str, object] = {}
        for name, slot in self.layout.slot_of.items():
            if selected is None or name in selected:
                out[name] = int(self.d[slot, lane])
        for name, memory in self.mems.items():
            if selected is None or name in selected:
                out[name] = [int(v) for v in memory[lane]]
        return out

    def restore_lane(self, lane: int, snapshot: Dict[str, object],
                     prime: bool = False) -> None:
        """Mirror of ``SlotStore.restore`` for one lane.

        With ``prime`` set, edge re-detection is suppressed and the
        trigger history is re-primed from the restored clock value —
        the ``Simulator.restore_state`` contract (no spurious edges).
        """
        for name, value in snapshot.items():
            if name in self.mems and isinstance(value, list):
                _, word_mask, mem_slot, depth = self.layout.mem_specs[name]
                words = [int(v) & word_mask for v in value[:depth]]
                self.mems[name][lane, :len(words)] = np.array(
                    words, dtype=np.uint64)
                # The scalar restore marks the memory dirty whether or
                # not a word changed.
                if self.code.comb_in[mem_slot]:
                    self.need_sweep = True
            elif name in self.layout.slot_of:
                self.set_value(name, int(value), lane=lane,
                               detect_edges=not prime)
        if prime:
            self.prev[:, lane] = self.d[self.batch.clock_slot, lane]

    def get_value(self, name: str, lane: int) -> int:
        slot = self.layout.slot_of.get(name)
        if slot is not None:
            return int(self.d[slot, lane])
        if name in self.misc[lane]:
            return self.misc[lane][name]
        if name in self.env.params:
            return self.env.params[name]
        raise KeyError(f"unknown signal {name!r}")

    def set_value(self, name: str, value: int, lane: Optional[int] = None,
                  notify: bool = True, detect_edges: bool = True,
                  lane_mask=None) -> bool:
        """Store-API write; mirrors ``SlotStore.set`` + eager drain.

        The scalar store marks the slot dirty and the scheduler drains
        it into need-sweep / edge firings at the next settle; values
        cannot change in between, so detecting eagerly here is
        equivalent.
        """
        slot = self.layout.slot_of.get(name)
        if slot is None:
            return self._set_misc(name, value, lane, notify)
        new = np.uint64(int(value) & self.layout.mask_of[name])
        row = self.d[slot]
        sel = lane_mask if lane_mask is not None else self._lane_mask(lane)
        changed = sel & (row != new)
        if not changed.any():
            return False
        np.copyto(row, new, where=changed, casting="unsafe")
        if notify:
            if self.code.comb_in[slot]:
                self.need_sweep = True
            if slot == self.batch.clock_slot:
                self._fire_clock_edges(changed, detect_edges)
        return True

    def _lane_mask(self, lane: Optional[int]):
        if lane is None:
            return np.ones(self.n, dtype=bool)
        sel = np.zeros(self.n, dtype=bool)
        sel[lane] = True
        return sel

    def _set_misc(self, name: str, value: int, lane: Optional[int],
                  notify: bool) -> bool:
        sig = self.env.signal(name)  # raises WidthError when undeclared
        new = int(value) & ((1 << sig.width) - 1)
        lanes = range(self.n) if lane is None else (lane,)
        changed = False
        for i in lanes:
            if self.misc[i].get(name) != new:
                self.misc[i][name] = new
                changed = True
        if changed and notify:
            mem_slot = self.layout.mem_slot_of.get(name)
            if mem_slot is not None and self.code.comb_in[mem_slot]:
                self.need_sweep = True
        return changed

    def _fire_clock_edges(self, changed, detect_edges: bool) -> None:
        value_row = self.d[self.batch.clock_slot]
        for k, proc, edge in self.batch.clock_entries:
            prev = self.prev[k]
            if detect_edges:
                if edge == "posedge":
                    fired = changed & ((prev & _U1) == _U0) & \
                        ((value_row & _U1) == _U1)
                elif edge == "negedge":
                    fired = changed & ((prev & _U1) == _U1) & \
                        ((value_row & _U1) == _U0)
                else:
                    fired = changed & (prev != value_row)
                if fired.any():
                    self._enqueue(proc, fired)
            np.copyto(prev, value_row, where=changed, casting="unsafe")

    def mem_get_value(self, name: str, addr: int, lane: int) -> int:
        base, _, _, depth = self.layout.mem_specs[name]
        idx = addr - base
        if 0 <= idx < depth:
            return int(self.mems[name][lane, idx])
        return 0

    def mem_set_value(self, name: str, addr: int, value: int,
                      lane: Optional[int] = None, notify: bool = True) -> bool:
        base, word_mask, mem_slot, depth = self.layout.mem_specs[name]
        idx = addr - base
        if not 0 <= idx < depth:
            return False
        new = np.uint64(int(value) & word_mask)
        column = self.mems[name][:, idx]
        sel = self._lane_mask(lane)
        changed = sel & (column != new)
        if not changed.any():
            return False
        np.copyto(column, new, where=changed, casting="unsafe")
        if notify and self.code.comb_in[mem_slot]:
            self.need_sweep = True
        return True

    # -- scheduling core ---------------------------------------------------

    def _enqueue(self, proc: int, fired) -> None:
        pending = self.qmask.get(proc)
        if pending is None:
            self.qmask[proc] = fired.copy()
            self.queue.append(proc)
        else:
            pending |= fired

    def settle(self) -> None:
        """Settle to fixpoint: whole-cone sweeps between FIFO activations.

        A dirty combinational input requests one rank-ordered sweep of
        every ranked assign (sound because the licence proves the cone
        acyclic); procedural blocks run FIFO, sweeping between
        activations — the scalar plan's assigns-first schedule.
        """
        limit = _MAX_SETTLE_ROUNDS * max(1, self.code.nprocs)
        runs = 0
        sweep_fns = self.batch.sweep_fns
        proc_fns = self.batch.proc_fns
        # uint64 wraparound is the *semantics* (every result is masked
        # to its signal width), not an anomaly worth a RuntimeWarning.
        with np.errstate(over="ignore"):
            while self.need_sweep or self.queue:
                self.settle_rounds += 1
                runs += 1
                if runs > limit:
                    raise SimulationError(
                        "evaluation did not converge (combinational loop?)")
                if self.need_sweep:
                    self.need_sweep = False
                    sweep_mask = self.alive
                    for fn in sweep_fns:
                        fn(self, sweep_mask)
                    self.stmts_executed += len(sweep_fns)
                else:
                    proc = self.queue.pop(0)
                    pending = self.qmask.pop(proc)
                    if self.alive_all:
                        proc_fns[proc](self, pending)
                    else:
                        active = pending & self.alive
                        if active.any():
                            proc_fns[proc](self, active)

    def latch(self) -> None:
        """Apply the pending NBA entries (one update region)."""
        pending = self.nba[:]
        del self.nba[:]
        with np.errstate(over="ignore"):
            for entry in pending:
                apply_fn, entry_mask = entry[0], entry[1]
                if self.alive_all:
                    apply_fn(self, entry_mask, *entry[2:])
                    continue
                active = entry_mask & self.alive
                if active.any():
                    apply_fn(self, active, *entry[2:])

    def step(self) -> None:
        self.settle()
        guard = 0
        while self.nba:
            guard += 1
            if guard > _MAX_SETTLE_ROUNDS:
                raise SimulationError("update region did not converge")
            self.latch()
            self.settle()

    def sync_alive(self) -> None:
        """Re-derive lane liveness from the hosts.

        ``$finish`` already flows host-ward during dispatch; the
        reverse — a runtime clearing ``host.finished`` on restore
        (resumed contexts are mid-execution by definition) — must flow
        back before the next dispatch, mirroring the scalar engines'
        per-tick ``host.finished`` check.
        """
        for i, host in enumerate(self.hosts):
            self.alive[i] = not host.finished
        self.alive_all = bool(self.alive.all())

    def tick(self, cycles: int = 1) -> None:
        """Vector mirror of the scalar inline clock tick."""
        batch = self.batch
        row = self.d[batch.clock_slot]
        for _ in range(cycles):
            started = self.alive.copy()
            if not started.any():
                return
            for value in (_U1, _U0):
                # A lane whose $finish fired during the rising phase
                # must not see the falling edge: the scalar engine's
                # FinishSignal abandons the rest of the tick.
                changed = self.alive & (row != value)
                if changed.any():
                    np.copyto(row, value, where=changed, casting="unsafe")
                    if batch.comb_in_clock:
                        self.need_sweep = True
                    rising = value == _U1
                    for k, proc, edge in batch.clock_entries:
                        prev = self.prev[k]
                        if edge == "posedge":
                            fired = changed & ((prev & _U1) == _U0) \
                                if rising else None
                        elif edge == "negedge":
                            fired = changed & ((prev & _U1) == _U1) \
                                if not rising else None
                        else:
                            fired = changed & (prev != value)
                        np.copyto(prev, value, where=changed,
                                  casting="unsafe")
                        if fired is not None and fired.any():
                            self._enqueue(proc, fired)
                self.settle()
                guard = 0
                while self.nba:
                    guard += 1
                    if guard > _MAX_SETTLE_ROUNDS:
                        raise SimulationError(
                            "update region did not converge")
                    self.latch()
                    self.settle()
            # Lanes that finished *during* this tick still advance their
            # clock, matching the scalar FinishSignal-then-increment.
            self.times[started] += _U1

    def generic_tick(self, clock: str, cycles: int = 1) -> None:
        """Mirror of the generic scalar tick for a non-plan clock."""
        for _ in range(cycles):
            started = self.alive.copy()
            if not started.any():
                return
            self.set_value(clock, 1, lane_mask=self.alive)
            self.step()
            self.set_value(clock, 0, lane_mask=self.alive)
            self.step()
            self.times[started] += _U1


class _LaneStore:
    """Store-ABI adapter over one cohort lane (the facade's ``store``)."""

    def __init__(self, cohort: BatchedCohort, lane: int = 0):
        self.cohort = cohort
        self.lane = lane
        self.env = cohort.env
        self.slot_of = cohort.layout.slot_of
        self.mem_slot_of = cohort.layout.mem_slot_of
        self._watchers: List[Callable[[str], None]] = []

    @property
    def values(self) -> Dict[str, int]:
        cohort, lane = self.cohort, self.lane
        out = {name: int(cohort.d[slot, lane])
               for name, slot in self.slot_of.items()}
        out.update(cohort.misc[lane])
        return out

    @property
    def memories(self) -> Dict[str, List[int]]:
        cohort, lane = self.cohort, self.lane
        return {name: [int(v) for v in memory[lane]]
                for name, memory in cohort.mems.items()}

    def add_watcher(self, fn: Callable[[str], None]) -> None:
        self._watchers.append(fn)

    def _notify(self, name: str) -> None:
        for fn in self._watchers:
            fn(name)

    def get(self, name: str) -> int:
        return self.cohort.get_value(name, self.lane)

    def set(self, name: str, value: int, notify: bool = True) -> bool:
        changed = self.cohort.set_value(name, value, lane=self.lane,
                                        notify=notify)
        if changed and notify and self._watchers:
            self._notify(name)
        return changed

    def mem_get(self, name: str, addr: int) -> int:
        return self.cohort.mem_get_value(name, addr, self.lane)

    def mem_set(self, name: str, addr: int, value: int,
                notify: bool = True) -> bool:
        changed = self.cohort.mem_set_value(name, addr, value,
                                            lane=self.lane, notify=notify)
        if changed and notify and self._watchers:
            self._notify(name)
        return changed

    def snapshot(self, names: Optional[Iterable[str]] = None) -> Dict[str, object]:
        return self.cohort.snapshot_lane(self.lane, names)

    def restore(self, snapshot: Dict[str, object]) -> None:
        self.cohort.restore_lane(self.lane, snapshot)

    def state_bits(self, names: Optional[Iterable[str]] = None) -> int:
        """Total bits captured by :meth:`snapshot` (latency model)."""
        selected = set(names) if names is not None else None
        total = 0
        for sig in self.env.signals.values():
            if selected is not None and sig.name not in selected:
                continue
            if sig.is_memory:
                total += sig.width * (sig.depth or 0)
            else:
                total += sig.width
        return total


class BatchedSimulator:
    """Single-lane simulator facade over a :class:`BatchedCohort`.

    Presents the full scalar ``Simulator`` ABI (store, evaluator,
    tick/step/run, save/restore) so runtimes, engines and the fuzz
    oracle can select ``backend="batched"`` transparently; N=1 is just
    the degenerate cohort.
    """

    backend = "batched"

    def __init__(self, module: ast.Module, host: Optional[TaskHost] = None,
                 env=None, code: Optional[CompiledModuleCode] = None,
                 batch: Optional[BatchedModuleCode] = None):
        if code is None:
            code = batch.code if batch is not None else CompiledModuleCode(
                module, env=env)
        if batch is None:
            batch = batch_code_for(code)
        self.code = code
        self.batch = batch
        self.module = code.module
        self.env = code.env
        self.cohort = BatchedCohort(batch)
        self.cohort.join(host if host is not None else TaskHost())
        self.store = _LaneStore(self.cohort, 0)
        self.evaluator = Evaluator(self.env, self.store, self._sysfunc)

    @property
    def host(self) -> TaskHost:
        return self.cohort.hosts[0]

    @host.setter
    def host(self, value: TaskHost) -> None:
        # Engines rebind ``sim.host`` after a quiet boot (the
        # throwaway-host pattern); the cohort dispatches every task
        # through its per-lane host list, so the lane must follow.
        self.cohort.hosts[0] = value
        self.cohort.alive[0] = not value.finished
        self.cohort.alive_all = bool(self.cohort.alive.all())

    # Reuse the interpreter's system-function servicing for the
    # store-adapter evaluator ($time/$random/file I/O on this lane).
    _sysfunc = InterpSimulator._sysfunc

    @property
    def time(self) -> int:
        return int(self.cohort.times[0])

    @time.setter
    def time(self, value: int) -> None:
        self.cohort.times[0] = np.uint64(value)

    @property
    def stmts_executed(self) -> int:
        return self.cohort.stmts_executed

    @property
    def settle_rounds(self) -> int:
        return self.cohort.settle_rounds

    @property
    def _write_buffer(self) -> str:
        return self.cohort.wbuf[0]

    def get(self, name: str) -> int:
        return self.cohort.get_value(name, 0)

    def set(self, name: str, value: int) -> bool:
        return self.cohort.set_value(name, value, lane=0)

    def evaluate(self) -> None:
        self.cohort.settle()

    def update(self) -> None:
        self.cohort.latch()

    def step(self) -> None:
        self.cohort.step()

    def settle(self) -> None:
        self.cohort.settle()

    def tick(self, clock: str = "clock", cycles: int = 1) -> None:
        self.cohort.sync_alive()
        if clock == self.batch.clock:
            self.cohort.tick(cycles)
        else:
            self.cohort.generic_tick(clock, cycles)

    def run(self, clock: str = "clock", max_cycles: int = 1_000_000) -> int:
        cycles = 0
        while not self.host.finished and cycles < max_cycles:
            self.tick(clock)
            cycles += 1
        return cycles

    def save_state(self) -> Dict[str, object]:
        return {
            "store": self.store.snapshot(),
            "vfs": self.host.vfs.snapshot(),
            "time": self.time,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        self.cohort.restore_lane(0, state["store"], prime=True)
        self.host.vfs.restore(state["vfs"])
        self.time = state["time"]


_BATCH_MEMO: "weakref.WeakKeyDictionary[CompiledModuleCode, object]" = \
    weakref.WeakKeyDictionary()


def batch_code_for(code: CompiledModuleCode) -> BatchedModuleCode:
    """Build (or fetch) the vector closures for *code*.

    Memoized per code artifact — including the *failure*: an unlicensed
    module re-raises its cached :class:`BatchUnsupported` without
    re-walking the AST, so hot scalar-fallback paths stay cheap.
    """
    if np is None:
        raise UnsupportedBackend(_NUMPY_HINT)
    cached = _BATCH_MEMO.get(code)
    if cached is None:
        try:
            cached = BatchedModuleCode(code)
        except BatchUnsupported as exc:
            cached = exc
        _BATCH_MEMO[code] = cached
    if isinstance(cached, BatchUnsupported):
        raise BatchUnsupported(str(cached))
    return cached


def batched_simulator(module: ast.Module, host: Optional[TaskHost] = None,
                      env=None, code: Optional[CompiledModuleCode] = None):
    """Factory for ``backend="batched"``.

    Returns a :class:`BatchedSimulator` when the module is licensed for
    vectorization, and falls back to the scalar
    :class:`CompiledSimulator` otherwise (same observable behavior).
    Raises :class:`UnsupportedBackend` when NumPy is missing.
    """
    if np is None:
        raise UnsupportedBackend(_NUMPY_HINT)
    if code is None:
        code = CompiledModuleCode(module, env=env)
    try:
        batch = batch_code_for(code)
    except BatchUnsupported:
        return CompiledSimulator(module, host=host, code=code)
    return BatchedSimulator(module, host=host, code=code, batch=batch)
