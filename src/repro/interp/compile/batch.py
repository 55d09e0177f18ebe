"""The vector carrier: one compiled program over N tenant lanes.

The hypervisor's steady state is many tenants of one design: the
artifact store already shares a single :class:`CompiledModuleCode`
between them, but each engine still advances one Python dispatch per
tenant per tick.  This module adds the next sharing level — *execution*
— by compiling the module once into NumPy code over a
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

Equivalence contract.  Expressions are not lowered a second time
here: :class:`VectorExprCompiler` *inherits* the width contexts,
masking points and constant folding of ``exprc.ExprCompiler``, so both
carriers emit from one set of width rules.  What mirrors an
:class:`~repro.interp.eval_expr.Evaluator` clause by hand is only (a)
the carrier idiom overrides and the ``H_*`` table they run against —
the >= 64 shift clamp and shift>4096 → 0, division by zero → all-ones,
guarded selects; ``**`` and signed ``/`` ``%`` run the scalar helpers
per lane, float truncation and exponent clamp included — and (b) the
lvalue writers and masked statements, which mirror
``Evaluator.assign`` and the scalar generated period in
``compile/simulator.py``.  ``tests/interp/test_expr_carriers.py``
holds (a) to the evaluator row by row; the differential fuzz oracle's
``batched`` lane runs a two-lane cohort for both.  The one way in is a
:class:`BatchedCohort` (served: ``CohortEngine`` over
``CompilerService.batch``); there is no one-lane simulator backend.
"""

from __future__ import annotations

import types
import weakref
from typing import Callable, Dict, Iterable, List, Optional

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised via monkeypatching
    np = None

from ...verilog import ast_nodes as ast
from ...verilog.width import WidthError, const_eval, mask
from ..simulator import (
    _MAX_LOOP_ITERATIONS,
    _MAX_SETTLE_ROUNDS,
    SimulationError,
)
from ..systasks import TaskHost, verilog_format
from .exprc import HELPERS as SCALAR_HELPERS
from .exprc import CompileFallback, ExprCompiler, const_range_bounds
from .simulator import CompiledModuleCode, CompiledSimulator

HAVE_NUMPY = np is not None

_NUMPY_HINT = (
    "cohorts (the vector carrier) require NumPy; install the optional "
    "extra with `pip install -e .[batch]` or keep tenants on scalar engines"
)


class UnsupportedBackend(RuntimeError):
    """A vector artifact was requested but NumPy is unavailable."""


class BatchUnsupported(Exception):
    """The module falls outside the vectorized subset (use scalar)."""


def _u64(value):
    return np.asarray(value, dtype=np.uint64)


def _umask(width: int):
    return np.uint64(mask(-1, width))


def _as_lanes(st: "BatchedCohort", value):
    """View *value* as a full (N,) uint64 vector (broadcast, read-only)."""
    arr = _u64(value)
    if arr.ndim == 0:
        return np.broadcast_to(arr, (st.n,))
    return arr


def _own(st: "BatchedCohort", value):
    """Materialize *value* as an owned, writable (N,) uint64 copy."""
    arr = _u64(value)
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


# -- the lane carrier --------------------------------------------------------
#
# Generated expression source runs against this table under the same
# ``H_*`` names as the scalar carrier's ``exprc.HELPERS``, so emitter
# lines that call a helper need no second spelling.  Operands are
# uint64 rows, 0-d values or plain Python ints (literals stay ints:
# NumPy 2's weak promotion keeps ``row & 255`` a uint64 row).

def _v_signed(value, sb):
    """int64 two's-complement view of a uint64 value (sign bit *sb*)."""
    return ((_u64(value) ^ sb) - sb).astype(np.int64)


# NumPy shifts by >= 64 are undefined, so dynamic amounts clamp to 63
# and the lanes that shifted everything out are selected to 0 after.

def _v_shl(left, shift, mw):
    s = _u64(shift)
    return np.where(s < 64, (left << np.minimum(s, 63)) & mw, 0)


def _v_shr(left, shift):
    s = _u64(shift)
    return np.where(s < 64, left >> np.minimum(s, 63), 0)


def _v_sshr(left, shift, sb, mw):
    s = _u64(shift)
    filled = _v_signed(left, sb) >> np.minimum(s, 63).astype(np.int64)
    # Evaluator quirk: any shift > 4096 is 0 before the arithmetic
    # branch is reached; up to there the sign fill saturates.
    return np.where(s > 4096, 0, filled.astype(np.uint64) & mw)


def _v_divmod(op):
    def helper(left, right, mw):
        right = _u64(right)
        zero = right == 0
        return np.where(zero, mw, op(_u64(left), np.where(zero, 1, right)))
    return helper


def _v_rsel(base, start, k, descending, sel_mask):
    """Guarded ``(base >> low) & sel_mask`` for a dynamic bit/part read.

    ``low`` is ``start - k`` (``k - start`` on a descending vector) and
    a negative ``low`` reads 0.  The sign is decided by comparing
    *start* with *k*, never from the modular difference: that alone
    would alias a start >= 2^63 onto a valid offset.
    """
    start = _u64(start)
    low = k - start if descending else start - k
    valid = (low < 64) & ((start <= k) if descending else (start >= k))
    return np.where(valid, (base >> np.where(valid, low, 0)) & sel_mask, 0)


def _v_mget(memory, lanes, idx, depth):
    idx = _u64(idx)
    valid = idx < depth
    words = memory[lanes, np.where(valid, idx, 0).astype(np.intp)]
    return np.where(valid, words, 0)


def _per_lane(fn, nvary=2):
    """Lift a scalar helper over lanes (first *nvary* arguments vary).

    For the operators with no uint64 form — ``**``, signed ``/`` ``%``
    (the evaluator truncates through *float* division, precision loss
    included) — the scalar carrier's own helper runs once per lane.
    """
    def lifted(*args):
        rows = np.broadcast_arrays(*map(_u64, args[:nvary]))
        out = [fn(*map(int, lane), *args[nvary:])
               for lane in zip(*(row.flat for row in rows))]
        return np.array(out, dtype=np.uint64).reshape(rows[0].shape)
    return lifted


if HAVE_NUMPY:
    _U0 = np.uint64(0)
    _U1 = np.uint64(1)
    HELPERS = {
        "np": np, "H_u64": _u64, "H_not": np.logical_not, "H_sv": _v_signed,
        "H_sel": lambda c, t, f: np.where(c, _u64(t), _u64(f)),
        "H_shl": _v_shl, "H_shr": _v_shr, "H_sshr": _v_sshr,
        "H_par": lambda v: (np.bitwise_count(_u64(v)) & 1).astype(np.uint64),
        "H_div": _v_divmod(np.floor_divide), "H_mod": _v_divmod(np.remainder),
        **{name: _per_lane(SCALAR_HELPERS[name])
           for name in ("H_pow", "H_sdiv", "H_smod")},
        "H_rsel": _v_rsel, "H_mget": _v_mget,
        "H_clog2": _per_lane(lambda v: max(0, (v - 1).bit_length()), 1),
    }


class VectorExprCompiler(ExprCompiler):
    """The lane carrier: :class:`ExprCompiler` over ``uint64`` rows.

    Every width rule is inherited; only the carrier idioms are
    overridden.  Always strict — a lane has no store behind it for an
    ``EV``/``SYS`` escape to read — so whatever the emitter cannot
    lower raises, and the module falls back to the scalar backend.
    Source reads the cohort through its one free name ``st``.
    """

    word = 64

    def __init__(self, env, layout):
        super().__init__(env, layout.slot_of, layout.mem_slot_of)
        self.strict = True
        self.slot_src = "st.d[{}]".format
        #: only ``vector_licensed`` (two-state) modules get here: the
        #: mask-free selects and sums are inherited, no loop binds
        self.bound = {}

    def mem_ref(self, name: str) -> str:
        if self.env.signal(name).base < 0:
            raise CompileFallback(f"memory {name!r} has a negative base")
        return f"st.mems[{name!r}]"

    def _truth(self, value):
        return f"(({value}) != 0)"

    def _b2i(self, cond):
        return f"H_u64({cond})"

    def _nb2i(self, cond):
        return f"H_u64(H_not({cond}))"

    def _join(self, op, left, right):
        # Pure operands under licensing, so evaluating both sides
        # matches the scalar short-circuit bit for bit.
        return f"({left}) {'&' if op == '&&' else '|'} ({right})"

    def _not(self, cond):
        # not ``~``: an all-constant comparison is a Python bool, and
        # ``~True == -2``
        return f"H_not({cond})"

    def _select(self, cond, if_true, if_false):
        # Both arms evaluate (pure under licensing); the scalar
        # evaluator picks one lazily — same values either way.
        return f"H_sel({cond}, {if_true}, {if_false})"

    def _signed(self, value, sb):
        return f"H_sv({value}, {sb})"

    def _sshr_const(self, left, shift, sb, mws):
        return f"H_sshr({left}, {shift}, {sb}, {mws})"

    def _bit_of(self, base, bit):
        return f"(H_shr({base}, {bit}) & 1)"

    def _mem_word(self, memory, idx):
        return f"{memory}[:, {idx}]"

    def _mem_guarded(self, memory, idx, depth, proved):
        # Kept even when *proved*: one compare checks every lane.
        # ``idx`` already has the base address subtracted, modulo 2^64:
        # an address below the base wraps far above any depth.
        return f"H_mget({memory}, st.lanes, {idx}, {depth})"

    def _bit_dyn(self, sig, slot, idx):
        return self._guarded_read(self.slot_src(slot), idx, sig, 0, 1)

    def _range_dyn(self, e, base, start, sel_width):
        span = sel_width - 1 if e.mode == "-:" else 0
        return self._guarded_read(base, start, self.env.base_signal(e.base),
                                  span, (1 << sel_width) - 1)

    def _guarded_read(self, base, start, sig, span, sel_mask):
        k = span + (sig.lsb if sig is not None else 0)
        if k < 0:
            raise CompileFallback("select below a negative declared bound")
        descending = sig is not None and sig.msb < sig.lsb
        return f"H_rsel({base}, {start}, {k}, {descending}, {sel_mask})"

    def _syscall(self, e, w, mw):
        if e.name in ("$time", "$stime"):
            return "st.times" if w >= 64 else f"(st.times & {mw})"
        if e.name == "$clog2" and e.args:
            return f"H_clog2({self.compile(e.args[0])})"
        # $random/$urandom draw from the host RNG stream per *executed*
        # call; a masked vector evaluation would advance lanes that the
        # scalar engine would not.  File I/O is host-stateful per lane.
        raise CompileFallback(f"cannot vectorize system function {e.name}")


def _unlinked(st):
    raise AssertionError("vector expression called before link()")


class _VectorCompiler:
    """Compiles statements and lvalues into closures over a cohort.

    Expressions are source from :class:`VectorExprCompiler`, wrapped
    as ``fn(st)`` returning a Python int (constants) or an (N,) uint64
    row; statement closures take the cohort and a boolean lane mask.
    Any construct the vector subset cannot express raises
    :class:`BatchUnsupported` here, or ``CompileFallback`` /
    ``WidthError`` in the emitter (turned into the former, reason
    kept, by :class:`BatchedModuleCode`).
    """

    def __init__(self, code: CompiledModuleCode):
        self.env = code.env
        self.layout = code.layout
        self.comb_in = code.comb_in
        self.trig_slots = set(code.trig_slots)
        self.ec = VectorExprCompiler(code.env, code.layout)
        #: expression source -> its ``fn(st)``, body pending link()
        self._fns: Dict[str, Callable] = {}
        self._namespace = dict(HELPERS)

    # -- expressions: source from the lane carrier, bound by link() ---------

    def _fn(self, src: str):
        """``fn(st)`` evaluating *src* (one function per distinct source).

        Statement closures capture the function now; its body arrives
        when :meth:`link` compiles every expression of the module in
        one ``compile()`` — per-expression ``exec`` made building the
        artifact several times slower.
        """
        fn = self._fns.get(src)
        if fn is None:
            fn = self._fns[src] = types.FunctionType(
                _unlinked.__code__, self._namespace, f"e{len(self._fns)}")
        return fn

    def link(self) -> None:
        text = "\n".join(f"def {fn.__name__}(st):\n    return {src}"
                         for src, fn in self._fns.items())
        exec(compile(text, "<repro-batched>", "exec"), self._namespace)
        for fn in self._fns.values():
            fn.__code__ = self._namespace[fn.__name__].__code__

    def expr_ctx(self, expr: ast.Expr, context_width: int):
        """``Evaluator.eval``: widen to the context."""
        return self._fn(self.ec.compile(expr, context_width))

    def expr_self(self, expr: ast.Expr):
        """``Evaluator.eval(expr)`` with no context (self width)."""
        return self._fn(self.ec.compile(expr))

    def expr_at(self, expr: ast.Expr, width: int):
        """``Evaluator._eval`` at exactly *width* (case subject/labels)."""
        return self._fn(self.ec.compile_at(expr, width))

    def expr_bool(self, expr: ast.Expr):
        """``Evaluator.eval_bool`` as a boolean lane mask."""
        return self._fn(
            f"np.asarray({self.ec.compile_cond(expr)}, dtype=bool)")

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
            low, sel_width = const_range_bounds(lhs, self.env)
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
        sf = self.expr_at(stmt.expr, subject_width)
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
                lf = self.expr_at(label, label_width)
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
        fmt = args[0].value if formatted else None
        specs = [(arg.value, None) if isinstance(arg, ast.String)
                 else (None, self.expr_self(arg))
                 for arg in (args[1:] if formatted else args)]

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
            compiler.link()
        except (CompileFallback, WidthError) as exc:
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
        prev_col = np.array([trig.cell[0] for trig in scalar._events],
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

    def restore_lane(self, lane: int, snapshot: Dict[str, object]) -> None:
        """Mirror of ``SlotStore.restore`` for one lane."""
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
                self.set_value(name, int(value), lane=lane)

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
                  lane_mask=None) -> bool:
        """Store-API write; mirrors ``SlotStore.set`` + eager drain.

        The scalar store marks the slot dirty and the scheduler drains
        it into need-sweep / edge firings at the next settle; values
        cannot change in between, so detecting eagerly here is
        equivalent.
        """
        slot = self.layout.slot_of.get(name)
        if slot is None:
            return self._set_misc(name, value, lane)
        new = np.uint64(int(value) & self.layout.mask_of[name])
        row = self.d[slot]
        sel = lane_mask if lane_mask is not None else self._lane_mask(lane)
        changed = sel & (row != new)
        if not changed.any():
            return False
        np.copyto(row, new, where=changed, casting="unsafe")
        if self.code.comb_in[slot]:
            self.need_sweep = True
        if slot == self.batch.clock_slot:
            self._fire_clock_edges(changed)
        return True

    def _lane_mask(self, lane: Optional[int]):
        if lane is None:
            return np.ones(self.n, dtype=bool)
        sel = np.zeros(self.n, dtype=bool)
        sel[lane] = True
        return sel

    def _set_misc(self, name: str, value: int, lane: Optional[int]) -> bool:
        sig = self.env.signal(name)  # raises WidthError when undeclared
        new = int(value) & ((1 << sig.width) - 1)
        lanes = range(self.n) if lane is None else (lane,)
        changed = False
        for i in lanes:
            if self.misc[i].get(name) != new:
                self.misc[i][name] = new
                changed = True
        if changed:
            mem_slot = self.layout.mem_slot_of.get(name)
            if mem_slot is not None and self.code.comb_in[mem_slot]:
                self.need_sweep = True
        return changed

    def _fire_clock_edges(self, changed) -> None:
        value_row = self.d[self.batch.clock_slot]
        for k, proc, edge in self.batch.clock_entries:
            prev = self.prev[k]
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

    def tick(self, cycles: int = 1, clock: Optional[str] = None) -> None:
        """Vector mirror of the scalar clock period (the planned clock's;
        any other *clock* takes :meth:`generic_tick`)."""
        batch = self.batch
        if clock not in (None, batch.clock):
            return self.generic_tick(clock, cycles)
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
