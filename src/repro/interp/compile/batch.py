"""The vector carrier: one compiled program over N tenant lanes.

Tenants of one design already share one :class:`CompiledModuleCode`;
this module shares *execution*: the module compiles once into NumPy
code over a ``(n_scalars, N)`` uint64 state matrix, so one dispatch
advances a whole cohort.  A module qualifies when schedule analysis
grants ``vector_licensed`` (optimized, a small acyclic combinational
cone, every edge process on one bare clock) and every width fits a
64-bit lane; anything else — or a construct outside the vector subset
($random, file I/O, ...) — raises :class:`BatchUnsupported`, and the
caller keeps the scalar engine on the same code artifact.

The lane program is generated source, like the scalar ``pK()`` and
``period()`` (see :class:`_LaneEmitter`; ``--sim-source`` prints it).
Lanes that disagree on a branch run both arms, each over its own
disjoint boolean lane mask (all state is per-lane); output tasks loop
over their mask's lanes; ``$finish`` clears a lane's ``alive`` bit so
later statements, NBA latches and the time increment skip it, as the
scalar ``FinishSignal`` unwind does.  An arm every lane of its parent
takes gets the parent's own mask, so lockstep lanes pay for a branch
only the test that found them agreeing.

Equivalence.  :class:`VectorExprCompiler` inherits the width rules of
``exprc.ExprCompiler``, and :class:`_LaneEmitter` the stores, NBA
writers and case labels of ``stmtc.StmtCompiler``; their carrier idioms
and ``H_*`` helpers are held to the evaluator by
``tests/interp/test_expr_carriers.py`` and ``test_store_table.py``, the
statements to scalar runs by ``tests/runtime/test_lane_program.py``,
and all by the fuzz oracle's two-lane ``batched`` cohort.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, List, Optional, Set

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised via monkeypatching
    np = None

from ...opt.ranges import counted_loop
from ...verilog import ast_nodes as ast
from ...verilog.width import WidthError, mask
from ..simulator import _MAX_LOOP_ITERATIONS, SimulationError
from ..systasks import TaskHost, verilog_format
from .exprc import HELPERS as SCALAR_HELPERS
from .exprc import CompileFallback, ExprCompiler
from .simulator import CompiledModuleCode, CompiledSimulator
from .stmtc import StmtCompiler

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


# -- the lane carrier --------------------------------------------------------
#
# Generated source runs against this table under the scalar carrier's
# ``H_*`` names.  Operands are uint64 rows, 0-d values or Python ints
# (NumPy 2's weak promotion keeps ``row & 255`` a uint64 row).

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
    """Guarded ``(base >> low) & sel_mask`` for a dynamic bit/part read,
    ``low = start - k`` (``k - start`` descending), 0 when negative —
    decided by comparing, as the modular difference would alias a
    start >= 2^63 onto a valid offset."""
    start = _u64(start)
    low = k - start if descending else start - k
    valid = (low < 64) & ((start <= k) if descending else (start >= k))
    return np.where(valid, (base >> np.where(valid, low, 0)) & sel_mask, 0)


def _v_mget(memory, lanes, idx, depth):
    idx = _u64(idx)
    return np.where(idx < depth, memory[lanes, np.minimum(idx, depth - 1)], 0)


def _per_lane(fn, nvary=2):
    """Lift a scalar helper over lanes (first *nvary* arguments vary),
    for ``**`` and signed ``/`` ``%``, which have no uint64 form (the
    evaluator truncates through *float* division)."""
    def lifted(*args):
        rows = np.broadcast_arrays(*map(_u64, args[:nvary]))
        out = [fn(*map(int, lane), *args[nvary:])
               for lane in zip(*(row.flat for row in rows))]
        return np.array(out, dtype=np.uint64).reshape(rows[0].shape)
    return lifted


def _v_low(start, lsb, span, ascending, m):
    """Lanes of *m* where a dynamic bit or ``[start +: w]``/``[start
    -: w]`` (*span* 0/``w - 1``) store lands, and each one's low offset."""
    iv = _u64(start).astype(np.int64)
    low = iv - span - lsb if ascending else lsb - (iv - span)
    valid = m & (low >= 0) & (low < 64)
    if not ascending:
        valid = valid & (iv >= 0)
    return valid, np.where(valid, low, 0).astype(np.uint64)


def _v_mstore(st, m, memory, addr, value, base, end, word_mask, wakes):
    """``memory[addr - base] = value`` over *m* (addresses in ``[base,
    end)``), waking the sweep on a change if *wakes*."""
    addrs = _u64(addr)
    rows = np.flatnonzero(m & (addrs < end) & (addrs >= base))
    if rows.size:
        cols = (addrs[rows] if addrs.ndim else addrs) - np.uint64(base)
        new = _u64(value)
        new = (new[rows] if new.ndim else new) & word_mask
        if wakes and not st.need_sweep and (memory[rows, cols] != new).any():
            st.need_sweep = True
        memory[rows, cols] = new


def _v_keep(lanes, entry, new, old, own):
    """A local after storing *new* over *lanes*: *new* itself (copied if
    *own*) when *lanes* is the function's *entry* mask.  A local may hold
    a Python ``int`` (a constant store), so *new* is made ``uint64``
    first: ``np.where`` over two ``int`` would pick ``int64``."""
    if lanes is entry:
        return np.array(new, dtype=np.uint64) if own else new
    return np.where(lanes, _u64(new), old)


# A branch hands each arm its lanes and count (*m* itself for an arm all
# of *m* takes), counting each running arm's statements and, when more
# than one runs, a divergence.

def _v_if(st, m, k, cond, then_size, else_size):
    """Split the *k* lanes of *m* on *cond*: ``(then lanes, count, else
    lanes, count)``."""
    taken = m & cond
    n = np.count_nonzero(taken)
    if n == k:  # (k is 0 when a $finish emptied m: nothing runs)
        st.stmts_executed += then_size if k else 0
        return m, k, None, 0
    if not n:
        st.stmts_executed += else_size
        return None, 0, m, k
    st.divergence += 1
    st.stmts_executed += then_size + else_size
    return taken, n, m ^ taken, k - n


def _v_case(st, m, k, arm, sizes, default):
    """Split the *k* lanes of *m* by *arm*, each lane's arm index (the
    last: no label matched, the default when there is one): each arm's
    lanes (None when it runs nothing) and their counts."""
    if not arm.ndim:  # a lane-uniform subject (a constant, a loop variable)
        arm = np.full(st.n, arm)
    counts = np.bincount(arm if k == st.n else arm[m],
                         minlength=len(sizes)).tolist()
    if not default:
        counts[-1] = 0
    if len(counts) - counts.count(0) > 1:
        st.divergence += 1
    st.stmts_executed += sum(size for n, size in zip(counts, sizes) if n)
    counts = [n if sizes[i] else 0 for i, n in enumerate(counts)]
    return [m if n == k else (arm == i) & m if n else None
            for i, n in enumerate(counts)], counts


def _put(st, m, value, slot, wakes):
    """The writer of a non-blocking store to a whole slot."""
    row = st.d[slot]
    if wakes and not st.need_sweep and ((row != value) & m).any():
        st.need_sweep = True
    np.copyto(row, value, where=m, casting="unsafe")


def _phase(st, procs):
    """What one clock edge runs: each fired process (``(function,
    lanes)``, in FIFO order) over its lanes still live, sweeping first
    when a change asked, then the update region between sweeps.  (A
    process cannot fire another, nor can a latch or a sweep.)"""
    sweep = st.batch.sweep
    for fn, m in procs:
        if st.need_sweep:
            sweep(st)
        st.settle_rounds += 1
        if st.alive_all:
            fn(st, m)
        elif (m & st.alive).any():
            fn(st, m & st.alive)
    if st.need_sweep:
        sweep(st)
    if st.nba:  # the update region: each store over its lanes still live
        nba, st.nba = st.nba, []
        for writer, m, *args in nba:
            writer(st, m if st.alive_all else m & st.alive, *args)
        if st.need_sweep:
            sweep(st)


if HAVE_NUMPY:
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
        # the statement half
        "cnz": np.count_nonzero, "H_own": lambda v: np.array(v, dtype=np.uint64),
        # an output task's lane values; does a store change a lane of m?
        "H_ints": lambda v, n: _u64(v).tolist() if np.ndim(v) else [int(v)] * n,
        "H_changed": lambda m, row, new: ((row != new) & m).any(), "H_low": _v_low,
        "H_mstore": _v_mstore, "H_keep": _v_keep, "H_if": _v_if, "H_case": _v_case,
        "H_put": _put, "H_table": lambda w, arms, k: np.array(
            [arms.get(v, k) for v in range(1 << w)]),
        "H_phase": _phase, "H_range": lambda *b: map(np.uint64, range(*b)),
        "verilog_format": verilog_format, "SimulationError": SimulationError,
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
        #: only ``vector_licensed`` (optimized) modules get here: the
        #: mask-free selects and sums are inherited, and a counted loop
        #: binds its variable while its body is emitted
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
        # a gather, not the column view a later in-place store would change
        return f"{memory}[st.lanes, {idx}]"

    def _mem_guarded(self, memory, idx, depth, proved):
        if proved:  # the index interval lies inside the memory
            return self._mem_word(memory, idx)
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


# -- the lane program --------------------------------------------------------

#: widest ``case`` subject decoded by one table lookup
_TABLE_BITS = 8
_FINISH = ("$finish", "$stop")
_OUTPUT = ("$display", "$write", "$strobe", "$monitor")


def _flat(stmt) -> List[ast.Stmt]:
    """The statements a block runs, nested blocks and delays dissolved
    and no-ops dropped: each counts once whenever the block runs."""
    if stmt is None or isinstance(stmt, ast.NullStmt):
        return []
    if isinstance(stmt, ast.DelayStmt):
        return _flat(stmt.stmt)
    if isinstance(stmt, (ast.Block, ast.ForkJoin)):
        return [inner for part in stmt.stmts for inner in _flat(part)]
    return [stmt]


class _Mask:
    """A lane mask in emitted source: the locals of its row and count,
    whether it *is* the entry mask, whether a ``$finish`` may empty it."""

    def __init__(self, row: str, count: Optional[str], whole: bool = False):
        self.row, self.count, self.whole, self.may_be_empty = \
            row, count, whole, False


class _LaneEmitter(StmtCompiler):
    """Emits the lane program of one licensed module as Python source.

    Each function runs over an entry mask's lanes: ``pK(st, m)`` edge
    process K, ``wK(st, m, v, *x)`` a non-blocking store's writer,
    ``sweep(st)`` the ranked assigns.  Slot rows live in locals
    ``L<slot>``, copied back under the entry mask at exit; memories
    (``Q<slot>``) are written in place.  A store under the entry mask
    itself rebinds its local — only a divergent arm pays ``np.where``.
    Counters follow a masked statement walk: a statement a block reaches
    counts once, mask empty or not.  Masks are non-empty and live until
    a statement that may ``$finish``; after it they are narrowed.
    """

    def __init__(self, code: CompiledModuleCode):
        super().__init__(VectorExprCompiler(code.env, code.layout))
        self.code, self.layout = code, code.layout
        self.ec.slot_src, self.ec.mem_ref = self._local, self._mem
        self.tables: List[str] = []
        self.writers: Dict[str, str] = {}
        #: each slot's local, as ``_local`` names it -> the slot
        self._locals = {f"L{slot}": slot for slot in range(code.layout.n_scalars)}
        #: ids of the statements of this process that may ``$finish``
        self._finishing: Set[int] = set()
        # per function (see _function): slot -> read at entry?, written
        # slots, memories, counted-loop slot -> its variable
        self._cache, self._written, self._mems, self._alias = {}, [], {}, {}
        self._wakes, self._entry = True, "m"

    def emit(self) -> str:
        code = self.code
        schedule = code.schedule
        blocks = sum(schedule.processes[p].kind == "cone"
                     for p in schedule.comb_order)
        sweep = ["def sweep(st):"] + self._function(
            "A", self._sweep, wakes=False,
            entry=["st.need_sweep = False", "st.settle_rounds += 1",
                   f"st.stmts_executed += {len(schedule.comb_order) - blocks}",
                   "A = st.alive"]
            + (["nA = st.n if st.alive_all else cnz(A)", "_st = 0"] if blocks else []),
            exit=["st.stmts_executed += _st"] if blocks else [])
        procs: List[str] = []
        for proc in schedule.processes:
            if proc.kind == "star":
                raise BatchUnsupported("star process")
            if proc.kind == "edge":
                procs += self._process(proc.index, proc.stmt)
        defs = [f"def {name}{text}" for text, name in self.writers.items()]
        return "\n".join(self.tables + defs + sweep + procs + self._period())

    # -- plumbing -----------------------------------------------------------

    def _local(self, slot: int) -> str:
        if slot in self._alias:
            return self._alias[slot]
        self._cache.setdefault(slot, True)
        return f"L{slot}"

    def _mem(self, name: str) -> str:
        VectorExprCompiler.mem_ref(self.ec, name)  # refuses a negative base
        slot = self.layout.mem_slot_of[name]
        self._mems[slot] = name
        return f"Q{slot}"

    def _aliases(self, src: str) -> bool:
        """Is *src* a local still holding its state row (which the copy
        back at exit, or another NBA, writes in place)?"""
        return self._cache.get(self._locals.get(src), False)

    # -- functions ----------------------------------------------------------

    def _function(self, mask: str, emit_body, wakes: bool = True,
                  entry=(), exit=()) -> List[str]:
        """A function body over entry mask *mask*: what *emit_body* reads
        bound at entry, the slots it writes copied back at exit."""
        saved = (self.lines, self._cache, self._written, self._mems,
                 self._alias, self._wakes, self._entry)
        self.lines, self._cache, self._written, self._mems = [], {}, [], {}
        self._alias, self._wakes, self._entry = {}, wakes, mask
        try:
            emit_body()
            loads = [slot for slot, read in self._cache.items() if read]
            out = ["d = st.d", *entry] + [
                "".join(f"{name}, " for name, _ in binds) + "= "
                + "".join(f"{src}, " for _, src in binds) for binds in (
                    [(f"Q{s}", f"st.mems[{n!r}]") for s, n in self._mems.items()],
                    [(f"L{s}", f"d[{s}]") for s in loads]) if binds]
            out = ["    " + line for line in out] + self.lines
            if self._written:
                pairs = "".join(f"({s}, L{s}), " for s in self._written)
                out += [f"    for _s, _l in ({pairs}):",
                        f"        np.copyto(d[_s], _l, where={mask}, casting='unsafe')"]
            return out + ["    " + line for line in exit] + [""]
        finally:
            (self.lines, self._cache, self._written, self._mems,
             self._alias, self._wakes, self._entry) = saved

    def _sweep(self) -> None:
        schedule = self.code.schedule
        for index in schedule.comb_order:
            proc = schedule.processes[index]
            if proc.kind == "cone":  # a licensed @* block's body
                self._body(proc.stmt, _Mask("A", "nA", whole=True), 1)
                continue
            item = proc.assign
            width = self.env.width_of(item.lhs)
            self._store(item.lhs, self.ec.compile(item.rhs, width),
                        max(self.env.width_of(item.rhs), width),
                        _Mask("A", None, whole=True), 1)

    def _process(self, index: int, stmt) -> List[str]:
        # The entry mask is copied back under, so a process that may
        # $finish narrows a working copy of it instead.
        self._finishing = {id(node) for node in ast.walk_stmt(stmt) if any(
            isinstance(sub, ast.SysTask) and sub.name in _FINISH
            for sub in ast.walk_stmt(node))}
        finishes = id(stmt) in self._finishing
        top = _Mask("w", "nw", True) if finishes else _Mask("m", "nm", True)
        return [f"def p{index}(st, m):"] + self._function(
            "m", lambda: self._body(stmt, top, 1),
            entry=["nm = st.n if m is st.ALL else cnz(m)", "_st = 0"]
            + (["w, nw = m, nm"] if finishes else []),
            exit=["st.stmts_executed += _st"])

    def _period(self) -> List[str]:
        """``period(st)``: a clock period from the resting state (clock
        and previous values low, nothing pending, every lane live), so
        both edges change every lane and ``schedule.fired`` fixes what fires.
        A lane finishing on the rising edge leaves the fall to ``edge()``."""
        code = self.code
        clk = code.tick_clock_slot
        out = ["def period(st):", "    d = st.d"]
        for value in (1, 0):
            fired = code.schedule.fired(value)
            phase = [f"d[{clk}] = {value}", f"st.prev.fill({value})"]
            if code.comb_in[clk]:
                phase.append("st.need_sweep = True")
            if fired or code.comb_in[clk]:
                calls = "".join(f"(p{p}, st.ALL), " for p in fired)
                phase.append(f"H_phase(st, ({calls}))")
            out += ["    " * (2 - value) + line for line in phase]
            if value:
                out += ["    if not st.alive_all:",
                        f"        st.edge({code.schedule.tick_clock!r}, 0)",
                        "    else:"]
        return out + ["    st.times += 1", ""]

    # -- statements ---------------------------------------------------------

    def _body(self, stmt, lanes: _Mask, ind: int, extra: int = 0,
              counted: bool = False) -> None:
        """*stmt* under *lanes*: one count for what it reaches (plus
        *extra*, unless a branch helper *counted* them), then each
        statement, narrowing *lanes* after one that may ``$finish``."""
        items = _flat(stmt)
        if (items or extra) and not counted:
            self._emit(ind, f"_st += {len(items) + extra}")
        for item in items:
            emit = {ast.Assign: self._assign, ast.If: self._if,
                    ast.Case: self._case, ast.For: self._for,
                    ast.While: self._while, ast.RepeatStmt: self._repeat,
                    ast.SysTask: self._systask}.get(type(item))
            if emit is None:
                raise BatchUnsupported(
                    f"cannot vectorize statement {type(item).__name__}")
            emit(item, lanes, ind)
            if id(item) in self._finishing:
                self._emit(ind, "if not st.alive_all:")
                self._emit(ind + 1, f"{lanes.row} = {lanes.row} & st.alive")
                self._emit(ind + 1, f"{lanes.count} = cnz({lanes.row})")
                lanes.whole, lanes.may_be_empty = False, True

    def _if(self, stmt: ast.If, lanes: _Mask, ind: int) -> None:
        cond = self.ec.compile_cond(stmt.cond)
        arms = [(_Mask(self._gensym("a"), self._gensym("n")), stmt.then_stmt),
                (_Mask(self._gensym("b"), self._gensym("j")), stmt.else_stmt)]
        self._emit(ind, ", ".join(f"{a.row}, {a.count}" for a, _ in arms)
                   + f" = H_if(st, {lanes.row}, {lanes.count}, {cond}, "
                   + ", ".join(str(len(_flat(body))) for _, body in arms) + ")")
        for arm, body in arms:
            if _flat(body):
                self._emit(ind, f"if {arm.count}:")
                self._body(body, arm, ind + 1, counted=True)

    def _case(self, stmt: ast.Case, lanes: _Mask, ind: int) -> None:
        width = self.env.width_of(stmt.expr)
        subject = self.ec.compile_at(stmt.expr, width)
        arms = [(list(self._labels(stmt, width, item)), item.stmt)
                for item in stmt.items if item.labels]
        default = self._default(stmt)
        # Each lane's arm index (len(arms): no label matched; the first
        # match wins): a table lookup for a narrow subject and constants.
        arm = self._gensym("x")
        labels = [(i, label, care) for i, (arm_labels, _) in enumerate(arms)
                  for label, _, care in arm_labels]
        if width <= _TABLE_BITS and all(label is not None for _, label, _ in labels):
            table: Dict[int, int] = {}
            for i, label, care in labels:
                for value in ([label] if care is None else range(1 << width)):
                    if value >> width == 0 and (care is None
                                                or value & care == label & care):
                        table.setdefault(value, i)
            self.tables.append(f"T{len(self.tables)} = H_table({width}, {table}, "
                               f"{len(arms)})")
            self._emit(ind, f"{arm} = T{len(self.tables) - 1}[{subject}]")
        else:
            subject = self._bound(subject, ind)
            self._emit(ind, f"{arm} = np.full(st.n, {len(arms)})")
            for i in reversed(range(len(arms))):
                hit = " | ".join(f"({self._match(subject, src, care)})"
                                 for _, src, care in arms[i][0])
                self._emit(ind, f"{arm} = np.where({hit}, {i}, {arm})")
        bodies = [body for _, body in arms] + [default and default.stmt]
        rows, counts = self._gensym("r"), self._gensym("c")
        self._emit(ind, f"{rows}, {counts} = H_case(st, {lanes.row}, "
                        f"{lanes.count}, {arm}, {tuple(map(len, map(_flat, bodies)))}, "
                        f"{default is not None})")
        for i, body in enumerate(bodies):
            if _flat(body):  # (each arm's lanes run off the lists)
                self._emit(ind, f"if {counts}[{i}]:")
                self._body(body, _Mask(f"{rows}[{i}]", f"{counts}[{i}]"), ind + 1,
                           counted=True)

    def _loop(self, lanes: _Mask, ind: int, test, body, step=None,
              kind: Optional[str] = None) -> None:
        """Each trip keeps the live lanes where ``test(trip)`` holds; at the
        limit a ``for``/``while`` (*kind*) raises, a ``repeat`` stops."""
        live, trip = _Mask(self._gensym("l"), self._gensym("n")), self._gensym("i")
        self._emit(ind, f"{live.row}, {trip} = {lanes.row}, 0")
        self._emit(ind, "while True:" if kind
                   else f"while {trip} < {_MAX_LOOP_ITERATIONS}:")
        c = self._bound(test(trip), ind + 1)
        self._emit(ind + 1, f"{live.row} = {live.row} & {c} if st.alive_all "
                            f"else {live.row} & st.alive & {c}")
        self._emit(ind + 1, f"{live.count} = cnz({live.row})")
        self._emit(ind + 1, f"if not {live.count}:")
        self._emit(ind + 2, "break")
        self._body(body, live, ind + 1, extra=int(step is not None))
        if step is not None:
            self._assign(step, live, ind + 1)
        self._emit(ind + 1, f"{trip} += 1")
        if kind:
            self._emit(ind + 1, f"if {trip} > {_MAX_LOOP_ITERATIONS}:")
            self._emit(ind + 2, f"raise SimulationError('{kind}-loop "
                                "iteration limit exceeded')")

    def _guard(self, lanes: _Mask, ind: int) -> int:
        """Skip what follows when a ``$finish`` emptied *lanes*."""
        if lanes.may_be_empty:
            self._emit(ind, f"if {lanes.count}:")
            return ind + 1
        return ind

    def _for(self, stmt: ast.For, lanes: _Mask, ind: int) -> None:
        ind = self._guard(lanes, ind)
        self._emit(ind, "_st += 1")
        trips = counted_loop(stmt, self.env, _MAX_LOOP_ITERATIONS)
        slot = trips is not None and self._target(stmt.init.lhs.name)
        if (trips is None or self.code.comb_in[slot]
                or id(stmt.body) in self._finishing):
            self._assign(stmt.init, lanes, ind)
            cond = self.ec.compile_cond(stmt.cond)
            self._loop(lanes, ind, lambda trip: cond, stmt.body, stmt.step, "for")
            return
        # Counted: the lanes share every trip of a variable the body
        # only reads — no lane test per trip, one exit store after.
        var, name = self._gensym("i"), stmt.init.lhs.name
        self._alias[slot], self.ec.bound[name] = var, trips
        try:
            self._emit(ind, f"for {var} in H_range({trips.start}, "
                            f"{trips.stop}, {trips.step}):")
            self._body(stmt.body, _Mask(lanes.row, lanes.count), ind + 1, extra=1)
        finally:
            del self._alias[slot], self.ec.bound[name]
        self._commit(self.env.signal(name), str(trips.start + len(trips) * trips.step),
                     True, lanes, ind)

    def _while(self, stmt: ast.While, lanes: _Mask, ind: int) -> None:
        cond = self.ec.compile_cond(stmt.cond)
        self._loop(lanes, ind, lambda trip: cond, stmt.body, kind="while")

    def _repeat(self, stmt: ast.RepeatStmt, lanes: _Mask, ind: int) -> None:
        count = self._bound(self.ec.compile(stmt.count), ind)
        self._loop(lanes, ind, lambda trip: f"({count} > {trip})", stmt.body)

    def _systask(self, stmt: ast.SysTask, lanes: _Mask, ind: int) -> None:
        args, name = stmt.args, stmt.name
        if name not in _FINISH + _OUTPUT:
            # $random, file I/O, $save/$restart/$yield and $readmem mutate
            # per-lane host state in ways a masked evaluation cannot.
            raise BatchUnsupported(f"cannot vectorize system task {name}")
        formatted = (name in _OUTPUT and bool(args)
                     and isinstance(args[0], ast.String) and "%" in args[0].value)
        lane, parts = self._gensym("l"), []
        for arg in args[formatted:1] if name in _FINISH else args[formatted:]:
            if isinstance(arg, ast.String) and name in _OUTPUT:
                parts.append(repr(arg.value))
                continue
            values = self._bound(f"H_ints({self.ec.compile(arg)}, st.n)", ind)
            parts.append(f"{values}[{lane}]" if formatted or name in _FINISH
                         else f"str({values}[{lane}])")
        if name in _FINISH:
            ind = self._guard(lanes, ind)
            self._emit(ind, f"if (st.n if st.alive_all else cnz(st.alive)) != "
                            f"{lanes.count}:")
            self._emit(ind + 1, "st.divergence += 1")
        self._emit(ind, f"for {lane} in np.flatnonzero({lanes.row}).tolist():")
        if name in _FINISH:
            self._emit(ind + 1, f"st.hosts[{lane}].finished = True")
            self._emit(ind + 1, f"st.hosts[{lane}].finish_code = "
                                + (parts[0] if parts else "0"))
            # The vector form of the scalar FinishSignal unwind: later
            # statements, NBA latches and the time increment skip it.
            self._emit(ind, f"st.alive[{lanes.row}] = False")
            self._emit(ind, "st.alive_all = False")
            return
        line = (f"verilog_format({args[0].value!r}, [{', '.join(parts)}])"
                if formatted else f"' '.join([{', '.join(parts)}])")
        if name == "$write":
            self._emit(ind + 1, f"st.hosts[{lane}].write({line})")
        else:
            self._emit(ind + 1, f"st.hosts[{lane}].display({line})")

    # -- stores -------------------------------------------------------------

    def _target(self, name: str) -> int:
        """The slot a store to *name* writes."""
        slot = self.layout.slot_of.get(name)
        if slot is None:
            raise BatchUnsupported(f"cannot vectorize write to {name!r}")
        if self.code.trig_specs[slot]:
            # (the licence: no process writes the clock)
            raise BatchUnsupported("write to an edge-trigger slot")
        return slot

    def _queue(self, lhs, value: str, value_width: int, dyn: List[ast.Expr],
               lanes: _Mask, ind: int) -> None:
        """The value and the indices frozen now, applied in the update
        region; one aliasing state row is copied."""
        if isinstance(lhs, ast.Identifier):
            slot, sig = self._target(lhs.name), self.env.signal(lhs.name)
            if value_width > sig.width:
                value = f"(({value}) & {mask(-1, sig.width)})"
            writer, tail = "H_put", f", {slot}, {bool(self.code.comb_in[slot])}"
        else:
            writer, tail = self._writer(lhs, value_width, dyn), ""
        args = ", ".join(f"H_own({s})" if self._aliases(s) else s
                         for s in [value] + [self.ec.compile(e) for e in dyn])
        self._emit(ind, f"st.nba.append(({writer}, {lanes.row}, {args}{tail}))")

    def _define_writer(self, params: List[str], store) -> str:
        """``wK(st, m, v, *x)``, one per distinct body."""
        body = self._function("m", lambda: store(_Mask("m", None, whole=True)))
        head = ", ".join(["st", "m", self._WRITER_VALUE] + params)
        text = "\n".join([f"({head}):"] + body)
        return self.writers.setdefault(text, f"w{len(self.writers)}")

    def _store_word(self, sig, index, value: str, width: int, lanes: _Mask,
                    ind: int) -> None:
        base, word_mask, mem_slot, depth = self.layout.mem_specs[sig.name]
        self._emit(ind, f"H_mstore(st, {lanes.row}, {self._mem(sig.name)}, "
                        f"{self._index_src(index)}, {value}, {base}, "
                        f"{base + depth}, {word_mask}, "
                        f"{self._wakes and bool(self.code.comb_in[mem_slot])})")

    def _field_low(self, sig, start: str, span: int, lanes: _Mask, ind: int):
        """The field's low offsets, and the lanes where it lands."""
        valid, low = self._gensym("k"), self._gensym("o")
        self._emit(ind, f"{valid}, {low} = H_low({start}, {sig.lsb}, {span}, "
                        f"{sig.msb >= sig.lsb}, {lanes.row})")
        return low, _Mask(valid, None), ind

    def _commit(self, sig, new: str, fits: bool, lanes: _Mask, ind: int) -> None:
        """Write *new* (masked unless it *fits*) into *sig* over *lanes*."""
        slot = self._target(sig.name)
        if not fits:
            new = f"(({new}) & {mask(-1, sig.width)})"
        owned = self._aliases(new)
        if self._wakes and self.code.comb_in[slot]:
            new = self._bound(new, ind)
            self._emit(ind, f"if not st.need_sweep and "
                            f"H_changed({lanes.row}, d[{slot}], {new}):")
            self._emit(ind + 1, "st.need_sweep = True")
        if slot not in self._written:
            self._written.append(slot)
        if lanes.whole:
            self._cache.setdefault(slot, False)
            self._emit(ind, f"L{slot} = " + (f"H_own({new})" if owned else new))
            return
        self._emit(ind, f"{self._local(slot)} = H_keep({lanes.row}, {self._entry}, "
                        f"{new}, L{slot}, {bool(owned)})")


class BatchedModuleCode:
    """The lane program of one licensed :class:`CompiledModuleCode`:
    shared and immutable (every function takes the cohort as ``st``);
    :class:`BatchUnsupported` when the module is outside the subset."""

    def __init__(self, code: CompiledModuleCode):
        if np is None:
            raise UnsupportedBackend(_NUMPY_HINT)
        if not code.schedule.vector_licensed:
            raise BatchUnsupported(
                "module is not licensed for vectorized execution (needs an "
                "optimized, small acyclic cone under one bare clock)")
        for sig in code.env.signals.values():
            if sig.width > 64:
                raise BatchUnsupported(
                    f"signal {sig.name!r} is {sig.width} bits wide (> 64)")
        self.code, self.clock = code, code.schedule.tick_clock
        self.clock_slot = slot = code.tick_clock_slot
        if any(specs for s, specs in enumerate(code.trig_specs) if s != slot):
            raise BatchUnsupported("non-clock sensitivity")
        try:
            #: the generated lane program (``--sim-source`` prints it)
            self.source = _LaneEmitter(code).emit()
        except (CompileFallback, WidthError) as exc:
            raise BatchUnsupported(str(exc)) from exc
        namespace = dict(HELPERS)
        exec(compile(self.source, "<repro-lanes>", "exec"), namespace)
        self.proc_fns = {proc.index: namespace[f"p{proc.index}"]
                         for proc in code.schedule.processes
                         if proc.kind == "edge"}
        self.sweep, self.period = namespace["sweep"], namespace["period"]
        #: the clock's firing plan: (event index, process index, edge kind)
        self.clock_entries = [(k, *code.edge_specs[k])
                              for _, k in code.trig_specs[slot]]


class BatchedCohort:
    """N lanes of one program advanced by shared vector dispatches.

    State is slot-major: ``d[slot]`` is one signal's (N,) row.  Lanes
    join by booting (or restoring) a scalar :class:`CompiledSimulator`
    and copying its columns in, and leave by the inverse, so a lane
    snapshot is bit-compatible with a scalar store snapshot.
    """

    def __init__(self, batch: BatchedModuleCode):
        self.batch = batch
        self.code = code = batch.code
        self.env, self.layout = code.env, code.layout
        self.n = 0
        self.d = np.zeros((code.layout.n_scalars, 0), dtype=np.uint64)
        self.mems = {name: np.zeros((0, spec[3]), dtype=np.uint64)
                     for name, spec in code.layout.mem_specs.items()}
        self.prev = np.zeros((len(code.edge_specs), 0), dtype=np.uint64)
        self.alive = self.ALL = np.zeros(0, dtype=bool)
        self.times = np.zeros(0, dtype=np.uint64)
        self.lanes = np.zeros(0, dtype=np.intp)
        #: every lane alive?  (``ALL``: one mask never written in place)
        self.alive_all = True
        #: per lane: host (``$write`` text pending included)
        self.hosts: List[TaskHost] = []
        #: pending NBAs, queued processes and the lanes each fired in
        self.nba, self.queue, self.qmask = [], [], {}
        self.need_sweep = False
        self.stmts_executed = self.settle_rounds = self.divergence = 0

    # -- lane membership ---------------------------------------------------

    def _require_quiescent(self, action: str) -> None:
        if self.nba or self.queue or self.need_sweep:
            raise SimulationError(f"cohort {action} requires quiescence")

    def _resized(self) -> None:
        self.alive_all = bool(self.alive.all())
        self.ALL = np.ones(self.n, dtype=bool)
        self.lanes = np.arange(self.n, dtype=np.intp)

    def join(self, host: TaskHost, state: Optional[Dict[str, object]] = None) -> int:
        """Add a lane for *host*, booted (or, with *state*, quietly booted
        and restored) by a scalar engine; returns its index."""
        self._require_quiescent("join")
        scalar = CompiledSimulator(self.code.module, code=self.code,
                                   host=host if state is None else TaskHost())
        if state is not None:
            scalar.host = host
            scalar.restore_store(state)
        column = [[v] for v in scalar.store.data]
        self.d = np.hstack([self.d, np.array(column, dtype=np.uint64)])
        for name in self.mems:
            self.mems[name] = np.vstack([self.mems[name], np.array(
                [scalar.store.memories[name]], dtype=np.uint64)])
        cells = [[trig.cell[0]] for trig in scalar._events]
        self.prev = np.hstack([self.prev, np.array(cells, dtype=np.uint64)
                               .reshape(-1, 1)])
        self.alive = np.append(self.alive, not host.finished)
        self.times = np.append(self.times, np.uint64(scalar.time))
        self.hosts.append(host)
        self.n += 1
        self._resized()
        return self.n - 1

    def leave(self, lane: int) -> None:
        """Remove a lane (its state should be snapshot first)."""
        self._require_quiescent("leave")
        self.d, self.prev = (np.delete(rows, lane, axis=1)
                             for rows in (self.d, self.prev))
        self.alive, self.times = (np.delete(row, lane)
                                  for row in (self.alive, self.times))
        for name in self.mems:
            self.mems[name] = np.delete(self.mems[name], lane, axis=0)
        self.hosts.pop(lane)
        self.n -= 1
        self._resized()

    # -- per-lane state (scalar-store compatible) --------------------------

    def snapshot_lane(self, lane: int,
                      names: Optional[Iterable[str]] = None) -> Dict[str, object]:
        out = {name: int(self.d[slot, lane])
               for name, slot in self.layout.slot_of.items()}
        out.update((name, rows[lane].tolist()) for name, rows in self.mems.items())
        return out if names is None else {n: out[n] for n in names if n in out}

    def restore_lane(self, lane: int, snapshot: Dict[str, object]) -> None:
        """``Store.restore`` for one lane, edge detection re-primed from
        the restored clock as a scalar restore does: it is not an edge."""
        for name, value in snapshot.items():
            if name in self.mems and isinstance(value, list):
                _, word_mask, slot, depth = self.layout.mem_specs[name]
                words = [int(v) & word_mask for v in value[:depth]]
                self.mems[name][lane, :len(words)] = words
                # (the scalar restore marks the memory dirty regardless)
                self.need_sweep |= bool(self.code.comb_in[slot])
            elif name in self.layout.slot_of:
                slot = self.layout.slot_of[name]
                new = int(value) & self.layout.mask_of[name]
                if int(self.d[slot, lane]) != new:
                    self.d[slot, lane] = new
                    self.need_sweep |= bool(self.code.comb_in[slot])
        self.prev[:, lane] = self.d[self.batch.clock_slot, lane]

    def get_value(self, name: str, lane: int) -> int:
        slot = self.layout.slot_of.get(name)
        if slot is None:
            raise KeyError(f"no scalar signal {name!r}")
        return int(self.d[slot, lane])

    def set_value(self, name: str, value: int, lane) -> bool:
        """``Store.set`` on *lane* (an index or a mask), its drain into
        sweep requests and edge firings done eagerly (nothing intervenes)."""
        sel = lane if isinstance(lane, np.ndarray) else self.lanes == lane
        slot = self.layout.slot_of.get(name)
        if slot is None:
            raise KeyError(f"no scalar signal {name!r}")
        row = self.d[slot]
        new = np.uint64(int(value) & self.layout.mask_of[name])
        changed = sel & (row != new)
        if not changed.any():
            return False
        np.copyto(row, new, where=changed, casting="unsafe")
        self.need_sweep |= bool(self.code.comb_in[slot])
        if slot == self.batch.clock_slot:
            for k, proc, edge in self.batch.clock_entries:
                prev = self.prev[k]
                fired = changed & (prev != row) if edge is None else changed & (
                    (prev & _U1) != (row & _U1)) & ((row & _U1) == (edge == "posedge"))
                if fired.any():
                    self.queue += [] if proc in self.qmask else [proc]
                    self.qmask[proc] = self.qmask.get(proc, False) | fired
                np.copyto(prev, row, where=changed, casting="unsafe")
        return True

    # -- scheduling core ---------------------------------------------------

    def step(self) -> None:
        """Run what the store API fired, then the update region."""
        procs = [(self.batch.proc_fns[p], self.qmask.pop(p)) for p in self.queue]
        self.queue = []
        with np.errstate(over="ignore"):
            _phase(self, procs)

    def sync_alive(self) -> None:
        """Re-derive liveness from the hosts (a restore clears
        ``host.finished``), as the scalar per-tick check does."""
        self.alive[:] = [not host.finished for host in self.hosts]
        self.alive_all = bool(self.alive.all())

    def edge(self, clock: str, value: int) -> None:
        """Drive *clock* to *value* in every live lane and step."""
        self.set_value(clock, value, self.alive)
        self.step()

    def tick(self, cycles: int = 1, clock: Optional[str] = None) -> None:
        """The scalar period's mirror: the generated ``period`` from the
        resting state, as ``_tick_event`` runs ``period()``, else (or
        for another *clock*) each edge through the store API.  A lane
        finishing on the rising edge sees no fall but still advances."""
        clock = clock or self.batch.clock
        planned = clock == self.batch.clock
        rested = planned and bool(self.n and self.alive_all) and not (
            self.queue or self.nba or self.need_sweep or self.prev.any()
            or self.d[self.batch.clock_slot].any())
        with np.errstate(over="ignore"):
            for _ in range(cycles):
                if rested:
                    self.batch.period(self)
                else:
                    started = self.alive.copy()
                    if not started.any():
                        return
                    self.edge(clock, 1)
                    self.edge(clock, 0)
                    self.times[started] += _U1
                rested = planned and self.alive_all


_BATCH_MEMO: "weakref.WeakKeyDictionary[CompiledModuleCode, object]" = \
    weakref.WeakKeyDictionary()


def batch_code_for(code: CompiledModuleCode) -> BatchedModuleCode:
    """Build (or fetch) the lane program for *code*, memoized per code
    artifact — failures too, so scalar-fallback paths stay cheap."""
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
