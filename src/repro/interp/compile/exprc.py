"""Expression compiler: AST → Python source with widths baked in.

Mirrors :class:`repro.interp.eval_expr.Evaluator` exactly — the same
width contexts, the same masking points, the same error behaviour — but
resolves all of it *once* at elaboration time.  This is the one
lowering of expressions to executable source, over two carriers:

* the **scalar** carrier (:class:`ExprCompiler` itself): a value is a
  Python ``int``, a slot is ``d[i]``, a memory is a list.  Anything it
  cannot lower statically falls back to an ``EV`` call —
  ``Evaluator._eval`` on the original node at the same width — so
  behaviour (including runtime errors on never-executed paths) is
  bit-identical to the interpreter.
* the **lane** carrier (``batch.VectorExprCompiler``): a value is a
  ``uint64`` row over N tenants.  It inherits every width rule below
  and overrides only the *carrier idioms* at the end of the class —
  the dozen spellings an array cannot share with an ``int`` (truth,
  select, guarded reads, the signed view) — and runs the source
  against its own table of the same ``H_*`` helper names.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ...verilog import ast_nodes as ast
from ...verilog.width import WidthEnv, WidthError, const_eval, const_value

# Purity and node-count semantics are shared with the mid-end: pass
# legality (CSE, hoisting, DCE) and strict-codegen legality must agree
# on exactly which system functions are side-effect-free, so there is
# one definition (re-exported here under the emitter's historic names).
from ...opt.ir import expr_key, expr_nodes, expr_pure as expr_is_pure
from ...opt.ranges import interval


class CompileFallback(Exception):
    """Raised internally when a node cannot be compiled statically."""


#: the system functions an expression lowers (any other one is an
#: ``SYS`` call, or a fallback in strict mode)
LOWERED_SYSFUNCS = ("$signed", "$unsigned")


# Helper functions referenced from generated source.  They carry the
# rare/awkward semantics (guards, dynamic selects) so the common path
# stays branch-free inline arithmetic.

def _h_rsel(value: int, low: int, sel_mask: int) -> int:
    return (value >> low) & sel_mask if low >= 0 else 0


def _h_par(value: int) -> int:
    return bin(value).count("1") & 1


def _h_shl(left: int, shift: int, mw: int) -> int:
    return 0 if shift > 4096 else (left << shift) & mw


def _h_shr(left: int, shift: int) -> int:
    return 0 if shift > 4096 else left >> shift


def _h_sshr(left: int, shift: int, sb: int, mw: int) -> int:
    if shift > 4096:
        return 0
    return (((left ^ sb) - sb) >> shift) & mw


def _h_pow(base: int, exponent: int, width: int, mw: int) -> int:
    if exponent > 64:
        exponent = 64
    return pow(base, exponent, 1 << max(width, 1)) & mw


def _h_div(left: int, right: int, mw: int) -> int:
    return mw if right == 0 else left // right


def _h_sdiv(left: int, right: int, sb: int, mw: int) -> int:
    if right == 0:
        return mw
    sl = (left ^ sb) - sb
    sr = (right ^ sb) - sb
    return int(sl / sr) & mw


def _h_mod(left: int, right: int, mw: int) -> int:
    return mw if right == 0 else left % right


def _h_smod(left: int, right: int, sb: int, mw: int) -> int:
    if right == 0:
        return mw
    sl = (left ^ sb) - sb
    sr = (right ^ sb) - sb
    return (sl - sr * int(sl / sr)) & mw


HELPERS = {
    "H_rsel": _h_rsel, "H_par": _h_par, "H_shl": _h_shl,
    "H_shr": _h_shr, "H_sshr": _h_sshr, "H_pow": _h_pow, "H_div": _h_div,
    "H_sdiv": _h_sdiv, "H_mod": _h_mod, "H_smod": _h_smod,
}


def const_range_bounds(expr: ast.RangeSelect, env: WidthEnv) -> Tuple[int, int]:
    """``(low bit offset, width)`` of a constant ``[msb:lsb]`` select.

    The ``:`` clause of ``Evaluator._range_bounds`` (the reference,
    kept separate), shared by every emitter that resolves it at
    compile time: a descending declaration counts the offset from the
    select's ``msb`` end.
    """
    sig = env.base_signal(expr.base)
    msb = const_eval(expr.msb)
    lsb = const_eval(expr.lsb)
    low_index = lsb if (sig is None or sig.msb >= sig.lsb) else msb
    low = sig.bit_offset(low_index) if sig is not None else min(msb, lsb)
    return low, abs(msb - lsb) + 1


def dynamic_low_src(start: str, span: int, sig) -> str:
    """Source for the low bit offset of ``[start +: w]`` (*span* 0) /
    ``[start -: w]`` (*span* ``w - 1``): the dynamic clause of
    ``Evaluator._range_bounds``, as Python ints."""
    low_index = f"(({start}) - {span})" if span else f"({start})"
    if sig is None:
        return low_index
    if sig.msb >= sig.lsb:
        return f"{low_index} - {sig.lsb}" if sig.lsb else low_index
    return f"{sig.lsb} - {low_index}"


class ExprCompiler:
    """Compiles expressions of one module into Python source fragments."""

    #: lane word of the carrier: ``None`` for Python ints (unbounded),
    #: 64 for ``uint64`` rows.  Bounds every ``_ex`` width and folds
    #: the constant shifts / select offsets a machine word cannot hold.
    word: Optional[int] = None

    #: the range-fact licence: ``None`` (always at ``-O0``) keeps every
    #: guard and mask; a dict (loop variable → range while its counted
    #: body is emitted) lets :meth:`fits` delete the ones proved idle
    bound: Optional[Dict[str, range]] = None

    def __init__(self, env: WidthEnv, slot_of: Dict[str, int],
                 mem_slot_of: Dict[str, int]):
        self.env = env
        self.slot_of = slot_of
        self.mem_slot_of = mem_slot_of
        #: runtime objects referenced from generated source as ``c<i>``
        self.consts: List[object] = []
        #: mask/value pool: very wide literals get one named constant
        #: instead of re-printing hundreds of hex digits per use site
        self._wide_pool: Dict[int, str] = {}
        #: strict mode: raise instead of emitting an ``EV``/``SYS``
        #: escape — the procedural (slot-cached) emitter needs to know
        #: the body never touches the store behind its back
        self.strict = False
        #: pluggable slot-read source; the procedural emitter installs
        #: a local-variable cache here
        self.slot_src: "Callable[[int], str]" = self._direct_slot
        #: counter for walrus-binding names in inlined guarded reads
        self._binds = 0
        # -- statement-level hoisting (procedural bodies only) --------
        #: structural keys occurring >= 2x in the statement under
        #: compilation (None = hoisting off)
        self._hoist_counts = None
        #: (key, width) -> hoisted local name
        self._hoist_memo: Dict[tuple, str] = {}
        #: emits one prelude line into the enclosing statement position
        self._hoist_sink = None
        self._hoists = 0
        #: what the range facts licensed, and the rotations lowered
        #: (``--sim-source`` prints it)
        self.facts = {"loops": 0, "counted": 0, "guards": 0, "masks": 0,
                      "rotations": 0}

    @staticmethod
    def _direct_slot(slot: int) -> str:
        return f"d[{slot}]"

    # -- shared emission plumbing -----------------------------------------

    def const_ref(self, obj: object) -> str:
        self.consts.append(obj)
        return f"c{len(self.consts) - 1}"

    def lit_ref(self, value: int) -> str:
        """Source for an integer literal; literals wider than a machine
        word are interned once in the constant pool (the emitted module
        for a 256-bit datapath would otherwise repeat 64-hex-digit
        masks at every use site)."""
        if value.bit_length() <= 64:
            return repr(value)
        name = self._wide_pool.get(value)
        if name is None:
            name = self.const_ref(value)
            self._wide_pool[value] = name
        return name

    def mem_ref(self, name: str) -> str:
        return f"m{self.mem_slot_of[name]}"

    def fits(self, expr: ast.Expr, lo: int, hi: int, kind: str) -> bool:
        """Do the range facts prove ``lo <= expr <= hi``?  Never without
        the licence; a yes is booked as one dropped check of *kind*."""
        proved = self.bound is not None and interval(expr, self.env, self.bound)
        if not proved or proved[0] < lo or proved[1] > hi:
            return False
        self.facts[kind] += 1
        return True

    # -- public entry points -----------------------------------------------

    def compile(self, expr: ast.Expr, context_width: int = 0) -> str:
        """Source for ``Evaluator.eval(expr, context_width)``."""
        width = max(self.env.width_of(expr), context_width)
        return self.compile_at(expr, width)

    def compile_at(self, expr: ast.Expr, width: int) -> str:
        """Source for ``Evaluator._eval(expr, width)``; falls back to EV.

        In strict mode the fallback is disallowed instead: the
        procedural emitter caches slots in locals, and an ``EV``
        escape would read the store behind the cache.
        """
        try:
            return self._ex(expr, width)
        except (CompileFallback, WidthError):
            if self.strict:
                raise
            return f"EV({self.const_ref(expr)}, {width})"

    def compile_cond(self, expr: ast.Expr) -> str:
        """Source for a *Python* boolean context (``if``/``while``).

        Comparisons and logical connectives skip the 0/1
        materialization — truthiness of the bare Python expression is
        exactly ``eval_bool`` of the 0/1 value, and short-circuiting
        matches the interpreter's ``&&``/``||`` evaluation order.
        """
        try:
            return self._ex_cond(expr)
        except (CompileFallback, WidthError):
            if self.strict:
                raise
            return f"EV({self.const_ref(expr)}, {self.env.width_of(expr)})"

    def _ex_cond(self, e: ast.Expr) -> str:
        if isinstance(e, ast.Binary):
            op = e.op
            if op in ("==", "!=", "===", "!==", "<", "<=", ">", ">="):
                return self._cmp_src(e)
            if op in ("&&", "||"):
                return "(" + self._join(op, self._ex_cond(e.left),
                                        self._ex_cond(e.right)) + ")"
        if isinstance(e, ast.Unary) and e.op == "!":
            return self._not(self._ex_cond(e.operand))
        return self._truth(self._ex(e, self.env.width_of(e)))

    def _ex_chain(self, e: ast.Expr, w: int) -> str:
        """Unmasked source for a +/-/* chain member at context width *w*.

        Only the nested ring operators go unmasked; every other node
        compiles normally (masked) and enters the chain as a leaf.  On
        a bounded carrier a constant-only member is such a leaf too:
        unmasked, Python would hand the lanes a negative or over-wide
        ``int`` that no ``uint64`` can hold.
        """
        if (isinstance(e, ast.Binary) and e.op in ("+", "-", "*")
                and (self.word is None or const_value(e) is None)):
            return (f"(({self._ex_chain(e.left, w)}) {e.op} "
                    f"({self._ex_chain(e.right, w)}))")
        return self._ex(e, w)

    def _cmp_src(self, e: ast.Binary) -> str:
        """Bare Python comparison source for a relational operator."""
        op = e.op
        cmp_width = max(self.env.width_of(e.left), self.env.width_of(e.right))
        left = self._ex(e.left, cmp_width)
        right = self._ex(e.right, cmp_width)
        if self.env.is_signed(e.left) and self.env.is_signed(e.right):
            sb = self.lit_ref(1 << (cmp_width - 1)) if cmp_width else "0"
            left = self._signed(left, sb)
            right = self._signed(right, sb)
        py_op = {"===": "==", "!==": "!="}.get(op, op)
        return f"({left}) {py_op} ({right})"

    # -- statement-level hoisting ------------------------------------------

    def begin_hoist(self, roots, sink) -> None:
        """Enable common-subexpression hoisting for one statement.

        Pure subexpressions occurring more than once across *roots*
        are bound to a prelude local (emitted through *sink*) the
        first time they compile at a given width, and reused after.
        Legal only in procedural bodies: hoisting may evaluate an
        untaken ternary arm's subexpression, which is unobservable
        precisely because strict-compiled expressions are pure, total
        (every partial operation is guarded), and two-state.
        """
        counts: Dict[tuple, int] = {}
        for root in roots:
            for node in ast.walk_expr(root):
                if isinstance(node, (ast.Number, ast.Identifier, ast.String)):
                    continue
                key = expr_key(node)
                counts[key] = counts.get(key, 0) + 1
        self._hoist_counts = {k for k, c in counts.items() if c >= 2}
        self._hoist_memo = {}
        self._hoist_sink = sink

    def end_hoist(self) -> None:
        self._hoist_counts = None
        self._hoist_memo = {}
        self._hoist_sink = None

    # -- the mirror of Evaluator._eval ------------------------------------

    def _ex(self, e: ast.Expr, w: int) -> str:
        if self.word is not None and not 1 <= w <= self.word:
            raise CompileFallback(f"expression width {w} outside the "
                                  f"{self.word}-bit lane word")
        if self._hoist_counts is not None and not isinstance(
                e, (ast.Number, ast.Identifier, ast.String)):
            key = expr_key(e)
            if key in self._hoist_counts:
                var = self._hoist_memo.get((key, w))
                if var is None and expr_nodes(e) >= 3 and expr_is_pure(e):
                    src = self._ex_node(e, w)
                    self._hoists += 1
                    var = f"_h{self._hoists}"
                    self._hoist_sink(f"{var} = {src}")
                    self._hoist_memo[(key, w)] = var
                if var is not None:
                    return var
        return self._ex_node(e, w)

    def _ex_node(self, e: ast.Expr, w: int) -> str:
        mw = (1 << w) - 1
        if isinstance(e, ast.Number):
            return self.lit_ref(e.value & mw if w else e.value)
        if isinstance(e, ast.String):
            value = 0
            for ch in e.value:
                value = (value << 8) | ord(ch)
            return self.lit_ref(value & mw)
        if isinstance(e, ast.Identifier):
            sig = self.env.signal(e.name)
            if sig.is_memory:
                raise CompileFallback("memory used without an index")
            src = self.slot_src(self.slot_of[e.name])
            if w < sig.width:
                src = f"({src} & {self.lit_ref(mw)})"
            return src
        if isinstance(e, ast.Index):
            return self._ex_index(e)
        if isinstance(e, ast.RangeSelect):
            src = self._ex_range(e)
            sel_width = self.env.width_of(e)
            if w < sel_width:
                src = f"({src} & {mw})"
            return src
        if isinstance(e, ast.Concat):
            rotation = self._rotation(e, w)
            if rotation is not None:
                return f"({rotation} & {self.lit_ref(mw)})"
            parts = []
            shift = sum(self.env.width_of(p) for p in e.parts)
            for part in e.parts:
                part_width = self.env.width_of(part)
                shift -= part_width
                part_src = self._ex(part, part_width)
                parts.append(f"({part_src} << {shift})" if shift else part_src)
            return "(" + " | ".join(parts) + ")"
        if isinstance(e, ast.Repeat):
            count = const_eval(e.count)
            unit_width = self.env.width_of(e.value)
            unit = self._ex(e.value, unit_width)
            if count <= 1:
                return unit if count == 1 else "0"
            # N copies side by side = one multiply by 1 + 2^w + 2^2w + ...
            # (the unit is below 2^w, so no copy carries into the next;
            # a lane carrier's total is at most its word, so no overflow)
            ones = sum(1 << (i * unit_width) for i in range(count))
            return f"(({unit}) * {self.lit_ref(ones)})"
        if isinstance(e, ast.Unary):
            return self._ex_unary(e, w, mw)
        if isinstance(e, ast.Binary):
            return self._ex_binary(e, w, mw)
        if isinstance(e, ast.Ternary):
            cond = self._ex_cond(e.cond)
            if_true = self._ex(e.if_true, w)
            if_false = self._ex(e.if_false, w)
            return self._select(cond, if_true, if_false)
        if isinstance(e, ast.SysCall):
            if e.name in LOWERED_SYSFUNCS:
                return self._ex(e.args[0], w)
            return self._syscall(e, w, mw)
        raise CompileFallback(f"cannot compile {type(e).__name__}")

    def _bind(self) -> str:
        """Fresh walrus-binding name for inlined guarded accesses."""
        self._binds += 1
        return f"_g{self._binds}"

    def _ex_index(self, e: ast.Index) -> str:
        if not isinstance(e.base, ast.Identifier):
            base = self._ex(e.base, self.env.width_of(e.base))
            return self._bit_of(base, self.compile(e.index))
        sig = self.env.signal(e.base.name)
        cidx = const_value(e.index)
        if sig.is_memory:
            memory = self.mem_ref(e.base.name)
            if cidx is not None:
                idx = cidx - sig.base
                if 0 <= idx < (sig.depth or 0):
                    return self._mem_word(memory, idx)
                return "0"
            depth = sig.depth or 0
            proved = self.fits(e.index, sig.base, sig.base + depth - 1,
                               "guards")
            idx = self.compile(e.index)
            if sig.base:
                idx = f"({idx}) - {sig.base}"
            return self._mem_guarded(memory, idx, depth, proved)
        slot = self.slot_of[e.base.name]
        if cidx is not None:
            offset = sig.bit_offset(cidx)
            if 0 <= offset < sig.width:
                return f"(({self.slot_src(slot)} >> {offset}) & 1)"
            return "0"
        return self._bit_dyn(sig, slot, self.compile(e.index))

    def _ex_range(self, e: ast.RangeSelect) -> str:
        base = self._ex(e.base, self.env.width_of(e.base))
        if e.mode == ":":
            low, sel_width = const_range_bounds(e, self.env)
            if low < 0 or (self.word is not None and low >= self.word):
                return "0"
            sel_mask = (1 << sel_width) - 1
            if self.fits(e.base, 0, ((sel_mask + 1) << low) - 1, "masks"):
                # reaches the top of all the base can hold: nothing to clear
                return f"({base} >> {low})" if low else base
            return f"(({base} >> {low}) & {sel_mask})" if low else f"({base} & {sel_mask})"
        sel_width = const_eval(e.lsb)
        return self._range_dyn(e, base, self.compile(e.msb), sel_width)

    def _ex_unary(self, e: ast.Unary, w: int, mw: int) -> str:
        op = e.op
        if op == "!":
            return self._nb2i(f"({self._ex_cond(e.operand)})")
        if op in ("&", "~&", "|", "~|", "^", "~^", "^~"):
            operand_width = self.env.width_of(e.operand)
            value = self._ex(e.operand, operand_width)
            full = self.lit_ref((1 << operand_width) - 1)
            if op == "&":
                return self._b2i(f"({value}) == {full}")
            if op == "~&":
                return self._nb2i(f"({value}) == {full}")
            if op == "|":
                return self._b2i(f"({self._truth(value)})")
            if op == "~|":
                return self._nb2i(f"({self._truth(value)})")
            if op == "^":
                return f"H_par({value})"
            return f"(H_par({value}) ^ 1)"  # ~^ / ^~
        value = self._ex(e.operand, w)
        if op == "~":
            return f"(({value}) ^ {self.lit_ref(mw)})"
        if op == "-":
            return f"(-({value}) & {self.lit_ref(mw)})"
        raise CompileFallback(f"unknown unary operator {op!r}")

    def _ex_binary(self, e: ast.Binary, w: int, mw: int) -> str:
        op = e.op
        if op in ("&&", "||"):
            return self._b2i(self._join(op, self._ex_cond(e.left),
                                        self._ex_cond(e.right)))
        if op in ("==", "!=", "===", "!==", "<", "<=", ">", ">="):
            return self._b2i(self._cmp_src(e))
        if op in ("<<", ">>", "<<<", ">>>"):
            left = self._ex(e.left, w)
            arith_right = op == ">>>" and self.env.is_signed(e.left)
            sb = self.lit_ref(1 << (w - 1)) if w else "0"
            cshift = const_value(e.right)
            if cshift is not None:
                if cshift > 4096:
                    return "0"
                if arith_right:
                    return self._sshr_const(left, cshift, sb, self.lit_ref(mw))
                if self.word is not None and cshift >= self.word:
                    return "0"  # every bit leaves the word
                if op in ("<<", "<<<"):
                    return f"((({left}) << {cshift}) & {self.lit_ref(mw)})"
                return f"(({left}) >> {cshift})"
            shift = self.compile(e.right)
            if op in ("<<", "<<<"):
                return f"H_shl({left}, {shift}, {self.lit_ref(mw)})"
            if arith_right:
                return f"H_sshr({left}, {shift}, {sb}, {self.lit_ref(mw)})"
            return f"H_shr({left}, {shift})"
        if op == "**":
            left = self._ex(e.left, w)
            exponent = self.compile(e.right)
            return f"H_pow({left}, {exponent}, {w}, {self.lit_ref(mw)})"
        if op in ("+", "-", "*"):
            if self.strict:
                # Specialized bodies re-associate modular arithmetic:
                # +/-/* form a ring mod 2^w, so a whole chain needs
                # exactly one mask at its root — the interpreter's
                # per-operation masks are the identity on the result.
                left = self._ex_chain(e.left, w)
                right = self._ex_chain(e.right, w)
            else:
                left = self._ex(e.left, w)
                right = self._ex(e.right, w)
            if op != "*" and self.fits(e, 0, mw, "masks"):
                return f"(({left}) {op} ({right}))"  # proved not to wrap
            return f"((({left}) {op} ({right})) & {self.lit_ref(mw)})"
        if op in ("&", "|", "^"):
            src, clean = self._bitwise(e, w)
            return src if clean else f"({src} & {self.lit_ref(mw)})"
        left = self._ex(e.left, w)
        right = self._ex(e.right, w)
        if op in ("/", "%"):
            signed = self.env.is_signed(e.left) and self.env.is_signed(e.right)
            sb = self.lit_ref(1 << (w - 1)) if w else "0"
            mws = self.lit_ref(mw)
            helper = {
                ("/", False): f"H_div({left}, {right}, {mws})",
                ("/", True): f"H_sdiv({left}, {right}, {sb}, {mws})",
                ("%", False): f"H_mod({left}, {right}, {mws})",
                ("%", True): f"H_smod({left}, {right}, {sb}, {mws})",
            }
            return helper[(op, signed)]
        if op in ("~^", "^~"):
            return f"(((({left}) ^ ({right}))) ^ {self.lit_ref(mw)})"
        raise CompileFallback(f"unknown binary operator {op!r}")

    def _bitwise(self, e: ast.Binary, w: int) -> Tuple[str, bool]:
        """``(source, clean)`` of a ``&``/``|``/``^`` node at width *w*.

        A rotation member arrives unmasked, with bits above *w*; the
        chain it sits in takes one mask at its root instead of one per
        rotation.  ``clean`` says no such bit survives: an ``&`` with
        one clean side is clean, ``|`` and ``^`` need both.
        """
        left, left_clean = self._bits(e.left, w)
        right, right_clean = self._bits(e.right, w)
        clean = (left_clean or right_clean if e.op == "&"
                 else left_clean and right_clean)
        return f"(({left}) {e.op} ({right}))", clean

    def _bits(self, e: ast.Expr, w: int) -> Tuple[str, bool]:
        """A bitwise chain member: unmasked when it is a rotation or a
        chain of its own, masked by :meth:`_ex` otherwise — and always
        when the statement hoists it."""
        if not (self._hoist_counts and expr_key(e) in self._hoist_counts):
            if isinstance(e, ast.Binary) and e.op in ("&", "|", "^"):
                return self._bitwise(e, w)
            rotation = self._rotation(e, w)
            if rotation is not None:
                return rotation, False
        return self._ex(e, w), True

    def _rotation(self, e: ast.Expr, w: int) -> Optional[str]:
        """``(D >> k)`` for ``{b[k-1:0], b[W-1:k]}`` at context ``W``,
        garbage above bit ``W`` left for the caller to mask.  ``D = b *
        (2^W + 1)`` is ``b | b << W``, reading the pure base once; a
        hoisting statement binds it once per base through its sink.
        Scalar carrier only: ``2W`` bits need not fit a lane word."""
        parts = e.parts if isinstance(e, ast.Concat) else ()
        if (self.word is not None or len(parts) != 2 or not all(
                isinstance(p, ast.RangeSelect) and p.mode == ":"
                for p in parts)):
            return None
        base = parts[0].base
        if (self.env.width_of(base) != w or not expr_is_pure(base)
                or expr_key(base) != expr_key(parts[1].base)):
            return None
        (top, k), (low, rest) = (const_range_bounds(p, self.env) for p in parts)
        if top != 0 or low != k or k + rest != w:
            return None
        key = ("rotation", expr_key(base))
        doubled = self._hoist_memo.get(key)
        if doubled is None:
            doubled = f"({self._ex(base, w)} * {self.lit_ref((1 << w) + 1)})"
            if self._hoist_sink is not None:
                self._hoists += 1
                self._hoist_sink(f"_h{self._hoists} = {doubled}")
                doubled = self._hoist_memo[key] = f"_h{self._hoists}"
        self.facts["rotations"] += 1
        return f"({doubled} >> {k})"

    # -- carrier idioms -----------------------------------------------------
    #
    # Everything above is width algebra and holds for any carrier.  The
    # methods below are the spellings a ``uint64`` row cannot share with
    # a Python ``int``; the lane carrier overrides these and only these.

    def _truth(self, value: str) -> str:
        """*value* in a boolean position (an ``int`` is its own truth)."""
        return value

    def _b2i(self, cond: str) -> str:
        return f"(1 if {cond} else 0)"

    def _nb2i(self, cond: str) -> str:
        return f"(0 if {cond} else 1)"

    def _join(self, op: str, left: str, right: str) -> str:
        return f"({left}) {'and' if op == '&&' else 'or'} ({right})"

    def _not(self, cond: str) -> str:
        return f"(not ({cond}))"

    def _select(self, cond: str, if_true: str, if_false: str) -> str:
        return f"(({if_true}) if ({cond}) else ({if_false}))"

    def _signed(self, value: str, sb: str) -> str:
        """Two's-complement view of *value* (sign bit *sb*)."""
        return f"((({value}) ^ {sb}) - {sb})"

    def _sshr_const(self, left: str, shift: int, sb: str, mws: str) -> str:
        return f"(({self._signed(left, sb)} >> {shift}) & {mws})"

    def _bit_of(self, base: str, bit: str) -> str:
        return f"(({base} >> ({bit})) & 1)"

    def _mem_word(self, memory: str, idx: int) -> str:
        return f"{memory}[{idx}]"

    def _mem_guarded(self, memory: str, idx: str, depth: int,
                     proved: bool) -> str:
        if proved:  # the index interval lies inside the memory
            return f"{memory}[{idx}]"
        # Guarded read inlined via a walrus binding: the index is
        # evaluated exactly once (in the condition, i.e. before the
        # word load — the interpreter's order) and the per-access
        # helper call disappears from the hot loop.
        tmp = self._bind()
        return (f"({memory}[{tmp}] if 0 <= ({tmp} := ({idx}))"
                f" < {depth} else 0)")

    def _bit_dyn(self, sig, slot: int, idx: str) -> str:
        if sig.msb >= sig.lsb:
            offset = f"({idx}) - {sig.lsb}" if sig.lsb else idx
        else:
            offset = f"{sig.lsb} - ({idx})"
        # The condition evaluates the offset before the slot is read,
        # matching the interpreter's index-then-load order.
        tmp = self._bind()
        return (f"(({self.slot_src(slot)} >> {tmp}) & 1"
                f" if 0 <= ({tmp} := ({offset})) < {sig.width} else 0)")

    def _syscall(self, e: ast.SysCall, w: int, mw: int) -> str:
        if self.strict:
            # SYS evaluates its arguments through the reference
            # evaluator, i.e. against the store — invisible to the
            # procedural emitter's local slot cache.
            raise CompileFallback(f"system function {e.name}")
        return f"(SYS({self.const_ref(e)}, {w}) & {self.lit_ref(mw)})"

    def _range_dyn(self, e: ast.RangeSelect, base: str, start: str,
                   sel_width: int) -> str:
        """Dynamic ``+:`` / ``-:`` read of *sel_width* bits at *start*."""
        low = dynamic_low_src(start, sel_width - 1 if e.mode == "-:" else 0,
                              self.env.base_signal(e.base))
        sel_mask = (1 << sel_width) - 1
        if expr_is_pure(e.base) and expr_is_pure(e.msb):
            # Inline the guard; legal only for pure operands because
            # the conditional evaluates the low bound before the base,
            # while the helper call evaluates base-then-low.
            tmp = self._bind()
            return (f"(({base} >> {tmp}) & {sel_mask}"
                    f" if ({tmp} := ({low})) >= 0 else 0)")
        return f"H_rsel({base}, {low}, {sel_mask})"
