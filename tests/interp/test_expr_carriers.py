"""One expression lowering, two carriers, one reference.

Every row of the table below is evaluated three ways over the same
four operand vectors — :class:`Evaluator` (the reference), the scalar
:class:`ExprCompiler` source over Python ints, and the
``VectorExprCompiler`` source over four ``uint64`` lanes — and all
three must agree bit for bit, at the expression's own width and in a
64-bit context.  The table reaches the quirks the fuzz grammar only
touches on the ~20 % of seeds that vectorise: shift amounts around the
lane word and the 4096 cut-off, division by zero, float-truncating
signed division, the exponent clamp, out-of-range selects on ascending
and descending vectors (including a start >= 2^63), memory reads out of
bounds and off a non-zero base.

The lane column needs NumPy; the scalar column runs without it.
"""

import random
from types import SimpleNamespace

import pytest

from repro.interp.compile.exprc import HELPERS, ExprCompiler
from repro.interp.compile.slots import SlotLayout, SlotStore
from repro.interp.eval_expr import Evaluator
from repro.verilog import ast_nodes as ast
from repro.verilog import parse_module
from repro.verilog.parser import parse_expr
from repro.verilog.width import WidthEnv

WIDTHS = (1, 8, 33, 64)
LANES = 4
TIMES = (0, 7, 1 << 40, (1 << 64) - 2)

MODULE = parse_module("""
module carriers(input wire clock);
  reg a1, b1;
  reg [7:0] a8, b8;
  reg [32:0] a33, b33;
  reg [63:0] a64, b64;
  reg signed [0:0] s1, t1;
  reg signed [7:0] s8, t8;
  reg signed [32:0] s33, t33;
  reg signed [63:0] s64, t64;
  reg [15:0] n16;
  reg [63:0] i64;
  reg [0:7] d8;
  reg [11:4] o8;
  reg [4:11] p8;
  reg [-4:3] q8;
  reg [3:-4] r8;
  reg [7:0] mem [0:3];
  reg [7:0] memb [4:7];
endmodule
""")
ENV = WidthEnv(MODULE)
LAYOUT = SlotLayout(ENV)

MEM = {"mem": [0x11, 0x22, 0x33, 0x44], "memb": [0xA1, 0xB2, 0xC3, 0xD4]}


def _corners(width):
    top = (1 << width) - 1
    return [0, 1, top, top >> 1, 1 << (width - 1), 0xA5A5A5A5A5A5A5A5 & top,
            3 & top, 7 & top]


def _operands(expr, pinned):
    """Four lanes of values for every signal *expr* reads."""
    rng = random.Random(str(expr))
    names = sorted({n.name for n in ast.walk_expr(expr)
                    if isinstance(n, ast.Identifier)
                    and not ENV.signal(n.name).is_memory})
    lanes = []
    for lane in range(LANES):
        values = {}
        for name in names:
            if name in pinned:
                values[name] = pinned[name][lane]
            else:
                width = ENV.signal(name).width
                # lane 0: both operands 0 (division by zero, 0 ** 0)
                values[name] = 0 if lane == 0 else rng.choice(_corners(width))
        lanes.append(values)
    return lanes


# -- the table ---------------------------------------------------------------

BINARY = ("+", "-", "*", "/", "%", "&", "|", "^", "~^", "^~", "==", "!=",
          "===", "!==", "<", "<=", ">", ">=", "&&", "||", "<<", ">>", "<<<",
          ">>>", "**")
UNARY = ("!", "~", "-", "&", "~&", "|", "~|", "^", "~^", "^~")
SHIFTS = (63, 64, 65, 4096, 4097)
HUGE = (0, 7, 1 << 63, (1 << 64) - 1)

CASES = []


def case(text, **pinned):
    CASES.append((text, pinned))


for w in WIDTHS:
    a, b, s, t = f"a{w}", f"b{w}", f"s{w}", f"t{w}"
    for op in BINARY:
        case(f"{a} {op} {b}")
    for op in UNARY:
        case(f"{op}{a}")
        case(f"{op}{s}")
    # signed flavours: comparison, division with negative operands, >>>
    for op in ("<", "<=", ">", ">=", "==", "/", "%", ">>>"):
        case(f"{s} {op} {t}")
    top = (1 << w) - 1
    case(f"{s} / {t}", **{s: (top, top, 1 << (w - 1), 5 & top),
                          t: (0, top, top, top - 1 if w > 1 else 1)})
    case(f"{s} % {t}", **{s: (top, top - 2 if w > 1 else 1, 1 << (w - 1), 7 & top),
                          t: (0, 3 & top, top, top - 2 if w > 1 else 1)})
    case(f"{a} ? {b} : ~{b}")
    case(f"({a} < {b}) ? {a} : {b}")
    case(f"({a} < {b}) ? 5 : 7")
    case(f"{a} ? {top} : 0")
    case(f"!(2 < 3) + {a} + (3 <= 3)")
    case(f"({a} + {b}) * ({a} - {b}) + 3")
    case(f"(3 - 5) * {a} + (2 - 7)")
    case(f"{{{a}, 1'b1}} == {{1'b0, {b}}}" if w < 64 else f"{a} == ~{b}")
    case(f"$clog2({a})")
    case(f"-{a} + !{b} + (&{a}) + (^{b})")
    # shift amounts around the lane word and the 4096 cut-off
    for op in ("<<", ">>", "<<<", ">>>"):
        for amount in SHIFTS:
            case(f"{a} {op} {amount}")
            case(f"{s} {op} {amount}")
        case(f"{a} {op} n16", n16=(63, 64, 65, 4097))
        case(f"{s} {op} n16", n16=(4096, 0, 1, 62),
             **{s: (top, top, 1 << (w - 1), top >> 1)})
        case(f"{s} {op} i64", i64=HUGE, **{s: (top, top, top, top)})
    case(f"{a} ** b8", b8=(0, 1, 65, 200))
    case(f"{s} >>> 2", **{s: (top, 1 << (w - 1), top >> 1, 0)})

case("a8 << -1")
case("{a8, b8}")
case("{a1, a8, b8, a33}")
case("{4{a8}}")
case("{8{a8}}")
case("{1{a33}} + {0{a8}}")
case("{2{a1, b1}}")
# replication is one multiply by 1 + 2^w + ...: unit widths 1/8/33,
# counts 0/1/2 and a 64-bit total (the lane word, exactly full)
case("{64{a1}}")
case("{2{a8}} + {0{a33}}")
case("{2{a1}} ^ {1{a8}}")
case("a64 ** a64")
case("$time")
case("$time + a8")
case("$stime")
case("\"ab\" + a8")
case("4'd9 + a8")

# bit selects: constant and dynamic, in and out of range
for vec in ("a8", "d8", "o8", "p8", "q8", "a64"):
    for index in (0, 4, 7, 8, 11, 12, 63, 64, 200):
        case(f"{vec}[{index}]")
    case(f"{vec}[i64]", i64=(0, 7, 8, 11))
    case(f"{vec}[i64]", i64=(4, 12, 1 << 63, (1 << 64) - 1))
    case(f"{vec}[a8]", a8=(5, 63, 64, 255))
    for mode in ("+:", "-:"):
        case(f"{vec}[i64 {mode} 4]", i64=(0, 3, 4, 7))
        case(f"{vec}[i64 {mode} 4]", i64=(8, 11, 12, 14))
        case(f"{vec}[i64 {mode} 4]", i64=(63, 64, 1 << 63, (1 << 64) - 1))
        case(f"{vec}[i64 {mode} 1]", i64=(5, 1 << 62, (1 << 63) + 5, (1 << 64) - 4))
case("a8[7:4]")
case("a8[70:65]")
case("d8[2:5]")
case("o8[9:6]")
case("o8[3:0]")
case("p8[6:9]")
case("q8[-2:1]")
case("r8[1:-2] + r8[3]")
case("a64[63:32] + a64[31:0]")
# rotations: the scalar carrier's doubled word at the base's own width
# (context 0), the two-select spelling in a wider context and on lanes
case("{a8[2:0], a8[7:3]}")
case("{a8[2:0], a8[7:3]} ^ (a8 >> 3) ^ {a8[6:0], a8[7:7]}")
case("({a33[31:0], a33[32:32]} | 33'd5) & ~b33")
case("{a64[0:0], a64[63:1]} ^ {a64[62:0], a64[63:63]}")
case("{d8[7:5], d8[4:0]} & {d8[7:7], d8[6:0]}")

# memories: in and out of bounds, zero and non-zero base
for index in (0, 3, 4, 9):
    case(f"mem[{index}]")
for index in (1, 4, 7, 8):
    case(f"memb[{index}]")
case("mem[a8]", a8=(0, 3, 4, 255))
case("memb[a8]", a8=(3, 4, 7, 8))
case("memb[i64]", i64=(5, 0, 1 << 63, (1 << 64) - 1))
case("mem[a8] + memb[b8]", a8=(1, 2, 9, 0), b8=(4, 5, 6, 0))


def _special(text):
    """Shapes the expression grammar cannot spell (select of a value)."""
    base = parse_expr("{a8, b8}")
    index = parse_expr(text)
    return ast.Index(base, index)


VALUE_BIT_CASES = [
    (_special("i64"), {"i64": (0, 15, 16, (1 << 64) - 1)}),
    (_special("a1 + 9"), {}),
    (_special("70"), {}),
]


def _table():
    for text, pinned in CASES:
        yield pytest.param(parse_expr(text), pinned, id=text)
    for expr, pinned in VALUE_BIT_CASES:
        yield pytest.param(expr, pinned, id=str(expr))


# -- the three evaluations ---------------------------------------------------

def _store(values):
    store = SlotStore(ENV, LAYOUT)
    for name, value in values.items():
        store.set(name, value, notify=False)
    for name, words in MEM.items():
        base = ENV.signal(name).base
        for offset, word in enumerate(words):
            store.mem_set(name, base + offset, word, notify=False)
    return store


def _sysfunc_at(time, evaluator_of):
    def sysfunc(expr, width):
        if expr.name in ("$time", "$stime"):
            return time
        assert expr.name == "$clog2"
        return max(0, (evaluator_of().eval(expr.args[0]) - 1).bit_length())
    return sysfunc


def _reference(expr, context, lanes):
    out = []
    for lane, values in enumerate(lanes):
        evaluator = Evaluator(ENV, _store(values))
        evaluator.sysfunc = _sysfunc_at(TIMES[lane], lambda: evaluator)
        out.append(evaluator.eval(expr, context))
    return out


def _scalar(expr, context, lanes, licensed=False):
    compiler = ExprCompiler(ENV, LAYOUT.slot_of, LAYOUT.mem_slot_of)
    if licensed:
        compiler.bound = {}  # range facts on: mask-free selects and sums
    source = compiler.compile(expr, context)
    out = []
    for lane, values in enumerate(lanes):
        store = _store(values)
        evaluator = Evaluator(ENV, store)
        evaluator.sysfunc = _sysfunc_at(TIMES[lane], lambda: evaluator)
        namespace = dict(HELPERS, d=store.data, EV=evaluator._eval,
                         SYS=evaluator.sysfunc)
        for name, slot in LAYOUT.mem_slot_of.items():
            namespace[f"m{slot}"] = store.memories[name]
        for i, obj in enumerate(compiler.consts):
            namespace[f"c{i}"] = obj
        out.append(eval(source, namespace))
    return out


def _lanes(expr, context, lanes):
    import numpy as np
    from repro.interp.compile import batch

    compiler = batch.VectorExprCompiler(ENV, LAYOUT)
    source = compiler.compile(expr, context)
    d = np.zeros((LAYOUT.n_scalars, LANES), dtype=np.uint64)
    for lane, values in enumerate(lanes):
        for name, value in values.items():
            d[LAYOUT.slot_of[name], lane] = value & LAYOUT.mask_of[name]
    mems = {name: np.array([words] * LANES, dtype=np.uint64)
            for name, words in MEM.items()}
    st = SimpleNamespace(d=d, mems=mems, n=LANES,
                         lanes=np.arange(LANES, dtype=np.intp),
                         times=np.array(TIMES, dtype=np.uint64))
    with np.errstate(over="ignore"):
        value = eval(source, dict(batch.HELPERS), {"st": st})
    assert not isinstance(value, (bool, np.bool_, float)), source
    if isinstance(value, np.ndarray):
        assert value.dtype == np.uint64, (source, value.dtype)
    row = np.broadcast_to(np.asarray(value, dtype=np.uint64), (LANES,))
    return [int(v) for v in row]


@pytest.mark.parametrize("expr,pinned", _table())
def test_scalar_carrier_matches_the_evaluator(expr, pinned):
    lanes = _operands(expr, pinned)
    for context in (0, 64):
        want = _reference(expr, context, lanes)
        assert _scalar(expr, context, lanes) == want
        assert _scalar(expr, context, lanes, licensed=True) == want


@pytest.mark.parametrize("expr,pinned", _table())
def test_lane_carrier_matches_the_evaluator(expr, pinned):
    pytest.importorskip("numpy")
    lanes = _operands(expr, pinned)
    for context in (0, 64):
        assert _lanes(expr, context, lanes) == _reference(expr, context, lanes)


def test_lane_conditions_are_boolean_masks():
    """``compile_cond`` source is usable as a lane mask, constants too."""
    np = pytest.importorskip("numpy")
    from repro.interp.compile import batch

    compiler = batch.VectorExprCompiler(ENV, LAYOUT)
    st = SimpleNamespace(d=np.zeros((LAYOUT.n_scalars, LANES), dtype=np.uint64))
    st.d[LAYOUT.slot_of["a8"]] = (0, 1, 2, 0)
    for text, want in (("a8", [False, True, True, False]),
                       ("!a8", [True, False, False, True]),
                       ("!(3 < 2)", [True] * 4),
                       ("!(2 < 3)", [False] * 4),
                       ("a8 && (2 < 3)", [False, True, True, False]),
                       ("!(a8 || (3 < 2))", [True, False, False, True])):
        source = compiler.compile_cond(parse_expr(text))
        mask = np.asarray(eval(source, dict(batch.HELPERS), {"st": st}),
                          dtype=bool)
        assert np.broadcast_to(mask, (LANES,)).tolist() == want, text


# -- what the lane carrier refuses -------------------------------------------

_REFUSED = """
module refused(input wire clock);
  reg [63:0] a = 1;
  reg b = 0;
  wire [63:0] w;
  assign w = a + 1;
  always @(posedge clock) a <= %s;
endmodule
"""


def _batch_error(rhs):
    pytest.importorskip("numpy")
    from repro.interp.compile.batch import BatchedModuleCode, BatchUnsupported
    from repro.interp.compile.simulator import CompiledModuleCode

    code = CompiledModuleCode(parse_module(_REFUSED % rhs), opt_level=2)
    assert code.schedule.vector_licensed
    with pytest.raises(BatchUnsupported) as info:
        BatchedModuleCode(code)
    return str(info.value)


def test_width_65_is_refused_with_the_width_in_the_message():
    assert "width 65" in _batch_error("{w, b} >> 1")


def test_random_is_refused():
    assert "$random" in _batch_error("w + $random")


def test_dynamic_select_below_a_negative_bound_is_refused():
    """Modular lane offsets cannot express ``start - lsb`` for lsb < 0."""
    pytest.importorskip("numpy")
    from repro.interp.compile.batch import VectorExprCompiler
    from repro.interp.compile.exprc import CompileFallback

    compiler = VectorExprCompiler(ENV, LAYOUT)
    with pytest.raises(CompileFallback, match="negative"):
        compiler.compile(parse_expr("r8[i64]"))


def test_supported_module_builds():
    """The refusal fixture itself vectorises once the RHS is in the subset."""
    pytest.importorskip("numpy")
    from repro.interp.compile.batch import BatchedModuleCode
    from repro.interp.compile.simulator import CompiledModuleCode

    code = CompiledModuleCode(parse_module(_REFUSED % "{w[62:0], b}"),
                              opt_level=2)
    assert BatchedModuleCode(code).proc_fns
