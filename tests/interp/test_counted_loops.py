"""Range facts license the emitter: counted loops, guard-free indices,
mask-free selects — checked against the oracles.

Every module below runs three ways from the same initial state: the
reference interpreter, the compiled backend at ``-O0`` (generic
emitter, every loop in its ``while`` form, every guard and mask kept)
and at ``-O2`` (the licensed idioms).  Architectural state and
``stmts_executed`` must be identical on all three; ``ops_evaluated``
must be identical between ``-O0`` and ``-O2`` (the compiled backend
counts right-hand-side nodes only, so its total has never matched the
interpreter's — what the licence must not move is the compiled count).

The Hypothesis property at the end is about ``opt.ranges.interval``
alone: every concrete evaluation of a random expression over in-range
bindings lies inside the interval it reports.

Mutation checks (run by hand when ``opt/ranges.py`` or
``ExprCompiler.fits`` changes; each must turn this file red):

* report a loop variable's ``hi`` one short (``trips[-1] - 1``) — the
  property fails, and ``test_one_past_the_end_keeps_the_guard`` dies on
  an ``IndexError``;
* ignore the wrap on ``i - k`` with ``lo < k`` (return the interval
  instead of ``None`` when ``left[0] < right[1]``) — the property fails;
* drop the ``lo`` half of ``fits`` — the ``[4:11]`` memory case fails;
* both of the last two together — ``test_negative_index_is_not_proved``
  fails: a negative Python index reads a word from the *end* silently
  instead of raising, which is the bug the property exists for.
"""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.interp.simulator as reference
from repro.interp import CompiledSimulator, InterpSimulator, TaskHost
from repro.interp.compile import CompiledModuleCode, stmtc
from repro.interp.compile.slots import SlotLayout, SlotStore
from repro.interp.eval_expr import Evaluator
from repro.interp.simulator import SimulationError
from repro.opt.ranges import counted_loop, interval
from repro.verilog import ast_nodes as ast
from repro.verilog import flatten, parse, parse_module
from repro.verilog.parser import parse_expr as _parse
from repro.verilog.width import WidthEnv

LIMIT = reference._MAX_LOOP_ITERATIONS


def _flat(body, decls=""):
    text = f"""
    module t(input wire clock);
      integer i, j;
      reg [31:0] acc = 1;
      reg [7:0] sel = 0;
      reg [7:0] m [0:15];
      reg [7:0] hi [4:11];
      reg [0:7] v = 8'b10110010;
      {decls}
      always @(posedge clock) begin
        sel <= sel + 1;
        {body}
      end
    endmodule
    """
    source = parse(text)
    return flatten(source, source.modules[-1].name)


def _three(flat, ticks=3):
    """(interp, -O0, -O2) simulators after *ticks*, or the exception."""
    sims = [InterpSimulator(flat, TaskHost())]
    for level in (0, 2):
        code = CompiledModuleCode(flat, opt_level=level)
        sims.append(CompiledSimulator(flat, TaskHost(), code=code))
    errors = []
    for sim in sims:
        try:
            sim.tick(cycles=ticks)
            errors.append(None)
        except SimulationError as exc:
            errors.append(str(exc))
    return sims, errors


def _agree(body, decls="", counted=None, kept=0, ticks=3):
    """Run *body* three ways; return the ``-O2`` source."""
    flat = _flat(body, decls)
    (interp, o0, o2), errors = _three(flat, ticks)
    assert errors[0] == errors[1] == errors[2]
    assert o0.store.snapshot() == interp.store.snapshot()
    assert o2.store.snapshot() == interp.store.snapshot()
    assert o0.stmts_executed == o2.stmts_executed == interp.stmts_executed
    assert o0.evaluator.ops_evaluated == o2.evaluator.ops_evaluated
    source = o2.code.source
    if counted is not None:
        assert source.count(" in range(") == counted, source
        assert source.count("for-loop iteration limit") == kept, source
        assert o2.code.facts["counted"] == counted
        assert o2.code.facts["loops"] == counted + kept
    assert " in range(" not in o0.code.source
    return source


# -- the recogniser's shapes -------------------------------------------------

def test_less_than_and_less_equal():
    _agree("""
        for (i = 0; i < 5; i = i + 1) acc = acc * 3 + i;
        for (i = 2; i <= 6; i = i + 1) acc = acc ^ (acc << i);
    """, counted=2)


def test_step_two_and_the_exit_value():
    # 1, 3, 5, 7 -> exits at 9; the read after the loop sees 9
    source = _agree("""
        for (i = 1; i < 8; i = i + 2) m[i] = acc + i;
        acc = acc + i + m[3];
    """, counted=1)
    assert "range(1, 8, 2)" in source


def test_empty_range_leaves_the_initial_value():
    # c0 >= c1: the body never runs and i reads c0 afterwards
    _agree("""
        for (i = 7; i < 7; i = i + 1) acc = 0;
        for (j = 9; j <= 3; j = j + 1) acc = 0;
        acc = acc + i + (j << 8);
    """, counted=2)


def test_nested_counted_loops():
    source = _agree("""
        for (i = 0; i < 4; i = i + 1)
          for (j = 0; j < 4; j = j + 1)
            m[(i << 2) + j] = acc + i * j;
        acc = acc + m[5] + m[15];
    """, counted=2)
    # neither body can abort: every bump is charged ahead of the outer
    # loop as trip x k, none is left between the two headers or inside
    lines = source.splitlines()
    outer = next(n for n, line in enumerate(lines) if " in range(" in line)
    exit_value = next(n for n in range(outer, len(lines))
                      if lines[n].strip() == "L0 = 4"
                      or lines[n].strip().endswith(" = 4")
                      and lines[n].startswith(lines[outer][:lines[outer].index("for")] + "L"))
    assert not any("_st +=" in line for line in lines[outer:exit_value])
    assert "_st += " in lines[outer - 1]


def test_body_assigning_the_index_keeps_the_while_form():
    _agree("""
        for (i = 0; i < 9; i = i + 1) begin
          acc = acc + i;
          if (acc[0]) i = i + 1;
        end
    """, counted=0, kept=1)


def test_refused_shapes_keep_the_while_form():
    # a variable bound, a decrement, a condition on another name
    _agree("""
        for (i = 0; i < sel[2:0]; i = i + 1) acc = acc + 1;
        for (i = 3; i > 0; i = i - 1) acc = acc + i;
        for (i = 0; j < 2; i = i + 1) j = j + 1;
    """, counted=0, kept=3)


def test_trip_count_above_the_limit_is_refused(monkeypatch):
    monkeypatch.setattr(reference, "_MAX_LOOP_ITERATIONS", 16)
    monkeypatch.setattr(stmtc, "_MAX_LOOP_ITERATIONS", 16)
    flat = _flat("""
        for (i = 0; i < 16; i = i + 1) acc = acc + 1;
        for (i = 0; i < 17; i = i + 1) acc = acc + i;
    """)
    (interp, o0, o2), errors = _three(flat, ticks=1)
    assert errors == ["for-loop iteration limit exceeded"] * 3
    assert o2.code.source.count(" in range(") == 1
    assert o2.store.snapshot() == interp.store.snapshot()
    assert o0.stmts_executed == o2.stmts_executed == interp.stmts_executed
    assert o0.evaluator.ops_evaluated == o2.evaluator.ops_evaluated


def test_abort_inside_a_counted_loop_keeps_exact_counters(monkeypatch):
    # the inner while form can raise mid-body, so the outer counted
    # loop must bump per iteration: the totals at the abort point are
    # what the ``finally`` publishes
    monkeypatch.setattr(reference, "_MAX_LOOP_ITERATIONS", 16)
    monkeypatch.setattr(stmtc, "_MAX_LOOP_ITERATIONS", 16)
    flat = _flat("""
        for (i = 0; i < 4; i = i + 1) begin
          acc = acc + i;
          for (j = 0; j < acc; j = j + 1) m[i] = m[i] + 1;
        end
    """)
    (interp, o0, o2), errors = _three(flat, ticks=4)
    assert errors == ["for-loop iteration limit exceeded"] * 3
    assert o2.code.source.count(" in range(") == 1
    assert o2.store.snapshot() == interp.store.snapshot()
    assert o0.stmts_executed == o2.stmts_executed == interp.stmts_executed
    assert o0.evaluator.ops_evaluated == o2.evaluator.ops_evaluated


def test_sign_bit_and_width_refusals():
    env = WidthEnv(parse_module("""
        module w(input wire clock);
          reg [3:0] n; integer i; reg [7:0] m [0:3];
        endmodule"""))

    def loop(text):
        flat = parse_module(f"""
            module w(input wire clock);
              reg [3:0] n; integer i; reg [7:0] m [0:3];
              always @(posedge clock) {text}
            endmodule""")
        stmt = flat.items[-1].stmt
        return counted_loop(stmt, env, LIMIT)

    assert loop("for (n = 0; n < 7; n = n + 1) ;") == range(0, 7, 1)
    # exit value 8 is n's sign bit; 15 + 1 wraps a 4-bit counter
    assert loop("for (n = 0; n < 8; n = n + 1) ;") is None
    assert loop("for (n = 0; n <= 15; n = n + 1) ;") is None
    assert loop("for (n = 0; n < 20; n = n + 1) ;") is None
    assert loop("for (i = 0; i < 32'h7fffffff; i = i + 1) ;") is None
    assert loop("for (i = 0; i < 4; i = i + 0) ;") is None
    assert loop("for (i = 0; i < 4; i = i + 1) i <= 2;") is None
    assert loop("for (i = 0; i < 4; i = 1 + i) ;") is None
    assert loop("for (m[0] = 0; m[0] < 4; m[0] = m[0] + 1) ;") is None
    assert len(loop(f"for (i = 0; i < {LIMIT}; i = i + 1) ;")) == LIMIT
    assert loop(f"for (i = 0; i <= {LIMIT}; i = i + 1) ;") is None


# -- what the facts delete ---------------------------------------------------

def test_loop_variable_frozen_into_an_nba_memory_index():
    # the index is evaluated at the site, inside the loop: the writer
    # that applies it in the update region needs no guard either
    source = _agree("""
        for (i = 0; i < 16; i = i + 1) m[i] <= m[i] + acc + i;
        for (i = 0; i < 16; i = i + 2) m[i + 1] <= sel;
        acc = acc + m[3];
    """, counted=2)
    writers = source[:source.index("def p0")]
    assert "if 0 <=" not in writers


def test_non_zero_base_memory_and_descending_select():
    source = _agree("""
        for (i = 4; i <= 11; i = i + 1) hi[i] = acc + i;
        for (i = 5; i < 12; i = i + 1) acc = acc + hi[i - 1] + v[i - 5];
        for (i = 0; i < 12; i = i + 1) acc = acc ^ hi[i];
        for (i = 3; i < 12; i = i + 1) hi[i] = i;
    """, counted=4)
    # inside [4:11] the guard goes; reaching 0..3 or 3 keeps it
    assert source.count("if 0 <=") >= 2


def test_one_past_the_end_keeps_the_guard():
    source = _agree("""
        for (i = 0; i <= 16; i = i + 1) acc = acc + m[i];
        for (i = 4; i < 13; i = i + 1) hi[i] = acc;
        for (i = 0; i < 16; i = i + 1) acc = acc ^ m[i + 1];
    """, counted=3)
    assert source.count("if 0 <=") == 3


def test_negative_index_is_not_proved():
    # i - 3 with i from 0 wraps to 2^32 - 3: out of range, reads 0 and
    # drops the write.  Proved by mistake, ``m[-3]`` is the 14th word.
    source = _agree("""
        for (i = 0; i < 8; i = i + 1) begin
          acc = acc + m[i - 3];
          m[i - 3] = acc;
        end
        acc = acc + m[13] + m[14] + m[15];
    """, counted=1)
    assert source.count("if 0 <=") == 2


def test_loop_under_a_case_arm():
    _agree("""
        case (sel[1:0])
          2'd0: for (i = 0; i < 3; i = i + 1) acc = acc + m[i];
          2'd1: begin
            for (i = 0; i < 4; i = i + 1) m[i] = acc + i;
            acc = acc + i;
          end
          default: acc = acc + 1;
        endcase
    """, counted=2, ticks=6)


def test_watched_loop_variable_keeps_the_while_form():
    # a continuous assign reads i: every write of it may place a mark
    # (an empty range still writes its initial value)
    _agree("""for (i = 0; i < 3; i = i + 1) acc = acc + seen;
              for (j = 5; j < 5; j = j + 1) acc = 0;""",
           decls="wire [31:0] seen; assign seen = i + j + 1;",
           counted=0, kept=2)


def test_memory_stores_honour_width_ok():
    # 8-bit values into 8-bit words need no mask; a 32-bit one does —
    # at constant and dynamic addresses, at both levels
    flat = _flat("m[2] = sel; m[sel[3:0]] = sel; m[3] = acc; hi[sel] = acc;")
    for level in (0, 2):
        body = CompiledModuleCode(flat, opt_level=level).source
        body = body[body.index("def p0"):]
        assert body.count("& 255") == 2, body
    _agree("m[2] = sel; m[sel[3:0]] = sel; m[3] = acc; hi[sel] = acc;"
           " acc = acc + m[2] + m[3] + hi[5];")


def test_top_selects_and_proved_sums_lose_their_mask():
    source = _agree("""
        acc = {acc[5:0], acc[31:6]} + sel[7:4] + (sel + 1);
    """)
    body = source[source.index("def p0"):]
    assert ">> 6) &" not in body and ">> 4) &" not in body
    assert "& 63" in body          # a low select still needs its mask


# -- the interval itself -----------------------------------------------------

_ENV = WidthEnv(parse_module("""
    module iv(input wire clock);
      integer i, j;
      reg [7:0] a; reg [15:0] b; reg [31:0] c; reg [0:7] dsc;
      reg [7:0] mem [0:3];
    endmodule"""))
_LAYOUT = SlotLayout(_ENV)
_BOUND = {"i": range(16, 64, 1), "j": range(3, 40, 4)}
_FREE = ("a", "b", "c", "dsc")

_leaf = st.one_of(
    st.sampled_from(["i", "j", "a", "b", "c"]).map(ast.Identifier),
    st.integers(0, 70).map(ast.Number),
    st.integers(0, 15).map(lambda v: ast.Number(v, 4)),
    st.just(ast.Number((1 << 32) - 1)),
    st.just(ast.RangeSelect(ast.Identifier("c"), ast.Number(31), ast.Number(26))),
    st.just(ast.RangeSelect(ast.Identifier("dsc"), ast.Number(2), ast.Number(5))),
    st.just(ast.Index(ast.Identifier("a"), ast.Identifier("j"))),
    st.just(ast.Index(ast.Identifier("mem"), ast.Identifier("a"))),
)
_expr = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.builds(ast.Binary, st.sampled_from(["+", "-", "&", ">>"]),
                  inner, inner),
        # operators the analysis does not know: must answer "unknown"
        # themselves and stay sound as operands of ``&``
        st.builds(ast.Binary, st.sampled_from(["*", "|", "<<"]), inner, inner),
        st.builds(ast.Unary, st.sampled_from(["~", "-"]), inner),
    ),
    max_leaves=6,
)


def _word(width):
    corners = st.sampled_from([0, 1, (1 << width) - 1, 1 << (width - 1)])
    return corners | st.integers(0, (1 << width) - 1)


@settings(max_examples=300, deadline=None)
@given(expr=_expr, a=_word(8), b=_word(16), c=_word(32), dsc=_word(8),
       words=st.tuples(*[_word(8)] * 4),
       inside=st.tuples(*map(st.sampled_from, _BOUND.values())))
@example(expr=_parse("j - i"), a=0, b=0, c=0, dsc=0, words=(0,) * 4,
         inside=(16, 3))
@example(expr=_parse("(i - 17) & 63"), a=0, b=0, c=0, dsc=0, words=(0,) * 4,
         inside=(16, 3))
@example(expr=_parse("a - b"), a=0, b=1, c=0, dsc=0, words=(0,) * 4,
         inside=(16, 3))
@example(expr=_parse("mem[i - 16] + i"), a=0, b=0, c=0, dsc=0,
         words=(255,) * 4, inside=(19, 3))
def test_interval_holds_every_evaluation(expr, a, b, c, dsc, words, inside):
    proved = interval(expr, _ENV, _BOUND)
    if proved is None:
        return
    lo, hi = proved
    store = SlotStore(_ENV, _LAYOUT)
    for name, value in zip(_FREE, (a, b, c, dsc)):
        store.set(name, value, notify=False)
    for addr, word in enumerate(words):
        store.mem_set("mem", addr, word, notify=False)
    evaluator = Evaluator(_ENV, store, None)
    # both ends of every loop variable on every example, and one inside
    picks = [(trips[0], trips[-1], drawn)
             for trips, drawn in zip(_BOUND.values(), inside)]
    for values in itertools.product(*picks):
        for name, value in zip(_BOUND, values):
            store.set(name, value, notify=False)
        for context in (0, 33, 64):
            assert lo <= evaluator.eval(expr, context) <= hi, (
                str(expr), values, context)


def test_interval_examples():
    def iv(text):
        return interval(_parse(text), _ENV, _BOUND)

    assert iv("i") == (16, 63) and iv("j") == (3, 39)
    assert iv("i - 15") == (1, 48) and iv("i - 16") == (0, 47)
    assert iv("i - 17") is None                      # could wrap
    assert iv("a") == (0, 255) and iv("a + 1") == (1, 256)
    assert iv("a + b") is None                       # 16 bits: may wrap
    assert iv("1 + a + c[3:0]") == (1, 1 + 255 + 15)
    assert iv("a + c[3:0] + 1") is None   # inner sum judged at its own 8 bits
    assert iv("c + 1") is None                       # 2^32 wraps
    assert iv("4'd15 + 4'd1") is None                # 16 wraps 4 bits
    assert iv("c[31:26]") == (0, 63) and iv("c >> 2") == (0, (1 << 30) - 1)
    assert iv("(~c) & 63") == (0, 63) and iv("~c") is None
    assert iv("a >> 4097") == (0, 0)
    assert iv("mem[a]") == (0, 255)
    assert interval(ast.Identifier("i"), _ENV, {"i": range(5, 5)}) is None


def test_sim_source_names_each_strategy(capsys, tmp_path, monkeypatch):
    from repro.__main__ import main

    monkeypatch.delenv("REPRO_OPT_LEVEL", raising=False)
    path = tmp_path / "s.v"
    path.write_text("""
        module s(input wire clock);
          integer i; reg [7:0] n = 0; reg [7:0] m [0:7];
          always @(posedge clock)
            for (i = 0; i < 8; i = i + 1) m[i] <= n + i;
          always @(negedge clock) begin
            n <= n + 1;
            if (n == 9) $finish;
          end
        endmodule""")
    assert main(["compile", str(path), "--sim-source"]) == 0
    err = capsys.readouterr().err
    assert "// p0: specialized" in err
    assert "// p1: generic (system task $finish)" in err
    assert "// counted loops 1/1, guards dropped 1, masks dropped 2" in err
    monkeypatch.setenv("REPRO_OPT_LEVEL", "0")
    assert main(["compile", str(path), "--sim-source"]) == 0
    err = capsys.readouterr().err
    assert "// p0: generic (no two-state licence)" in err
    assert "// counted loops 0/1, guards dropped 0, masks dropped 0" in err
