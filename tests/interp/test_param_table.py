"""One parameter table, valued by hand from IEEE 1364-2005 and held
equal across the interpreter, both compiled levels and a two-lane cohort.

A parameter is a literal (§12.2): the value of its initializer at the
initializer's own width and signedness (§5.4.1 sizes the expression),
or converted to the declared range (an ``integer`` is ``[31:0]``,
signed) where there is one, with any override applied first and valued
in the instantiating module's scope.  Each row declares what it needs,
stores one expression into ``r`` every tick, and names the value ``r``
must hold; every expected value below is worked from the standard, not
read off an engine.  The engines then hold the row to the interpreter
(as ``test_store_table`` does for stores).

The rows cover the cases the engines used to get wrong together, where
no differential check could see them: ``~4'd0`` read as -1 (so 255 in
8 bits, and ``[P:0]`` 2 bits wide), ``4'd15 + 4'd1`` read as 16,
``&4'b1111`` read as 0, and ``{P, P}`` with ``P = 4'd5`` read as
``16'h0005`` because the substituted literal was unsized.
"""

import pytest

from repro.core import compile_program
from repro.interp import TaskHost
from repro.interp.compile import CompiledModuleCode, CompiledSimulator
from repro.interp.compile.batch import HAVE_NUMPY, BatchedCohort, batch_code_for
from repro.interp.simulator import InterpSimulator

TICKS = 3

#: a child whose one parameter shows its width: ``y`` is ``{W, W}``
CHILD = """
module c #(parameter W = 4'd1)(output wire [7:0] y);
  assign y = {W, W};
endmodule
module c8 #(parameter [3:0] V = 0)(output wire [7:0] y);
  assign y = {V, V};
endmodule
"""

#: name -> (declarations, statement storing into ``r``, r's value)
ROWS = {
    # sized and unsized initializers
    "sized": ("parameter A = 4'd9; reg [7:0] r = 0;", "r <= A;", 9),
    "unsized": ("parameter B = 300; reg [15:0] r = 0;", "r <= B;", 300),
    "unsized_arithmetic": (
        "parameter W = 16; localparam H = W / 2 - 1; reg [7:0] r = 0;",
        "r <= H;", 7),
    # ~ sizes to its operand: P is 4'b1111, zero-extended into 8 bits
    "invert": ("parameter P = ~4'd0; reg [7:0] r = 0;", "r <= P;", 15),
    # + sizes to its wider operand: 4 bits wrap, 5 bits hold the carry
    "add_overflow": ("parameter Q = 4'd15 + 4'd1; reg [7:0] r = 0;", "r <= Q;", 0),
    "add_carry": ("parameter Q = 4'd15 + 5'd1; reg [7:0] r = 0;", "r <= Q;", 16),
    # a later parameter reads an earlier one at its 4 bits
    "chained": ("parameter P = ~4'd0; localparam N = P + 4'd1; reg [7:0] r = 0;",
                "r <= N;", 0),
    # the reductions: one bit each
    "reduce_and": ("parameter T = &4'b1111; reg [7:0] r = 0;", "r <= T;", 1),
    "reduce_nand": ("parameter T = ~&4'b1111; reg [7:0] r = 0;", "r <= T;", 0),
    "reduce_or": ("parameter T = |4'b0100; reg [7:0] r = 0;", "r <= T;", 1),
    "reduce_nor": ("parameter T = ~|4'b0000; reg [7:0] r = 0;", "r <= T;", 1),
    "reduce_xor": ("parameter T = ^4'b0111; reg [7:0] r = 0;", "r <= T;", 1),
    "reduce_xnor": ("parameter T = ~^4'b0111; reg [7:0] r = 0;", "r <= T;", 0),
    # a parameter inside a concat keeps its 4 bits
    "concat": ("parameter F = 4'd5; reg [15:0] r = 0;", "r <= {F, F};", 0x55),
    # [P:0] with P = 4'b1111 is 16 bits wide
    "range_bound": ("parameter P = ~4'd0; reg [P:0] r = 0;", "r <= ~0;", 0xFFFF),
    # a declared range truncates the initializer
    "declared_range": ("parameter [7:0] D = 12'hABC; reg [15:0] r = 0;",
                       "r <= D;", 0xBC),
    # signed: -3 in 8 bits is 8'hFD, and compares below a signed zero
    "signed_range": ("parameter signed [7:0] S = -3; reg [7:0] r = 0;",
                     "r <= S;", 0xFD),
    "signed_compare": ("parameter signed [7:0] S = -3; reg r = 0;",
                       "r <= S < 8'sd0;", 1),
    # signed with no range: 4'b1100 read signed is -4
    "signed_no_range": ("parameter signed N = 4'd12; reg r = 0;",
                        "r <= N < 4'sd0;", 1),
    # a signed initializer converts to the range as an assignment would:
    # -4'sd1 is -1, so 8'hFF
    "signed_into_range": ("parameter [7:0] P = -4'sd1; reg [7:0] r = 0;",
                          "r <= P;", 0xFF),
    # a signed parameter extends its sign into a wider context (§5.5)
    "signed_wide": ("parameter signed [7:0] S = -3; reg [15:0] r = 0;",
                    "r <= S;", 0xFFFD),
    "signed_in_concat": ("parameter signed [7:0] S = -3; reg [15:0] r = 0;",
                         "r <= {S, S};", 0xFDFD),
    # integer: 32 bits, signed
    "integer": ("parameter integer I = -2; reg [15:0] r = 0;", "r <= I;", 0xFFFE),
    "integer_wide": ("parameter integer I = -2; reg [63:0] r = 0;", "r <= I;",
                     (1 << 64) - 2),
    # an unsized initializer makes an integer: -1 and ~0 are all ones in
    # 64 bits, as they are written inline
    "unsized_negative_wide": ("parameter P = -1; reg [63:0] r = 0;", "r <= P;",
                              (1 << 64) - 1),
    "unsized_invert_wide": ("parameter P = ~0; reg [63:0] r = 0;", "r <= P;",
                            (1 << 64) - 1),
    "integer_compare": ("parameter integer I = -2; reg r = 0;",
                        "r <= I < 32'sd0;", 1),
    # overrides take the width of their own value
    "positional_override": ("wire [7:0] y; c #(4'd3) u(.y(y)); reg [7:0] r = 0;",
                            "r <= y;", 0x33),
    "named_override": ("wire [7:0] y; c #(.W(~3'd2)) u(.y(y)); reg [7:0] r = 0;",
                       "r <= y;", 0b101101),
    # valued in the parent's scope: 2'd2 + 2'd3 wraps to 2'd1
    "override_in_parent_scope": (
        "parameter K = 2'd2; wire [7:0] y; c #(.W(K + 2'd3)) u(.y(y)); "
        "reg [7:0] r = 0;", "r <= y;", 0b0101),
    # and the child's declared range converts them
    "override_into_range": ("wire [7:0] y; c8 #(.V(8'hF3)) u(.y(y)); reg [7:0] r = 0;",
                            "r <= y;", 0x33),
    # a negative bound: [3:L] and [3:-4] are 8 bits, bit 3 on top
    "negative_bound": ("parameter L = -4; reg [3:L] r = 0;", "r <= ~0;", 0xFF),
    "negative_value": ("parameter L = -4; reg [7:0] r = 0;", "r <= L;", 0xFC),
    "negative_literal_bound": ("reg [3:-4] r = 0;", "r[3] <= 1'b1;", 0x80),
}


def _text(decls, stmt):
    """The row's module: its declarations, its store, and a one-wire
    cone (the vector carrier's licence asks for one)."""
    body = "\n  ".join(part.strip() + ";" for part in decls.split(";") if part.strip())
    return (f"{CHILD}module t(input wire clock);\n  {body}\n"
            f"  wire [15:0] echo;\n  assign echo = ~r;\n"
            f"  always @(posedge clock) {stmt}\nendmodule\n")


@pytest.mark.parametrize("row", sorted(ROWS))
def test_every_engine_reads_the_parameter_as_the_standard_does(row):
    decls, stmt, want = ROWS[row]
    program = compile_program(_text(decls, stmt))
    interp = InterpSimulator(program.flat, TaskHost(), env=program.env)
    interp.tick(cycles=TICKS)
    state = interp.store.snapshot()
    assert state["r"] == want, (row, state["r"])
    for level in (0, 2):
        code = CompiledModuleCode(program.flat, env=program.env, opt_level=level)
        sim = CompiledSimulator(program.flat, TaskHost(), code=code)
        sim.tick(cycles=TICKS)
        assert sim.store.snapshot() == state, (row, level)
    if HAVE_NUMPY:
        cohort = BatchedCohort(batch_code_for(code))
        cohort.join(TaskHost())
        cohort.join(TaskHost())
        cohort.tick(TICKS)
        assert [cohort.snapshot_lane(lane) for lane in (0, 1)] == [state, state], row
