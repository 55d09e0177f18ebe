"""Width inference and constant evaluation tests (LRM §5.4 rules)."""

import pytest

from repro.verilog import (
    WidthEnv, WidthError, ast, const_eval, const_number, const_value, flatten,
    mask, parse, parse_expr, parse_module, to_signed,
)

TEXT = """
module m(input wire clock);
  parameter W = 16;
  localparam HALF = W / 2;
  wire [HALF-1:0] a;
  wire [W-1:0] b;
  reg signed [7:0] s;
  reg [31:0] mem [0:63];
  reg [3:0] nib;
  integer i;
  wire one;
endmodule
"""


@pytest.fixture(scope="module")
def env():
    return WidthEnv(flatten(parse(TEXT), "m"))


class TestHelpers:
    def test_mask(self):
        assert mask(0x1FF, 8) == 0xFF
        assert mask(-1, 4) == 0xF

    def test_to_signed(self):
        assert to_signed(0xFF, 8) == -1
        assert to_signed(0x7F, 8) == 127
        assert to_signed(0, 8) == 0


class TestConstEval:
    def test_arithmetic(self):
        assert const_eval(parse_expr("3 + 4 * 2")) == 11

    def test_negative_reads_as_an_integer(self):
        """``-4`` is 2^32 - 4 to the engines; a range reads it as -4."""
        assert const_value(parse_expr("-4")) == (1 << 32) - 4
        assert const_eval(parse_expr("-4")) == -4

    def test_sized_arithmetic_wraps(self):
        assert const_eval(parse_expr("4'd15 + 4'd1")) == 0
        assert const_eval(parse_expr("&4'b1111")) == 1

    def test_value_at_a_wider_context(self):
        assert const_value(parse_expr("4'd15 + 4'd1"), 8) == 16
        assert const_value(parse_expr("~4'd0"), 8) == 0xFF

    def test_const_number_keeps_width_and_sign(self):
        assert const_number(parse_expr("~4'd0")) == ast.Number(15, 4)
        assert const_number(parse_expr("{4'd5, 4'd5}")) == ast.Number(0x55, 8)
        assert const_number(parse_expr("$signed(4'd12)")) == ast.Number(12, 4, True)
        assert const_number(parse_expr("16 / 2")) == ast.Number(8)
        assert const_number(parse_expr("x + 1")) is None

    def test_ternary(self):
        assert const_eval(parse_expr("1 ? 10 : 20")) == 10

    def test_shifts(self):
        assert const_eval(parse_expr("1 << 10")) == 1024

    def test_comparison(self):
        assert const_eval(parse_expr("3 < 5")) == 1

    def test_clog2(self):
        assert const_eval(parse_expr("$clog2(1024)")) == 10
        assert const_eval(parse_expr("$clog2(1025)")) == 11

    def test_non_constant_raises(self):
        with pytest.raises(WidthError):
            const_eval(parse_expr("x + 1"))


class TestSignalTable:
    def test_params_resolved(self, env):
        """Flattening sized ``a`` and ``b`` by HALF and W, and left
        neither parameter behind."""
        assert env.signal("a").width == 8 and env.signal("b").width == 16
        assert not env.has("W") and not env.has("HALF")

    def test_unflattened_parameter_raises(self):
        with pytest.raises(WidthError, match="elaborate first"):
            WidthEnv(parse_module(TEXT))

    def test_widths(self, env):
        assert env.signal("a").width == 8
        assert env.signal("b").width == 16
        assert env.signal("one").width == 1

    def test_memory(self, env):
        mem = env.signal("mem")
        assert mem.is_memory and mem.depth == 64 and mem.width == 32

    def test_integer(self, env):
        sig = env.signal("i")
        assert sig.width == 32 and sig.signed

    def test_state_kinds(self, env):
        assert env.signal("s").is_state
        assert not env.signal("a").is_state

    def test_unknown_raises(self, env):
        with pytest.raises(WidthError):
            env.signal("nope")


class TestExprWidths:
    def test_identifier(self, env):
        assert env.width_of(parse_expr("a")) == 8

    def test_unsized_literal_is_32(self, env):
        assert env.width_of(parse_expr("42")) == 32

    def test_sized_literal(self, env):
        assert env.width_of(parse_expr("4'hF")) == 4

    def test_binary_max_rule(self, env):
        assert env.width_of(parse_expr("a + b")) == 16

    def test_comparison_is_one_bit(self, env):
        assert env.width_of(parse_expr("a == b")) == 1
        assert env.width_of(parse_expr("a < b")) == 1

    def test_logical_is_one_bit(self, env):
        assert env.width_of(parse_expr("a && b")) == 1

    def test_shift_takes_left_width(self, env):
        assert env.width_of(parse_expr("a << b")) == 8

    def test_concat_sums(self, env):
        assert env.width_of(parse_expr("{a, b, nib}")) == 28

    def test_replication(self, env):
        assert env.width_of(parse_expr("{3{a}}")) == 24

    def test_bit_select_is_one(self, env):
        assert env.width_of(parse_expr("b[3]")) == 1

    def test_memory_element_width(self, env):
        assert env.width_of(parse_expr("mem[5]")) == 32

    def test_part_select(self, env):
        assert env.width_of(parse_expr("b[11:4]")) == 8

    def test_indexed_part_select(self, env):
        assert env.width_of(parse_expr("b[i +: 4]")) == 4

    def test_reduction_is_one_bit(self, env):
        assert env.width_of(parse_expr("&b")) == 1

    def test_not_is_one_bit(self, env):
        assert env.width_of(parse_expr("!b")) == 1

    def test_invert_keeps_width(self, env):
        assert env.width_of(parse_expr("~b")) == 16

    def test_ternary_max_of_branches(self, env):
        assert env.width_of(parse_expr("one ? a : b")) == 16

    def test_sysfunc_widths(self, env):
        assert env.width_of(parse_expr("$time")) == 64
        assert env.width_of(parse_expr("$random")) == 32
        assert env.width_of(parse_expr("$signed(a)")) == 8


class TestSignedness:
    def test_signed_identifier(self, env):
        assert env.is_signed(parse_expr("s"))
        assert not env.is_signed(parse_expr("a"))

    def test_signed_call(self, env):
        assert env.is_signed(parse_expr("$signed(a)"))

    def test_mixed_arithmetic_unsigned(self, env):
        assert not env.is_signed(parse_expr("s + a"))

    def test_signed_propagates_through_negation(self, env):
        assert env.is_signed(parse_expr("-s"))
