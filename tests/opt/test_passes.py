"""Each mid-end pass in isolation: rewrites, refusals, and invariants."""

from repro.opt import Design
from repro.opt.ir import expr_key
from repro.opt.passes import (
    eliminate_dead,
    fold_constants,
    forward_aliases,
    fuse_always_blocks,
    propagate_constants,
)
from repro.verilog import ast, flatten, parse, print_module
from repro.verilog.width import WidthEnv


def design_for(text, top=None):
    source = parse(text)
    flat = flatten(source, top or source.modules[-1].name)
    return Design(flat)


def raw_design(text):
    """Design over the parsed module directly — elaboration pre-folds
    literal trees nowadays, so isolated-fold tests skip flatten()."""
    return Design(parse(text).modules[-1])


class TestFoldConstants:
    def test_folds_literal_trees(self):
        d = raw_design("""
            module m(input wire clock, output wire [7:0] y);
              assign y = (8'd2 + 8'd3) * 8'd4;
            endmodule
        """)
        assert fold_constants(d) > 0
        printed = print_module(d.to_module())
        assert "8'd20" in printed

    def test_subtraction_underflow_not_folded(self):
        """1 - 2 masks differently at different context widths."""
        d = raw_design("""
            module m(input wire clock, output wire [15:0] y);
              assign y = (8'd1 - 8'd2) + 16'd0;
            endmodule
        """)
        fold_constants(d)
        assert "-" in print_module(d.to_module())

    def test_signed_literals_left_alone(self):
        d = raw_design("""
            module m(input wire clock, output wire y);
              assign y = 8'sd3 < 8'sd4;
            endmodule
        """)
        assert fold_constants(d) == 0


class TestPropagateConstants:
    SRC = """
        module m(input wire clock, output wire [7:0] out);
          wire [7:0] k = 8'd3 + 8'd4;
          wire [7:0] mid;
          assign mid = k + 1;
          assign out = mid;
        endmodule
    """

    def test_constant_wire_reads_become_literals(self):
        d = design_for(self.SRC)
        assert propagate_constants(d) > 0
        printed = print_module(d.to_module())
        # mid's driver folded to a literal; k's defining driver stays
        # (the 32-bit result width comes from the unsized `+ 1`).
        assert "assign mid = 32'd8;" in printed
        assert "wire [7:0] k = 8'd7;" in printed
        assert "assign out = 8'd8;" in printed

    def test_ports_never_propagated(self):
        d = design_for("""
            module m(input wire [7:0] a, output wire [7:0] y);
              assign y = a;
            endmodule
        """)
        assert propagate_constants(d) == 0

    def test_sensitivity_lists_untouched(self):
        d = design_for("""
            module m(input wire clock, output reg [7:0] r);
              wire tick = 1'b1;
              always @(posedge tick) r <= r + 1;
            endmodule
        """)
        propagate_constants(d)
        printed = print_module(d.to_module())
        assert "@(posedge tick)" in printed


class TestForwardAliases:
    def test_flattening_chain_collapses(self):
        d = design_for("""
            module child(input wire [7:0] a, output wire [7:0] y);
              assign y = a + 1;
            endmodule
            module top(input wire clock, input wire [7:0] x,
                       output wire [7:0] out);
              wire [7:0] mid;
              child c(.a(x), .y(mid));
              assign out = mid;
            endmodule
        """, "top")
        assert forward_aliases(d) > 0
        printed = print_module(d.to_module())
        assert "assign c$y = (x + 1);" in printed

    def test_blocking_writer_keeps_stale_read(self):
        """A body that blocking-writes the alias source mid-block must
        keep reading the wire (it still holds the pre-write value)."""
        d = design_for("""
            module m(input wire clock, output reg [7:0] r);
              reg [7:0] x = 0;
              wire [7:0] w;
              assign w = x;
              always @(posedge clock) begin
                x = x + 1;
                r <= w;
              end
            endmodule
        """)
        forward_aliases(d)
        printed = print_module(d.to_module())
        assert "r <= w;" in printed

    def test_width_mismatch_refused(self):
        d = design_for("""
            module m(input wire clock, input wire [7:0] x,
                     output wire [7:0] out);
              wire [3:0] w;
              assign w = x;
              assign out = w;
            endmodule
        """)
        assert forward_aliases(d) == 0


class TestFusion:
    def test_identical_sensitivity_runs_fuse(self):
        d = design_for("""
            module m(input wire clock);
              reg [7:0] r0 = 0;
              reg [7:0] r1 = 0;
              always @(posedge clock) r0 <= r0 + 1;
              always @(posedge clock) r1 <= r0;
            endmodule
        """)
        assert fuse_always_blocks(d) == 1
        assert sum(isinstance(i, ast.Always) for i in d.items) == 1

    def test_stale_comb_read_blocks_fusion(self):
        """B reads a wire whose cone A blocking-writes: unfused, the
        assign re-settles between them; fused, B would read stale."""
        d = design_for("""
            module m(input wire clock, output reg [7:0] out);
              reg [7:0] x = 0;
              wire [7:0] w;
              assign w = x + 1;
              always @(posedge clock) x = x + 1;
              always @(posedge clock) out <= w;
            endmodule
        """)
        assert fuse_always_blocks(d) == 0

    def test_different_sensitivity_not_fused(self):
        d = design_for("""
            module m(input wire clock, input wire other);
              reg [7:0] r0 = 0;
              reg [7:0] r1 = 0;
              always @(posedge clock) r0 <= r0 + 1;
              always @(posedge other) r1 <= r1 + 1;
            endmodule
        """)
        assert fuse_always_blocks(d) == 0


class TestDce:
    def test_hierarchy_residue_removed(self):
        d = design_for("""
            module child(input wire [7:0] a, output wire [7:0] y,
                         output wire [7:0] unused);
              assign y = a + 1;
              assign unused = a ^ 8'hFF;
            endmodule
            module top(input wire clock, input wire [7:0] x,
                       output wire [7:0] out);
              wire [7:0] mid;
              child c(.a(x), .y(mid));
              assign out = mid;
            endmodule
        """, "top")
        procs, sigs = eliminate_dead(d)
        names = {i.name for i in d.items if isinstance(i, ast.Decl)}
        assert "c$unused" not in names
        assert procs >= 1 and sigs >= 1

    def test_source_named_wires_survive(self):
        """Hand-written names stay on the get()/snapshot surface even
        when nothing reads them."""
        d = design_for("""
            module m(input wire [7:0] a);
              wire [7:0] scratch = a + 1;
            endmodule
        """)
        procs, sigs = eliminate_dead(d)
        assert (procs, sigs) == (0, 0)

    def test_keep_set_roots_survive(self):
        source = parse("""
            module child(input wire [7:0] a, output wire [7:0] y);
              assign y = a;
            endmodule
            module top(input wire [7:0] x, output wire [7:0] o);
              child c(.a(x));
              assign o = x;
            endmodule
        """)
        flat = flatten(source, "top")
        unkept = Design(flat)
        eliminate_dead(unkept)
        kept = Design(flat, keep=frozenset({"c$y"}))
        eliminate_dead(kept)
        unkept_names = {i.name for i in unkept.items if isinstance(i, ast.Decl)}
        kept_names = {i.name for i in kept.items if isinstance(i, ast.Decl)}
        assert "c$y" not in unkept_names
        assert "c$y" in kept_names


def test_expr_key_ignores_positions():
    a1 = parse("module m(input wire x); wire y = x + 1; endmodule")
    a2 = parse("module m(input wire x);\n\n wire y = x + 1; endmodule")
    e1 = a1.modules[0].decls()[1].init
    e2 = a2.modules[0].decls()[1].init
    assert expr_key(e1) == expr_key(e2)


class TestReviewRegressions:
    def test_impure_assign_keeps_dead_target_decl(self):
        """A live (impure) assign must keep its otherwise-dead target
        declared — dropping the decl leaves a dangling lvalue that
        crashes codegen."""
        d = design_for("""
            module u(input wire clock, output wire [7:0] o);
              wire [7:0] tmp;
              assign tmp = $random;
              assign o = 8'd1;
            endmodule
            module top(input wire clock, output wire [7:0] o);
              u u(.clock(clock), .o(o));
            endmodule
        """, "top")
        eliminate_dead(d)
        names = {i.name for i in d.items if isinstance(i, ast.Decl)}
        assert "u$tmp" in names
