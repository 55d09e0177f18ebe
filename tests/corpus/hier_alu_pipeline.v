// hand-written conformance case
// fuzz-ticks: 24
// The tree's one hierarchical design: a three-module ALU / stage / top
// pipeline.  Flattening leaves port-binding chains (top wire -> stage
// port -> alu port) and unused child outputs behind, which is the
// residue the mid-end's `alias` and `dce` passes exist for — no
// single-module design gives them anything to do
// (tests/opt/test_opt_pipeline.py asserts their counts on this file).
module alu(a, b, op, y, zero, carry);
  input wire [7:0] a;
  input wire [7:0] b;
  input wire [1:0] op;
  output wire [7:0] y;
  output wire zero;
  output wire carry;
  wire [7:0] sum;
  wire [7:0] half;
  wire [8:0] wide;
  assign sum = a + b;
  assign half = (a + b) >> 1;
  assign wide = {1'b0, a} + {1'b0, b};
  assign carry = wide[8];
  assign y = (op == 2'd0) ? sum :
             (op == 2'd1) ? (a - b) :
             (op == 2'd2) ? (a & b) : half;
  assign zero = (y == 8'd0);
endmodule

module stage(clock, din, coef, op, dout, flag, ovf);
  input wire clock;
  input wire [7:0] din;
  input wire [7:0] coef;
  input wire [1:0] op;
  output wire [7:0] dout;
  output wire flag;
  output wire ovf;
  wire [7:0] result;
  wire is_zero;
  wire carried;
  reg [7:0] held = 0;
  reg seen_zero = 0;
  alu u_alu(.a(din), .b(coef), .op(op), .y(result), .zero(is_zero),
            .carry(carried));
  always @(posedge clock) begin
    held <= result;
    seen_zero <= seen_zero | is_zero;
  end
  assign dout = held;
  assign flag = seen_zero;
  assign ovf = carried;
endmodule

module top(clock);
  input wire clock;
  reg [7:0] n = 0;
  wire [7:0] s0;
  wire [7:0] s1;
  wire [7:0] s2;
  wire f0;
  wire f1;
  wire f2;
  wire o0;
  wire o1;
  wire o2;
  stage st0(.clock(clock), .din(n), .coef(8'd3), .op(n[1:0]),
            .dout(s0), .flag(f0), .ovf(o0));
  stage st1(.clock(clock), .din(s0), .coef(8'h5a), .op(n[2:1]),
            .dout(s1), .flag(f1), .ovf(o1));
  stage st2(.clock(clock), .din(s1), .coef(s0), .op(2'd0),
            .dout(s2), .flag(f2), .ovf(o2));
  always @(posedge clock) begin
    n <= n + 1;
    if (n[1:0] == 2'd3)
      $display("n=%0d s0=%h s1=%h s2=%h z=%b%b", n, s0, s1, s2, f0, f1);
    if (n == 8'd20) $finish;
  end
endmodule
