// hand-distilled conformance case
// fuzz-ticks: 12
// An @* block whose block-local temporary is written and then read
// (t = ...; s = t ...).  The temporary is not an input of the block:
// re-running it rewrites t unchanged, so the cone licence ranks it
// with the assigns (its inputs are a, b and the wire m only), and
// every path must still see the interpreter's values, sums and
// display text.
module star_temporary(clock);
  input wire clock;
  reg [7:0] a = 8'd3;
  reg [7:0] b = 8'd250;
  reg [7:0] t;
  reg [8:0] s;
  reg [8:0] acc = 0;
  wire [7:0] m;
  assign m = a ^ b;
  always @(*) begin
    t = a + m;
    if (t[0])
      s = t + b;
    else
      s = {1'b0, t} - b;
  end
  always @(posedge clock) begin
    a <= a + 8'd7;
    b <= b - 8'd1;
    acc <= acc + s;
    $display("t=%0d s=%0d acc=%0d", t, s, acc);
  end
endmodule
