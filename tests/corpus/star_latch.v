// hand-distilled conformance case
// fuzz-ticks: 12
// An @* block with an incomplete assignment: q is written only while
// en is high, so it holds its value (a latch) in between.  The block
// is still a licensed cone member — re-running it on unchanged inputs
// is a no-op — and no other @* block feeds it, so no activation
// order can let it latch a glitch.  Every path must hold q exactly
// where the interpreter does.
module star_latch(clock);
  input wire clock;
  reg [3:0] n = 0;
  reg [7:0] d = 8'd17;
  reg [7:0] q = 8'd5;
  wire en;
  assign en = n[1] ^ n[0];
  always @(*)
    if (en)
      q = d + {4'd0, n};
  always @(posedge clock) begin
    n <= n + 4'd1;
    d <= d * 8'd3;
    $display("n=%0d en=%0d q=%0d", n, en, q);
  end
endmodule
