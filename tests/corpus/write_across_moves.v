// hand-distilled conformance case
// fuzz-ticks: 12
// The $write buffer is tenant state: a counter that $writes every tick
// and ends the line with $display every third tick must print the same
// lines on every path, so the text pending between the two has to
// survive a hardware batch (board: traps service both tasks), the
// software tick before the JIT handoff, suspend/resume, evacuation to
// software and cross-device migration (lifecycle), and a lane of a
// cohort (batched; the assign gives it the combinational layer the
// vector licence asks for).  Before the host owned the buffer, the
// trap path printed each $write as its own line and every move dropped
// the pending text.
module write_across_moves(clock);
  input wire clock;
  reg [7:0] n = 0;
  wire [7:0] m;
  assign m = n + 8'd1;
  always @(posedge clock) begin
    n <= n + 1;
    $write("w%0d ", n);
    if (m % 3 == 0) $display("d=%0d", m);
  end
endmodule
