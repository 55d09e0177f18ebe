// hand-distilled conformance case
// fuzz-ticks: 12
// $time is part of what moves: a counter that prints $time every tick
// must read the same on every path — inside a hardware batch of more
// than one tick (board), across suspend/resume, evacuation to software
// and cross-device migration (lifecycle).  The vector lane (batched)
// refuses it: no combinational layer, so not licensed.  Before Context
// carried `time`, every move reset it to 0 and a fabric batch froze it
// at the batch's first tick.
module time_across_moves(clock);
  input wire clock;
  reg [7:0] n = 0;
  reg [31:0] seen = 0;
  always @(posedge clock) begin
    n <= n + 1;
    seen <= $time;
    $display("n=%0d t=%0d", n, $time);
  end
endmodule
