// hand-distilled conformance case
// fuzz-ticks: 4
// $finish in an initial block: the run ends at time 0, after the boot
// $display and before any clock edge (IEEE 1364-2005 §17.4.1).  No
// engine may raise out of its boot, and none may take a tick.
module finish_at_boot(clock);
  input wire clock;
  reg [7:0] r = 0;
  reg [7:0] n = 0;
  initial begin
    r = 8'd5;
    $display("boot %d", r);
    $finish;
    $display("never printed");
  end
  always @(posedge clock) begin
    n <= n + 1;
    $display("tick %d", n);
  end
endmodule
