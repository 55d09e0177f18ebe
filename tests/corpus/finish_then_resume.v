// hand-distilled conformance case
// fuzz-ticks: 6
// $finish on a rising edge ends the tick with the clock still high, so
// a context captured afterwards holds clock = 1.  Restoring it into a
// fresh software engine (suspend -> rehydrate) must not treat that
// value as a new posedge and re-run the body that finished: a restore
// re-primes edge detection from the restored clock.  Before it did,
// FinishSignal escaped from the restore itself.  The resume is driven
// by tests/runtime/test_runtime.py; here every path checks the run up
// to the finish.
module finish_then_resume(clock);
  input wire clock;
  reg [7:0] n = 0;
  always @(posedge clock) begin
    n <= n + 1;
    if (n == 2) $finish;
  end
endmodule
