// hand-distilled conformance case
// fuzz-ticks: 4
// The cohort form of finish_then_resume.v: the assign licenses the
// vector carrier, and the program finishes on its first rising edge,
// so the fuzz oracle's batched twin (one tick ahead) joins the cohort
// from a context captured after $finish, clock high.  The join must
// restore it as a software engine does — edge detection re-primed,
// no posedge fabricated — and the lane joins finished.  Before, the
// join raised FinishSignal, and the oracle skipped finished twins.
// tests/runtime/test_batched_backend.py resumes the lane afterwards.
module finish_then_rejoin(clock);
  input wire clock;
  reg [7:0] n = 0;
  wire [7:0] next;
  assign next = n + 1;
  always @(posedge clock) begin
    n <= next;
    if (n == 0) $finish;
  end
endmodule
