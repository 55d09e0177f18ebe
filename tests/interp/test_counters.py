"""Performance-counter plumbing: the measurements the perf model uses."""

from repro.interp import Simulator, TaskHost
from repro.verilog import flatten, parse


def sim_for(text):
    source = parse(text)
    return Simulator(flatten(source, source.modules[-1].name), TaskHost())


class TestCounters:
    def test_stmts_executed_grows_with_work(self):
        sim = sim_for("""
            module m(input wire clock);
              reg [31:0] total = 0;
              integer i;
              always @(posedge clock)
                for (i = 0; i < 10; i = i + 1)
                  total = total + i;
            endmodule
        """)
        before = sim.stmts_executed
        sim.tick()
        light_delta = sim.stmts_executed - before

        sim2 = sim_for("""
            module m(input wire clock);
              reg [31:0] total = 0;
              integer i;
              always @(posedge clock)
                for (i = 0; i < 100; i = i + 1)
                  total = total + i;
            endmodule
        """)
        before2 = sim2.stmts_executed
        sim2.tick()
        assert sim2.stmts_executed - before2 > light_delta

    def test_settle_rounds_counted(self):
        sim = sim_for("""
            module m(input wire a);
              wire b = a + 1;
              wire c = b + 1;
            endmodule
        """)
        before = sim.settle_rounds
        sim.set("a", 1)
        sim.step()
        assert sim.settle_rounds > before

    def test_time_counts_ticks(self):
        sim = sim_for("""
            module m(input wire clock);
              reg r = 0;
              always @(posedge clock) r <= ~r;
            endmodule
        """)
        sim.tick(cycles=7)
        assert sim.time == 7
