"""Event-driven simulator tests: Verilog scheduling semantics (§2)."""

import gc
import weakref

import pytest

from repro.interp import InterpSimulator, Simulator, TaskHost, VirtualFS
from repro.verilog import flatten, parse


def sim_for(text, top=None, host=None):
    source = parse(text)
    name = top or source.modules[-1].name
    return Simulator(flatten(source, name), host)


class TestCombinational:
    def test_continuous_assign_propagates(self):
        sim = sim_for("""
            module m(input wire [3:0] a, output wire [3:0] y);
              assign y = a + 1;
            endmodule
        """)
        sim.set("a", 3)
        sim.step()
        assert sim.get("y") == 4

    def test_assign_chain(self):
        sim = sim_for("""
            module m(input wire [3:0] a);
              wire [3:0] b = a + 1;
              wire [3:0] c = b * 2;
              wire [3:0] d = c - 1;
            endmodule
        """)
        sim.set("a", 2)
        sim.step()
        assert sim.get("d") == 5

    def test_always_star(self):
        sim = sim_for("""
            module m(input wire [3:0] a);
              reg [3:0] y;
              always @(*) y = a & 4'h3;
            endmodule
        """)
        sim.set("a", 0xF)
        sim.step()
        assert sim.get("y") == 3

    def test_combinational_loop_detected(self):
        sim_text = """
            module m(input wire a);
              wire x;
              wire y;
              assign x = y ^ a;
              assign y = x;
            endmodule
        """
        from repro.interp.simulator import SimulationError

        sim = sim_for(sim_text)
        sim.set("a", 1)
        with pytest.raises(SimulationError):
            sim.step()


class TestSequential:
    def test_posedge_triggers_once_per_edge(self):
        sim = sim_for("""
            module m(input wire clock);
              reg [7:0] n = 0;
              always @(posedge clock) n <= n + 1;
            endmodule
        """)
        sim.tick(cycles=3)
        assert sim.get("n") == 3
        # A rising edge fires once; holding the level must not retrigger.
        sim.set("clock", 1)
        sim.step()
        assert sim.get("n") == 4
        sim.set("clock", 1)  # still high: no edge
        sim.step()
        sim.step()
        assert sim.get("n") == 4

    def test_negedge(self):
        sim = sim_for("""
            module m(input wire clock);
              reg [7:0] n = 0;
              always @(negedge clock) n <= n + 1;
            endmodule
        """)
        sim.tick(cycles=2)  # two full periods = two falling edges
        assert sim.get("n") == 2

    def test_any_edge(self):
        sim = sim_for("""
            module m(input wire sig);
              reg [7:0] n = 0;
              always @(sig) n <= n + 1;
            endmodule
        """)
        sim.set("sig", 1); sim.step()
        sim.set("sig", 0); sim.step()
        assert sim.get("n") == 2

    def test_blocking_visible_immediately(self):
        """Figure 1 line 11-12: r = y then read of r sees the new value."""
        sim = sim_for("""
            module m(input wire clock);
              wire [31:0] x = 1;
              wire [31:0] y = x + 1;
              reg [63:0] r = 0;
              reg [63:0] seen = 0;
              always @(posedge clock) begin
                r = y;
                seen = r;
              end
            endmodule
        """)
        sim.tick()
        assert sim.get("seen") == 2

    def test_nonblocking_defers_to_update(self):
        """Figure 1 lines 10-14: `<=` latches after the whole tick."""
        sim = sim_for("""
            module m(input wire clock);
              reg [7:0] r = 0;
              reg [7:0] before_update = 55;
              always @(posedge clock) begin
                r <= 3;
                before_update = r;
              end
            endmodule
        """)
        sim.tick()
        assert sim.get("before_update") == 0  # old value mid-tick
        assert sim.get("r") == 3              # latched by tick end

    def test_blocking_then_nonblocking_order(self):
        """Figure 1 exactly: r = y; r <= 3 — the NBA wins the tick."""
        sim = sim_for("""
            module m(input wire clock);
              wire [31:0] y = 2;
              reg [63:0] r = 0;
              always @(posedge clock) begin
                r = y;
                r <= 3;
              end
            endmodule
        """)
        sim.tick()
        assert sim.get("r") == 3

    def test_nba_swap(self):
        sim = sim_for("""
            module m(input wire clock);
              reg [7:0] a = 1;
              reg [7:0] b = 2;
              always @(posedge clock) begin
                a <= b;
                b <= a;
              end
            endmodule
        """)
        sim.tick()
        assert (sim.get("a"), sim.get("b")) == (2, 1)

    def test_two_always_blocks_communicate_via_nba(self):
        sim = sim_for("""
            module m(input wire clock);
              reg [7:0] stage1 = 0;
              reg [7:0] stage2 = 0;
              always @(posedge clock) stage1 <= stage1 + 1;
              always @(posedge clock) stage2 <= stage1;
            endmodule
        """)
        sim.tick(cycles=2)
        assert sim.get("stage1") == 2
        assert sim.get("stage2") == 1  # pipeline: sees the OLD stage1

    def test_fork_join_executes_all(self):
        sim = sim_for("""
            module m(input wire clock);
              reg [7:0] a = 0;
              reg [7:0] b = 0;
              always @(posedge clock) fork
                a <= 8'd5;
                b <= 8'd6;
              join
            endmodule
        """)
        sim.tick()
        assert (sim.get("a"), sim.get("b")) == (5, 6)

    def test_multiple_clock_domains(self):
        sim = sim_for("""
            module m(input wire cka, input wire ckb);
              reg [7:0] na = 0;
              reg [7:0] nb = 0;
              always @(posedge cka) na <= na + 1;
              always @(posedge ckb) nb <= nb + 1;
            endmodule
        """)
        sim.tick(clock="cka", cycles=3)
        sim.tick(clock="ckb", cycles=1)
        assert (sim.get("na"), sim.get("nb")) == (3, 1)


class TestProceduralControl:
    def test_if_else(self):
        sim = sim_for("""
            module m(input wire clock, input wire sel);
              reg [3:0] y = 0;
              always @(posedge clock)
                if (sel) y <= 4'hA; else y <= 4'hB;
            endmodule
        """)
        sim.tick()
        assert sim.get("y") == 0xB
        sim.set("sel", 1)
        sim.tick()
        assert sim.get("y") == 0xA

    def test_case_with_default(self):
        sim = sim_for("""
            module m(input wire clock, input wire [1:0] op);
              reg [7:0] y = 0;
              always @(posedge clock)
                case (op)
                  2'd0: y <= 10;
                  2'd1: y <= 20;
                  default: y <= 99;
                endcase
            endmodule
        """)
        sim.set("op", 1); sim.tick()
        assert sim.get("y") == 20
        sim.set("op", 3); sim.tick()
        assert sim.get("y") == 99

    def test_casez_dontcare(self):
        sim = sim_for("""
            module m(input wire clock, input wire [3:0] op);
              reg [7:0] y = 0;
              always @(posedge clock)
                casez (op)
                  4'b1???: y <= 1;
                  4'b01??: y <= 2;
                  default: y <= 3;
                endcase
            endmodule
        """)
        sim.set("op", 0b1010); sim.tick()
        assert sim.get("y") == 1
        sim.set("op", 0b0110); sim.tick()
        assert sim.get("y") == 2
        sim.set("op", 0b0010); sim.tick()
        assert sim.get("y") == 3

    def test_for_loop(self):
        sim = sim_for("""
            module m(input wire clock);
              reg [31:0] total = 0;
              integer i;
              always @(posedge clock) begin
                total = 0;
                for (i = 1; i <= 10; i = i + 1)
                  total = total + i;
              end
            endmodule
        """)
        sim.tick()
        assert sim.get("total") == 55

    def test_while_loop(self):
        sim = sim_for("""
            module m(input wire clock);
              reg [31:0] x = 1;
              always @(posedge clock)
                while (x < 100) x = x * 2;
            endmodule
        """)
        sim.tick()
        assert sim.get("x") == 128

    def test_memory_write_and_read(self):
        sim = sim_for("""
            module m(input wire clock);
              reg [31:0] mem [0:15];
              reg [31:0] out = 0;
              reg [3:0] i = 0;
              always @(posedge clock) begin
                mem[i] <= i * 3;
                out <= mem[i];
                i <= i + 1;
              end
            endmodule
        """)
        sim.tick(cycles=3)
        assert sim.store.mem_get("mem", 0) == 0
        assert sim.store.mem_get("mem", 1) == 3
        assert sim.store.mem_get("mem", 2) == 6


class TestInitialAndInit:
    def test_initializers(self):
        sim = sim_for("""
            module m(input wire clock);
              reg [7:0] a = 8'h42;
              wire [7:0] b = a + 1;
            endmodule
        """)
        assert sim.get("a") == 0x42
        assert sim.get("b") == 0x43

    def test_initial_block_runs_once(self):
        sim = sim_for("""
            module m(input wire clock);
              reg [7:0] mem [0:3];
              initial begin
                mem[0] = 10;
                mem[1] = 20;
              end
            endmodule
        """)
        assert sim.store.mem_get("mem", 0) == 10
        assert sim.store.mem_get("mem", 1) == 20

    def test_initializer_referencing_parameter(self):
        sim = sim_for("""
            module m(input wire clock);
              parameter START = 7;
              reg [7:0] x = START * 2;
            endmodule
        """)
        assert sim.get("x") == 14


class TestStateCapture:
    def test_save_restore_roundtrip(self):
        text = """
            module m(input wire clock);
              reg [31:0] n = 0;
              reg [7:0] mem [0:3];
              always @(posedge clock) begin
                n <= n + 1;
                mem[n[1:0]] <= n[7:0];
              end
            endmodule
        """
        sim = sim_for(text)
        sim.tick(cycles=5)
        snap = sim.save_state()
        clone = sim_for(text)
        clone.restore_state(snap)
        assert clone.get("n") == sim.get("n")
        sim.tick(cycles=3)
        clone.tick(cycles=3)
        assert clone.get("n") == sim.get("n")
        assert clone.store.memories["mem"] == sim.store.memories["mem"]

    def test_restore_does_not_fabricate_edges(self):
        text = """
            module m(input wire clock);
              reg [7:0] n = 0;
              always @(posedge clock) n <= n + 1;
            endmodule
        """
        sim = sim_for(text)
        sim.tick(cycles=2)
        snap = sim.save_state()
        clone = sim_for(text)
        clone.restore_state(snap)
        clone.step()
        assert clone.get("n") == 2  # no phantom increment


class TestRetirement:
    def test_a_ticked_interpreter_is_freed_by_reference_counting(self):
        """Nothing closes a cycle through an interpreter: its
        ``Reference`` holds the store, the task host and the NBA queue's
        ``append``, never the engine, and answers system functions as
        its own method rather than through a callback bound to the
        engine.  So with the collector off, ``del`` frees a ticked
        interpreter, its reference and its store.  (The compiled
        engine's exec namespace binds ``S`` to the engine so generated
        code can call back into its scheduler — a cycle inherent to that
        engine, which a collection frees.)"""
        flat = flatten(parse("""
            module m(input wire clock);
              reg [7:0] n = 0;
              reg [7:0] mem [0:3];
              wire [7:0] twice;
              assign twice = n << 1;
              always @(posedge clock) begin
                n <= n + 1;
                mem[n[1:0]] <= twice;
                if ($time > 2) $display("n=%0d t=%0t", n, $time);
              end
            endmodule
        """), "m")
        enabled = gc.isenabled()
        gc.disable()
        try:
            sim = InterpSimulator(flat, TaskHost(VirtualFS()))
            sim.tick(cycles=5)
            assert sim.host.display_log
            alive = [weakref.ref(sim), weakref.ref(sim.evaluator),
                     weakref.ref(sim.store)]
            del sim
            assert [ref() for ref in alive] == [None, None, None]
        finally:
            if enabled:
                gc.enable()

    def test_a_queued_nba_does_not_keep_a_retired_reference(self):
        """A ``$finish`` that cuts a period short leaves an NBA queued.
        Its entry's applier is a plain evaluator's, so it holds the store
        but neither the ``Reference`` nor the queue: ``del`` still frees
        the engine, its reference and its store with the collector off."""
        flat = flatten(parse("""
            module m(input wire clock);
              reg [3:0] n = 0;
              always @(posedge clock) begin
                n <= n + 1;
                if (n == 3) $finish;
              end
            endmodule
        """), "m")
        enabled = gc.isenabled()
        gc.disable()
        try:
            sim = InterpSimulator(flat, TaskHost(VirtualFS()))
            sim.tick(cycles=6)
            assert sim.host.finished and len(sim._nba) == 1
            alive = [weakref.ref(sim), weakref.ref(sim.evaluator),
                     weakref.ref(sim.store)]
            del sim
            assert [ref() for ref in alive] == [None, None, None]
        finally:
            if enabled:
                gc.enable()
