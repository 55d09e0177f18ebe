"""The clock-gating mid-end pass: detection, refusals, and the
dispatch-time early-out it licenses in the event scheduler."""

import random

from repro.interp import TaskHost, VirtualFS
from repro.interp.compile import CompiledModuleCode
from repro.interp.compile.simulator import CompiledSimulator
from repro.opt import Design
from repro.opt.passes import detect_clock_gates
from repro.opt.pipeline import optimize_module
from repro.verilog import ast, flatten, parse


def design_for(text, top=None):
    source = parse(text)
    return Design(flatten(source, top or source.modules[-1].name))


class TestDetection:
    def test_single_enable_guard_is_gated(self):
        d = design_for("""
            module m(input wire clock, input wire en);
              reg [7:0] r = 0;
              always @(posedge clock) begin
                if (en) r <= r + 1;
              end
            endmodule
        """)
        assert detect_clock_gates(d) == 1
        (gate,) = d.clock_gates.values()
        assert isinstance(gate, ast.Identifier) and gate.name == "en"

    def test_multiple_guards_or_chain(self):
        d = design_for("""
            module m(input wire clock, input wire a, input wire b);
              reg [7:0] r = 0;
              reg [7:0] s = 0;
              always @(posedge clock) begin
                if (a) r <= r + 1;
                if (b) s <= s + 1;
              end
            endmodule
        """)
        assert detect_clock_gates(d) == 1
        (gate,) = d.clock_gates.values()
        assert isinstance(gate, ast.Binary) and gate.op == "||"

    def test_else_arm_refuses_gating(self):
        d = design_for("""
            module m(input wire clock, input wire en);
              reg [7:0] r = 0;
              always @(posedge clock) begin
                if (en) r <= r + 1;
                else r <= 0;
              end
            endmodule
        """)
        assert detect_clock_gates(d) == 0
        assert d.clock_gates == {}

    def test_bare_statement_refuses_gating(self):
        d = design_for("""
            module m(input wire clock, input wire en);
              reg [7:0] r = 0;
              always @(posedge clock) begin
                if (en) r <= r + 1;
                r <= r;
              end
            endmodule
        """)
        assert detect_clock_gates(d) == 0

    def test_impure_condition_refuses_gating(self):
        d = design_for("""
            module m(input wire clock);
              reg [31:0] r = 0;
              always @(posedge clock) begin
                if ($random) r <= r + 1;
              end
            endmodule
        """)
        assert detect_clock_gates(d) == 0

    def test_star_blocks_ignored(self):
        d = design_for("""
            module m(input wire clock, input wire en, input wire [7:0] x);
              reg [7:0] y;
              always @* begin
                if (en) y = x;
              end
            endmodule
        """)
        assert detect_clock_gates(d) == 0


class TestPipelineIntegration:
    SRC = """
        module m(input wire clock, input wire en);
          reg [7:0] r = 0;
          always @(posedge clock) begin
            if (en) r <= r + 1;
          end
        endmodule
    """

    def test_o2_result_carries_gates(self):
        flat = flatten(parse(self.SRC), "m")
        result = optimize_module(flat, level=2)
        assert result.clock_gates
        assert result.pass_counts.get("gate", 0) >= 1

    def test_o0_result_has_no_gates(self):
        flat = flatten(parse(self.SRC), "m")
        result = optimize_module(flat, level=0)
        assert result.clock_gates == {}

    def test_gate_pass_is_fingerprinted(self):
        # Artifact keys must roll when the gating pass joins the
        # pipeline; "gate" appearing in the fingerprint does that.
        flat = flatten(parse(self.SRC), "m")
        result = optimize_module(flat, level=2)
        assert "gate" in result.fingerprint


GATED_BANK = """
module bank(input wire clock, input wire a, input wire b, input wire c);
  reg [15:0] r0 = 0;
  reg [15:0] r1 = 7;
  reg [15:0] r2 = 0;
  wire [15:0] sum;
  assign sum = r0 + r1;
  always @(posedge clock) begin
    if (a) r0 <= r0 + 1;
    if (b) r1 <= r1 ^ sum;
  end
  always @(posedge clock) begin
    if (c) r2 <= r2 + sum;
  end
endmodule
"""


def gated_sim(event):
    flat = flatten(parse(GATED_BANK), "bank")
    code = CompiledModuleCode(flat, opt_level=2, event=event)
    return CompiledSimulator(flat, TaskHost(VirtualFS()), code=code)


class TestGatedDispatchIdentity:
    def test_random_enable_patterns_bit_identical(self):
        """Gated early-out vs the ungated baseline twin, driven by seeded
        random enable patterns: architectural state must never diverge."""
        fast = gated_sim(event=True)
        slow = gated_sim(event=False)
        assert fast.code.gate_ids
        rng = random.Random(0xC10C)
        for step in range(200):
            pattern = rng.getrandbits(3)
            for sim in (fast, slow):
                sim.set("a", pattern & 1)
                sim.set("b", (pattern >> 1) & 1)
                sim.set("c", (pattern >> 2) & 1)
                sim.tick(cycles=1)
            if step % 25 == 0:
                assert fast.store.snapshot() == slow.store.snapshot()
        assert fast.store.snapshot() == slow.store.snapshot()

    def test_quiescent_tick_executes_no_process_bodies(self):
        """The idle-cost contract: with every enable low and the design
        settled, a tick is bookkeeping only — zero statements run."""
        sim = gated_sim(event=True)
        for name in ("a", "b", "c"):
            sim.set(name, 1)
        sim.tick(cycles=4)
        for name in ("a", "b", "c"):
            sim.set(name, 0)
        sim.tick(cycles=1)
        assert sim.is_idle()
        executed = sim.stmts_executed
        sim.tick(cycles=500)
        assert sim.stmts_executed == executed
        assert sim.time >= 500

    def test_gate_skip_leaves_state_untouched(self):
        sim = gated_sim(event=True)
        sim.set("a", 1)
        sim.set("b", 0)
        sim.set("c", 0)
        sim.tick(cycles=3)
        assert sim.get("r0") == 3
        assert sim.get("r1") == 7  # b low: the xor arm never ran
        assert sim.get("r2") == 0
