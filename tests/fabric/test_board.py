"""Simulated board tests: the hardware half of the engine ABI."""

import pytest

from repro.core import compile_program
from repro.fabric import DE10, BitstreamCompiler, BoardError, SimulatedBoard, SynthOptions
from repro.runtime import abi
from repro.verilog import parse_expr

COUNTER = """
module counter(input wire clock, output wire [31:0] out);
  reg [31:0] n = 0;
  always @(posedge clock) n <= n + 1;
  assign out = n;
endmodule
"""

TRAPPER = """
module trapper(input wire clock);
  reg [31:0] n = 0;
  always @(posedge clock) begin
    $display("n=%0d", n);
    n <= n + 1;
  end
endmodule
"""


def board_with(source):
    program = compile_program(source)
    compiler = BitstreamCompiler(DE10, SynthOptions())
    bitstream = compiler.compile(program.transform.module, program.hardware_text)
    board = SimulatedBoard(DE10)
    board.program(bitstream, {1: program})
    return board, program


class TestDataPlane:
    def test_get_set(self):
        board, _ = board_with(COUNTER)
        board.set_var(1, "n", 41)
        assert board.get_var(1, "n") == 41

    def test_read_expr(self):
        board, _ = board_with(COUNTER)
        board.set_var(1, "n", 6)
        assert board.read_expr(1, parse_expr("n * 2")) == 12

    def test_write_lvalue(self):
        board, _ = board_with(COUNTER)
        board.write_lvalue(1, parse_expr("n"), 9)
        assert board.get_var(1, "n") == 9

    def test_snapshot_restore(self):
        board, _ = board_with(COUNTER)
        board.set_var(1, "n", 123)
        snap = board.snapshot(1)
        board.set_var(1, "n", 0)
        board.restore(1, snap)
        assert board.get_var(1, "n") == 123

    def test_unknown_slot(self):
        board, _ = board_with(COUNTER)
        with pytest.raises(BoardError):
            board.get_var(99, "n")


class TestControlPlane:
    def test_evaluate_runs_one_tick(self):
        board, _ = board_with(COUNTER)
        board.set_var(1, "clock", 1)
        outcome = board.evaluate(1)
        assert outcome.status == "done"
        board.set_var(1, "clock", 0)
        board.evaluate(1)
        assert board.get_var(1, "n") == 1

    def test_three_cycles_per_tick(self):
        """§6.4's minimum: toggle, evaluate, latch in separate cycles."""
        board, _ = board_with(COUNTER)
        for _ in range(4):
            board.set_var(1, "clock", 1)
            board.evaluate(1)
            board.set_var(1, "clock", 0)
            board.evaluate(1)
        assert board.slots[1].native_cycles / 4 == 3.0

    def test_trap_and_cont(self):
        board, program = board_with(TRAPPER)
        board.set_var(1, "clock", 1)
        outcome = board.evaluate(1)
        assert outcome.status == "trap"
        site = program.transform.tasks[outcome.task_id]
        assert site.name == "$display"
        after = board.cont(1)
        assert after.status == "done"

    def test_evaluate_with_pending_trap_rejected(self):
        board, _ = board_with(TRAPPER)
        board.set_var(1, "clock", 1)
        board.evaluate(1)
        with pytest.raises(BoardError):
            board.evaluate(1)

    def test_run_ticks_batch(self):
        board, _ = board_with(COUNTER)
        outcome = board.run_ticks(1, "clock", 10)
        assert outcome.status == "done"
        assert outcome.ticks_done == 10
        assert board.get_var(1, "n") == 10

    def test_run_ticks_stops_at_trap(self):
        board, _ = board_with(TRAPPER)
        outcome = board.run_ticks(1, "clock", 10)
        assert outcome.status == "trap"
        assert outcome.ticks_done == 0


class TestReplies:
    """The board answers control messages with the ABI's own replies."""

    def test_evaluate_and_cont_count_their_native_cycles(self):
        board, _ = board_with(TRAPPER)
        board.set_var(1, "clock", 1)
        start = board.slots[1].native_cycles
        trap = board.evaluate(1)
        after = board.cont(1)
        assert isinstance(trap, abi.TrapReply)
        assert isinstance(after, abi.TrapReply)
        assert (trap.status, after.status) == ("trap", "done")
        assert (trap.native_cycles + after.native_cycles
                == board.slots[1].native_cycles - start)

    def test_run_ticks_counts_its_native_cycles(self):
        board, _ = board_with(COUNTER)
        start = board.slots[1].native_cycles
        reply = board.run_ticks(1, "clock", 4)
        assert isinstance(reply, abi.BatchReply)
        assert reply.native_cycles == board.slots[1].native_cycles - start
        assert reply.native_cycles == 4 * 3

    def test_handle_returns_the_board_reply(self):
        board, _ = board_with(COUNTER)
        batch = board.handle(1, abi.RunTicks("clock", 2))
        assert batch == abi.BatchReply("done", 2, 0, batch.native_cycles)
        board.set_var(1, "clock", 1)
        assert isinstance(board.handle(1, abi.Evaluate()), abi.TrapReply)


class TestReprogramming:
    def test_program_destroys_state(self):
        board, program = board_with(COUNTER)
        board.set_var(1, "n", 77)
        bitstream = board.bitstream
        board.program(bitstream, {1: program})
        assert board.get_var(1, "n") == 0  # power-on value

    def test_reconfiguration_accounted(self):
        board, program = board_with(COUNTER)
        assert board.reconfigurations == 1
        board.program(board.bitstream, {1: program})
        assert board.reconfigurations == 2
        assert board.reconfig_seconds_total == 2 * DE10.reconfig_seconds

    def test_utilization(self):
        board, _ = board_with(COUNTER)
        util = board.utilization()
        assert 0 < util["luts"] < 1
