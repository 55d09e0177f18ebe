"""Engine tests: software/hardware parity through the ABI."""

import pytest

from repro.core import compile_program
from repro.fabric import DE10
from repro.interp import TaskHost, VirtualFS
from repro.runtime import DirectBoardBackend, SoftwareEngine, HardwareEngine, TrapServicer

COUNTER = """
module counter(input wire clock, output wire [31:0] out);
  reg [31:0] n = 0;
  always @(posedge clock) n <= n + 1;
  assign out = n;
endmodule
"""

CHATTY = """
module chatty(input wire clock);
  reg [31:0] n = 0;
  always @(posedge clock) begin
    $display("n=%0d", n);
    n <= n + 1;
  end
endmodule
"""


def hardware_engine(source):
    program = compile_program(source)
    backend = DirectBoardBackend(DE10)
    placement = backend.place(program)
    host = TaskHost()
    channel = backend.channel(placement.engine_id)
    servicer = TrapServicer(host, program.env)
    return HardwareEngine(program, host, channel, placement.clock_hz, servicer)


class TestSoftwareEngine:
    def test_run_tick_advances(self):
        program = compile_program(COUNTER)
        engine = SoftwareEngine(program, TaskHost())
        for _ in range(3):
            stats = engine.run_chunk("clock", 1)
            assert stats.seconds > 0
        assert engine.get("n") == 3

    def test_set_get(self):
        program = compile_program(COUNTER)
        engine = SoftwareEngine(program, TaskHost())
        engine.set("n", 10)
        assert engine.get("n") == 10

    def test_snapshot_restore(self):
        program = compile_program(COUNTER)
        engine = SoftwareEngine(program, TaskHost())
        engine.run_chunk("clock", 1)
        snap = engine.snapshot()
        other = SoftwareEngine(program, TaskHost())
        other.restore(snap)
        assert other.get("n") == 1

    @pytest.mark.parametrize("backend", ["compiled", "interp"])
    def test_quiet_boot_then_every_task_reaches_the_real_host(self, backend):
        """``quiet_init`` boots against a throwaway host and then swaps
        the real one in: the boot's ``$display`` is not replayed, and
        every later ``$display``/``$write`` (escaped or interpreted)
        lands in the real host."""
        program = compile_program("""
            module boot(input wire clock);
              reg [7:0] n = 0;
              initial $display("boot");
              always @(posedge clock) begin
                $write("w%0d ", n);
                $display("n=%0d t=%0t", n, $time);
                n <= n + 1;
              end
            endmodule
        """)
        loud = TaskHost()
        SoftwareEngine(program, loud, backend=backend)
        assert loud.display_log == ["boot"]
        host = TaskHost()
        engine = SoftwareEngine(program, host, backend=backend,
                                quiet_init=True)
        assert engine.sim.host is host and host.display_log == []
        engine.run_chunk("clock", 2)
        engine.run_chunk("clock", 1)
        assert host.display_log == ["w0 n=0 t=0", "w1 n=1 t=1",
                                    "w2 n=2 t=2"]


class TestHardwareEngine:
    def test_run_tick(self):
        engine = hardware_engine(COUNTER)
        for _ in range(3):
            stats = engine.run_chunk("clock", 1)
            assert stats.native_cycles > 0
        assert engine.get("n") == 3

    def test_run_batch_counts_ticks(self):
        engine = hardware_engine(COUNTER)
        stats = engine.run_chunk("clock", 20)
        assert stats.ticks == 20
        assert engine.get("n") == 20
        # batch cost: 3 cycles/tick exactly for a trap-free design
        assert stats.native_cycles == 60

    def test_traps_serviced_in_tick(self):
        engine = hardware_engine(CHATTY)
        stats = engine.run_chunk("clock", 1)
        assert stats.traps == 1
        assert engine.host.display_log == ["n=0"]

    def test_traps_serviced_in_batch(self):
        engine = hardware_engine(CHATTY)
        stats = engine.run_chunk("clock", 5)
        assert stats.ticks == 5
        assert engine.host.display_log == [f"n={i}" for i in range(5)]
        assert stats.trap_seconds > 0

    def test_snapshot_restore_via_abi(self):
        engine = hardware_engine(COUNTER)
        engine.run_chunk("clock", 4)
        snap = engine.snapshot()
        other = hardware_engine(COUNTER)
        other.restore(snap)
        assert other.get("n") == 4

    def test_partial_snapshot(self):
        engine = hardware_engine(COUNTER)
        engine.run_chunk("clock", 2)
        snap = engine.snapshot(["n"])
        # The transform's __-prefixed bookkeeping (control state, NBA
        # shadow queues) always rides along with a narrowed capture set
        # so mid-schedule checkpoints replay identically.
        assert "n" in snap
        assert all(name == "n" or name.startswith("__") for name in snap)


class TestParity:
    def test_sw_and_hw_agree(self):
        program = compile_program(COUNTER)
        sw = SoftwareEngine(program, TaskHost())
        hw = hardware_engine(COUNTER)
        for _ in range(7):
            sw.run_chunk("clock", 1)
            hw.run_chunk("clock", 1)
        assert sw.get("n") == hw.get("n") == 7

    def test_display_streams_agree(self):
        program = compile_program(CHATTY)
        sw = SoftwareEngine(program, TaskHost())
        hw = hardware_engine(CHATTY)
        for _ in range(4):
            sw.run_chunk("clock", 1)
            hw.run_chunk("clock", 1)
        assert sw.host.display_log == hw.host.display_log
