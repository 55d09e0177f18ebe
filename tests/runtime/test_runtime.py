"""Runtime instance tests: JIT transitions, suspend/resume, $save."""

import struct

import pytest

from repro.compiler import ArtifactStore, CompilerService
from repro.core import compile_program
from repro.fabric import DE10, F1
from repro.interp import VirtualFS
from repro.runtime import DirectBoardBackend, Runtime, RuntimeError_

COUNTER = """
module counter(input wire clock, output wire [31:0] out);
  reg [31:0] n = 0;
  always @(posedge clock) n <= n + 1;
  assign out = n;
endmodule
"""

SAVER = """
module saver(input wire clock);
  reg [31:0] n = 0;
  always @(posedge clock) begin
    n <= n + 1;
    if (n == 4) $save;
  end
endmodule
"""


class TestLifecycle:
    def test_starts_in_software(self):
        runtime = Runtime(COUNTER)
        assert runtime.mode == "software"
        runtime.tick(3)
        assert runtime.engine.get("n") == 3

    def test_transition_preserves_state(self):
        runtime = Runtime(COUNTER)
        runtime.tick(5)
        runtime.attach(DirectBoardBackend(DE10))
        runtime._hw_ready_at = runtime.sim_time
        runtime.tick(1)
        assert runtime.mode == "hardware"
        assert runtime.engine.get("n") == 6

    def test_compile_latency_gates_transition(self):
        runtime = Runtime(COUNTER)
        # A cold compile is the premise: an explicit memory-only store,
        # so no disk tier (REPRO_ARTIFACT_DIR) can have pre-warmed this
        # design's bitstream.
        placement = runtime.attach(DirectBoardBackend(
            DE10, compiler=CompilerService(ArtifactStore())))
        assert placement.compile_seconds > 0
        runtime.tick(3)
        # Simulated time is far below the compile latency: still software.
        assert runtime.mode == "software"

    def test_cache_hit_makes_transition_fast(self):
        backend = DirectBoardBackend(DE10)
        first = Runtime(COUNTER)
        first.attach(backend)
        second = Runtime(COUNTER)
        placement = second.attach(backend)
        assert placement.cache_hit
        assert placement.compile_seconds == 0.0

    def test_transition_back_to_software(self):
        runtime = Runtime(COUNTER)
        runtime.attach(DirectBoardBackend(DE10))
        runtime._hw_ready_at = runtime.sim_time
        runtime.tick(4)
        assert runtime.mode == "hardware"
        runtime.transition_to_software()
        assert runtime.mode == "software"
        runtime._hw_ready_at = None
        runtime.tick(2)
        assert runtime.engine.get("n") == 6

    def test_batched_ticks_on_hardware(self):
        runtime = Runtime(COUNTER)
        runtime.attach(DirectBoardBackend(DE10))
        runtime._hw_ready_at = runtime.sim_time
        runtime.tick(64)
        assert runtime.engine.get("n") == 64
        assert runtime.ticks == 64


class TestSuspendResume:
    def test_context_roundtrip_software(self):
        runtime = Runtime(COUNTER)
        runtime.tick(5)
        context = runtime.save_context()
        other = Runtime(COUNTER)
        other.restore_context(context)
        assert other.engine.get("n") == 5
        assert other.ticks == 5

    def test_context_roundtrip_cross_device(self):
        src_rt = Runtime(COUNTER)
        src_rt.attach(DirectBoardBackend(DE10))
        src_rt._hw_ready_at = src_rt.sim_time
        src_rt.tick(8)
        context = src_rt.save_context()

        dst_rt = Runtime(COUNTER)
        dst_rt.attach(DirectBoardBackend(F1))
        dst_rt._hw_ready_at = dst_rt.sim_time
        dst_rt.tick(1)
        dst_rt.restore_context(context)
        dst_rt.tick(2)
        assert dst_rt.engine.get("n") == 10

    def test_save_task_captures_context(self):
        runtime = Runtime(SAVER)
        runtime.tick(8)
        assert runtime.saved_context is not None
        # Captured between ticks, after the tick where n == 4 ran.
        assert runtime.saved_context.state["n"] == 5

    def test_restart_without_context_raises(self):
        runtime = Runtime("""
            module m(input wire clock);
              always @(posedge clock) $restart;
            endmodule
        """)
        with pytest.raises(RuntimeError_):
            runtime.tick(1)

    def test_finished_cleared_on_restore(self):
        finisher = """
            module m(input wire clock);
              reg [31:0] n = 0;
              always @(posedge clock) begin
                n <= n + 1;
                if (n == 2) $finish;
              end
            endmodule
        """
        runtime = Runtime(finisher)
        runtime.tick(10)
        assert runtime.finished
        fresh = Runtime(finisher)
        fresh.tick(1)
        context = fresh.save_context()
        runtime.restore_context(context)
        assert not runtime.finished


class TestTelemetry:
    def test_events_logged(self):
        runtime = Runtime(COUNTER)
        runtime.attach(DirectBoardBackend(DE10))
        runtime._hw_ready_at = runtime.sim_time
        runtime.tick(1)
        tags = [e.tag for e in runtime.telemetry]
        assert "compile_requested" in tags
        assert "to_hardware" in tags

    def test_measure_rate_positive(self):
        runtime = Runtime(COUNTER)
        assert runtime.measure_rate(4) > 0

    def test_sim_time_monotone(self):
        runtime = Runtime(COUNTER)
        times = []
        for _ in range(5):
            runtime.tick(1)
            times.append(runtime.sim_time)
        assert times == sorted(times)
        assert times[0] > 0


class TestQuietBoot:
    BOOTED = """
        module m(input wire clock);
          reg [7:0] n = 0;
          initial $display("booting");
          always @(posedge clock) n <= n + 1;
        endmodule
    """

    def test_normal_boot_replays_initial_output(self):
        runtime = Runtime(self.BOOTED)
        assert runtime.host.display_log == ["booting"]

    def test_quiet_boot_suppresses_initial_output_but_keeps_state(self):
        runtime = Runtime(self.BOOTED, quiet_boot=True)
        assert runtime.host.display_log == []
        runtime.tick(3)
        assert runtime.engine.get("n") == 3  # execution is unaffected

    def test_resume_on_quiet_destination_does_not_duplicate_boot(self):
        from repro.hypervisor.migration import resume, suspend

        source = Runtime(self.BOOTED)
        source.tick(5)
        context = suspend(source)
        destination = Runtime(self.BOOTED, quiet_boot=True)
        resume(destination, context)
        destination.tick(2)
        assert destination.host.display_log == []
        assert destination.engine.get("n") == 7

    def test_evacuation_does_not_duplicate_boot(self):
        runtime = Runtime(self.BOOTED)
        runtime.attach(DirectBoardBackend(DE10))
        runtime._hw_ready_at = runtime.sim_time
        runtime.tick(4)
        assert runtime.mode == "hardware"
        runtime.transition_to_software()
        runtime.tick(2)
        assert runtime.host.display_log == ["booting"]
        assert runtime.engine.get("n") == 6
