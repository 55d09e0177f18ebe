"""The ``$write`` buffer is tenant state on the host, not engine state.

Text a ``$write`` leaves pending until a ``$display`` ends the line
belongs to the tenant: a lane that joins a cohort from a restored state
must not pick up what the quiet boot behind the join wrote, and a lane
that leaves for a scalar engine between the two tasks must keep it.
Each case is checked against a scalar run of the same length.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.compiler.service import CompilerService
from repro.interp import TaskHost
from repro.interp.compile import CompiledModuleCode, CompiledSimulator
from repro.interp.compile.batch import BatchedCohort, batch_code_for
from repro.runtime import Runtime
from repro.runtime.cohort import CohortEngine
from repro.verilog import flatten, parse

#: an initial ``$write`` the first tick's ``$display`` ends
BOOT_WRITER = """
module m(input wire clock);
  reg [7:0] n = 0;
  wire [7:0] s;
  assign s = n + 8'd1;
  initial $write("boot ");
  always @(posedge clock) begin
    if (s == 8'd1 || s == 8'd3) $display("n=%0d", n);
    n <= n + 1;
  end
endmodule
"""

#: a ``$write`` on one tick, the ``$display`` ending its line on the next
LATE_DISPLAY = """
module m(input wire clock);
  reg [7:0] n = 0;
  wire [7:0] s;
  assign s = n + 8'd1;
  always @(posedge clock) begin
    if (s == 8'd3) $write("w%0d ", n);
    if (s == 8'd4) $display("n=%0d", n);
    n <= n + 1;
  end
endmodule
"""


@pytest.fixture
def o2(monkeypatch):
    """The vector licence needs the mid-end, which the O0 CI leg turns off."""
    monkeypatch.setenv("REPRO_OPT_LEVEL", "2")


def _scalar_display(flat, code, ticks):
    sim = CompiledSimulator(flat, TaskHost(), code=code)
    sim.tick(cycles=ticks)
    return sim.host.display_log


def test_a_restored_join_does_not_replay_the_boot_write(o2):
    source = parse(BOOT_WRITER)
    flat = flatten(source, source.modules[-1].name)
    code = CompiledModuleCode(flat, opt_level=2)
    twin = CompiledSimulator(flat, TaskHost(), code=code)
    twin.tick(cycles=1)
    assert twin.host.display_log == ["boot n=0"]
    cohort = BatchedCohort(batch_code_for(code))
    lane = cohort.join(twin.host, state=twin.store.snapshot())
    cohort.times[lane] = twin.time
    cohort.tick(2)
    # (a join that replays the quiet boot's text prints "boot n=2")
    assert twin.host.display_log == _scalar_display(flat, code, 3) \
        == ["boot n=0", "n=2"]


def test_a_lane_detached_between_write_and_display_keeps_the_text(o2):
    service = CompilerService()
    program = service.compile_program(LATE_DISPLAY)
    runtime = Runtime(program, compiler=service)
    cohort = CohortEngine(program, compiler=service)
    runtime.engine = cohort.admit(runtime.host, state=runtime.engine.snapshot(),
                                  time=runtime.engine.time)
    cohort.advance([runtime], 3)
    assert runtime.host.display_log == []
    time = runtime.engine.time
    runtime.adopt_software(cohort.detach(runtime.engine), time)
    runtime.tick(2)
    # (a detach that drops the lane's pending text prints "n=3")
    reference = _scalar_display(program.flat, service.codegen(
        program.flat, env=program.env, digest=program.digest), 5)
    assert runtime.host.display_log == reference == ["w2 n=3"]
