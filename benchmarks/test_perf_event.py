"""Event-scheduler micro-benchmark: what does a quiescent tick cost?

Two measurements land in ``benchmarks/out/BENCH_event.json``:

* **quiescent micro** — one clock-gated register bank with every
  enable low, ticked in bulk under the event scheduler
  (``REPRO_SIM_EVENT=1``, idle fast path) and under the baseline
  configuration (``REPRO_SIM_EVENT=0``: every tick runs every clocked
  block body through the reference ``tick``).  The event side must
  be at least ``MIN_IDLE_SPEEDUP`` cheaper per tick.
* **fleet sweep** — a software-only supervisor carrying 1000 tenants
  of one shared digest, ten of them active and the rest enable-gated
  idle, driven through ``run_all``.  The interesting number is
  ``idle_fastforwards``: every idle tenant's span collapses into one
  probe + one accounting call instead of per-chunk stepping.
"""

import time

from repro.fabric.device import F1
from repro.hypervisor import Hypervisor
from repro.hypervisor.supervisor import Supervisor
from repro.interp import TaskHost, VirtualFS
from repro.interp.compile import CompiledModuleCode
from repro.interp.compile.simulator import CompiledSimulator
from repro.verilog import flatten, parse

#: required quiescent-tick cost reduction, event over baseline
MIN_IDLE_SPEEDUP = 10.0

GATED = """
module gated(input wire clock, input wire en);
  reg [31:0] acc = 0;
  reg [31:0] shade = 0;
  wire [31:0] sum;
  wire [31:0] mix;
  assign sum = acc + shade;
  assign mix = sum ^ (acc << 1);
  always @(posedge clock) begin
    if (en) acc <= acc + 1;
    if (en) shade <= mix;
  end
endmodule
"""

QUIESCENT_TICKS = 20000
FLEET_TENANTS = 1000
FLEET_ACTIVE = 10
FLEET_TICKS = 64


def _quiescent_rate(event: bool, ticks: int) -> float:
    flat = flatten(parse(GATED), "gated")
    code = CompiledModuleCode(flat, event=event)
    sim = CompiledSimulator(flat, TaskHost(VirtualFS()), code=code)
    sim.set("en", 1)
    sim.tick(cycles=4)
    sim.set("en", 0)
    sim.tick(cycles=1)  # settle the enable drop outside the window
    start = time.perf_counter()
    sim.tick(cycles=ticks)
    elapsed = max(time.perf_counter() - start, 1e-9)
    assert sim.get("acc") == 4  # quiescent means quiescent
    return ticks / elapsed


def test_quiescent_tick_cost_reduction(write_result):
    results = {}
    event_rate = _quiescent_rate(event=True, ticks=QUIESCENT_TICKS)
    sweep_rate = _quiescent_rate(event=False, ticks=QUIESCENT_TICKS)
    speedup = event_rate / sweep_rate
    results["quiescent_micro"] = {
        "ticks": QUIESCENT_TICKS,
        "event_ticks_per_sec": round(event_rate, 1),
        "sweep_ticks_per_sec": round(sweep_rate, 1),
        "speedup": round(speedup, 2),
    }

    # -- fleet sweep: 1000 engines, ten busy, the rest provably idle --
    # One (unused) board satisfies the supervisor; every tenant is a
    # software engine sharing the lead compiler's codegen artifact.
    supervisor = Supervisor([Hypervisor(F1)], software_fallback=True,
                            checkpoint_every=16)
    for i in range(FLEET_TENANTS):
        supervisor.admit(f"t{i}", GATED, software=True)
    for i in range(FLEET_ACTIVE):
        supervisor.tenants[f"t{i}"].runtime.engine.set("en", 1)
    start = time.perf_counter()
    supervisor.run_all(FLEET_TICKS, form=False)
    elapsed = max(time.perf_counter() - start, 1e-9)
    total_ticks = FLEET_TENANTS * FLEET_TICKS
    results["fleet_sweep"] = {
        "tenants": FLEET_TENANTS,
        "active": FLEET_ACTIVE,
        "ticks_each": FLEET_TICKS,
        "wall_seconds": round(elapsed, 3),
        "ticks_per_sec": round(total_ticks / elapsed, 1),
        "idle_fastforwards": supervisor.idle_fastforwards,
    }
    for i in range(FLEET_ACTIVE):
        assert supervisor.tenants[f"t{i}"].runtime.engine.get("acc") > 0
    assert supervisor.tenants[f"t{FLEET_ACTIVE}"].runtime.engine.get("acc") == 0

    result_path = write_result("BENCH_event", results)
    assert supervisor.idle_fastforwards > 0, \
        "idle tenants never took the fast-forward path"
    assert speedup >= MIN_IDLE_SPEEDUP, (
        f"quiescent tick only {speedup:.1f}x cheaper under the event "
        f"scheduler (need >={MIN_IDLE_SPEEDUP}x); see {result_path}"
    )
