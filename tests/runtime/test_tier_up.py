"""A tenant earns its compile: the interpreter rental and the tier-up.

A :class:`Runtime` whose backend nobody chose, over a store without its
codegen artifact, boots on the reference interpreter.  Before each
dispatch it tiers up to compiled code unless the rest of its run —
*horizon* ticks at ``tick_bound`` statements each, on top of what it
already spent — stays within what the compile is worth.  The witnesses
below pin each clause of that rule, the state the swap must carry (the
``$write`` buffer), and that a served short tenant never builds codegen.
"""

import asyncio

import pytest

from repro.bench import BENCHMARKS
from repro.compiler import ArtifactStore, CompilerService
from repro.fabric import DE10
from repro.harness.common import bench_source_kwargs
from repro.hypervisor import Hypervisor
from repro.interp import Simulator, TaskHost
from repro.opt.ranges import tick_bound
from repro.runtime import DirectBoardBackend, Runtime
from repro.runtime.runtime import compile_worth
from repro.serve import Fleet, FleetConfig, ServeConfig, ServeFrontend

COUNTER = """
module counter(input wire clock);
  reg [7:0] n = 0;
  always @(posedge clock) begin
    n <= n + 1;
    if (n == 5) $display("n=%0d", n);
  end
endmodule
"""

#: ``$write``s on tick 1, ``$display``s the rest of the line on tick 3
WRITER = """
module writer(input wire clock);
  reg [7:0] n = 0;
  always @(posedge clock) begin
    n <= n + 1;
    if (n == 0) $write("a=%0d ", n + 1);
    if (n == 2) $display("b=%0d", n + 1);
  end
endmodule
"""

SPINNER = """
module spinner(input wire clock);
  reg [7:0] n = 0;
  reg [7:0] k;
  always @(posedge clock) begin
    k = 0;
    while (k < 3) k = k + 1;
    n <= n + k;
  end
endmodule
"""


def cold():
    """A private store nobody bought codegen in (no disk tier either)."""
    return CompilerService(ArtifactStore())


def backend(runtime):
    return runtime.engine.sim.backend


def tier_ups(runtime):
    return [event.value for event in runtime.telemetry
            if event.tag == "tier_up"]


def reference(source, ticks):
    program = CompilerService().compile_program(source)
    host = TaskHost()
    sim = Simulator(program.flat, host, env=program.env, backend="interp")
    sim.tick(cycles=ticks)
    return host.display_log, sim.store.snapshot()


@pytest.fixture(autouse=True)
def unchosen_backend(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)


class TestWhoRents:
    def test_a_cold_unchosen_runtime_boots_on_the_interpreter(self):
        assert backend(Runtime(COUNTER, compiler=cold())) == "interp"

    def test_an_explicit_backend_is_kept(self):
        compiled = Runtime(COUNTER, compiler=cold(), sim_backend="compiled")
        interp = Runtime(COUNTER, compiler=cold(), sim_backend="interp")
        assert backend(compiled) == "compiled"
        interp.tick(4)
        assert backend(interp) == "interp" and not tier_ups(interp)

    def test_the_environment_chooses_too(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "compiled")
        assert backend(Runtime(COUNTER, compiler=cold())) == "compiled"

    def test_a_warm_codegen_artifact_boots_compiled(self):
        service = cold()
        Runtime(COUNTER, compiler=service).tick(1)  # bought here
        assert backend(Runtime(COUNTER, compiler=service)) == "compiled"


class TestTheRule:
    def test_an_unknown_horizon_tiers_up_before_the_first_dispatch(self):
        runtime = Runtime(COUNTER, compiler=cold())
        runtime.tick(3)
        assert backend(runtime) == "compiled"
        assert tier_ups(runtime) == [0]
        assert runtime.engine.get("n") == 3

    def test_a_short_horizon_stays_interpreted_to_the_end(self):
        runtime = Runtime(COUNTER, compiler=cold())
        runtime.tick(8, horizon=8)
        assert backend(runtime) == "interp" and not tier_ups(runtime)
        display, state = reference(COUNTER, 8)
        assert runtime.host.display_log == display
        assert runtime.engine.snapshot() == state

    def test_a_horizon_the_compile_is_worth_tiers_up(self):
        runtime = Runtime(COUNTER, compiler=cold())
        bound = runtime.program.tick_bound[0]
        runtime.tick(1, horizon=compile_worth(runtime.program) // bound + 1)
        assert backend(runtime) == "compiled"

    def test_spent_statements_count_against_the_rental(self):
        runtime = Runtime(COUNTER, compiler=cold())
        worth = compile_worth(runtime.program)
        ticks = 0
        while backend(runtime) == "interp":
            runtime.tick(1, horizon=1)
            ticks += 1
        spent, = tier_ups(runtime)
        assert spent + runtime.program.tick_bound[0] > worth >= spent
        assert runtime.engine.get("n") == ticks

    def test_an_unbounded_tick_tiers_up_at_once(self):
        runtime = Runtime(SPINNER, compiler=cold())
        assert runtime.program.tick_bound == (None, "p0: while")
        runtime.tick(1, horizon=1)
        assert backend(runtime) == "compiled"

    def test_codegen_bought_by_another_tenant_ends_the_rental(self):
        service = cold()
        renter = Runtime(COUNTER, compiler=service)
        renter.tick(2, horizon=4)
        assert backend(renter) == "interp"
        Runtime(COUNTER, compiler=service).tick(1)
        renter.tick(2, horizon=2)
        assert backend(renter) == "compiled"
        assert renter.engine.get("n") == 4

    def test_leaving_for_a_board_ends_the_rental_for_good(self):
        runtime = Runtime(COUNTER, compiler=cold())
        runtime.tick(2, horizon=8)
        runtime.attach(DirectBoardBackend(DE10))
        runtime.transition_to_hardware()
        runtime.tick(2, horizon=6)
        runtime.transition_to_software()
        assert backend(runtime) == "compiled" and not tier_ups(runtime)
        runtime.tick(4, horizon=4)
        display, state = reference(COUNTER, 8)
        assert runtime.host.display_log == display
        assert runtime.engine.snapshot(list(state)) == state

    def test_the_write_buffer_survives_the_tier_up(self):
        # The reference prints "a=1 b=3"; a swap that drops the
        # interpreter's pending $write text prints only "b=3".
        runtime = Runtime(WRITER, compiler=cold())
        runtime.tick(2, horizon=2)
        assert backend(runtime) == "interp"
        runtime.tick(2)
        assert tier_ups(runtime) and backend(runtime) == "compiled"
        assert runtime.host.display_log == reference(WRITER, 4)[0] \
            == ["a=1 b=3"]

    def test_the_decision_repeats_exactly(self):
        def run():
            runtime = Runtime(COUNTER, compiler=cold())
            for _ in range(6):
                runtime.tick(2, horizon=12 - runtime.ticks)
            return runtime.sim_time, tier_ups(runtime)

        assert run() == run()


def test_tick_bound_of_the_table1_designs():
    service = CompilerService()
    bounds = {}
    for name, bench in BENCHMARKS.items():
        program = service.compile_program(
            bench.source(**bench_source_kwargs(name)))
        bounds[name] = program.tick_bound[0]
    assert bounds == {"adpcm": 34, "bitcoin": 2933, "df": 429,
                      "mips32": 20, "nw": 978, "regex": 13}


@pytest.mark.parametrize("body, why", [
    ("repeat (3) k = k + 1;", "repeat"),
    ("for (k = 0; k < n; k = k + 1) m = m + 1;", "uncounted for"),
])
def test_tick_bound_names_the_unbounded_construct(body, why):
    program = CompilerService().compile_program(f"""
        module u(input wire clock);
          reg [7:0] n = 0;
          reg [7:0] k;
          reg [7:0] m;
          wire [7:0] w;
          assign w = n;
          always @(posedge clock) n <= n + 1;
          always @(posedge clock) begin {body} end
        endmodule""")
    assert tick_bound(program.flat, program.env, 1 << 21) == (None,
                                                             f"p2: {why}")


def serve(source, ticks, service):
    fleet = Fleet([Hypervisor(DE10, compiler=service)],
                  FleetConfig(board_capacity=0, cohorts=False))

    async def go():
        frontend = ServeFrontend(fleet, ServeConfig(quantum_ticks=4))
        handle = await frontend.submit(source, ticks=ticks, name="t")
        result = await handle.result()
        await frontend.close()
        return result

    return asyncio.run(go())


def test_a_short_served_tenant_never_builds_codegen():
    service = cold()
    result = serve(COUNTER, 8, service)
    assert list(result.display) == reference(COUNTER, 8)[0]
    assert service.store.count("codegen") == 0


def test_a_long_served_tenant_compiles():
    service = cold()
    result = serve(COUNTER, 600, service)
    assert list(result.display) == reference(COUNTER, 600)[0]
    assert service.store.count("codegen") == 1
