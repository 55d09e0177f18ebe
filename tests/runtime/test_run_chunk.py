"""``Engine.run_chunk``: a span costs and does the same however it is cut.

The runtime hands an engine a tick budget and the engine retires as much
of it as it can in one dispatch.  These tests pin the contract from the
outside: any partition of N ticks into chunks must be indistinguishable
from N budget-1 dispatches — ``$display`` log, architectural state,
tick count, ``$finish`` status **and modeled time, bit for bit** — on
every stepping path (event plan, its baseline, reference interpreter,
cohort lanes), and the engine must come up for air on exactly the tick
where the runtime has work to do.
"""

import random

import pytest

from repro.bench import BENCHMARKS
from repro.compiler import ArtifactStore, CompilerService
from repro.fabric import DE10, F1
from repro.fuzz.gen import generate
from repro.harness.common import bench_source_kwargs
from repro.hypervisor import Hypervisor
from repro.hypervisor.supervisor import Supervisor
from repro.interp import TaskHost
from repro.interp.compile.batch import HAVE_NUMPY
from repro.runtime import DirectBoardBackend, Runtime, SoftwareEngine
from repro.runtime.cohort import CohortLaneEngine
from repro.serve import FleetConfig
from repro.serve.fleet import Fleet

FUZZ_SEEDS = range(10)

#: the continuous assign keeps it inside the vectorizable subset
FINISHER = """
module finisher(input wire clock);
  reg [31:0] n = 0;
  wire [31:0] twice;
  assign twice = n << 1;
  always @(posedge clock) begin
    n <= n + 1;
    if (n % 3 == 0) $display("n=%0d twice=%0d", n, twice);
    if (n == {at}) $finish(2);
  end
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

LOOPER = """
module looper(input wire clock);
  reg [31:0] n = 0;
  reg [31:0] laps = 0;
  always @(posedge clock) begin
    n <= n + 1;
    $display("n=%0d", n);
    if (n == 3) $save;
    if (n == 7) $restart;
  end
endmodule
"""

COUNTER = """
module counter(input wire clock);
  reg [31:0] n = 0;
  always @(posedge clock) n <= n + 1;
endmodule
"""

TWO_INPUTS = """
module two(input wire clock, input wire aux);
  reg [31:0] n = 0;
  always @(posedge clock) n <= n + 1 + aux;
endmodule
"""

#: parks itself: once n reaches 9 nothing is sensitive to the clock
SLEEPER = """
module sleeper(input wire clock);
  reg [7:0] n = 0;
  wire go;
  assign go = (n != 9);
  always @(posedge clock) if (go) n <= n + 1;
endmodule
"""

#: selects the stepping path under test: (REPRO_SIM_EVENT, sim_backend)
PATHS = {
    "event": ("1", "compiled"),
    "sweep": ("0", "compiled"),
    "interp": ("1", "interp"),
}


@pytest.fixture(autouse=True)
def default_stack(monkeypatch):
    """The paths under test are chosen here, not by the ambient CI leg
    (the idle proof and the vector licence both need the mid-end on)."""
    for name in ("REPRO_OPT_LEVEL", "REPRO_SIM_BACKEND", "REPRO_VCD"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("REPRO_SIM_EVENT", "1")


@pytest.fixture(params=sorted(PATHS))
def make(request, monkeypatch):
    """Runtime factory pinned to one stepping path."""
    event, backend = PATHS[request.param]
    monkeypatch.setenv("REPRO_SIM_EVENT", event)

    def build(source):
        return Runtime(source, sim_backend=backend,
                       compiler=CompilerService())

    build.path = request.param
    return build


def partition(total, rng):
    """A random cut of *total* ticks into chunks, 1-tick chunks included."""
    chunks = []
    while total > 0:
        chunk = min(total, rng.choice((1, 2, 3, 5, 8, 13, 64, total)))
        chunks.append(chunk)
        total -= chunk
    return chunks


def observe(runtime):
    return {
        "display": list(runtime.host.display_log),
        "state": runtime.engine.snapshot(),
        "ticks": runtime.ticks,
        "finished": (runtime.finished, runtime.host.finish_code),
        "sim_time": runtime.sim_time,   # compared with ==, not approx
        "time": runtime.engine.sim.time,
    }


def designs():
    for seed in FUZZ_SEEDS:
        program = generate(seed)
        yield f"fuzz-{seed}", program.source, program.ticks + 3
    for name in ("mips32", "df"):
        yield name, BENCHMARKS[name].source(**bench_source_kwargs(name)), 160


class TestPartitionEquivalence:
    def test_any_partition_equals_single_stepping(self, make):
        for label, source, total in designs():
            stepped = make(source)
            for _ in range(total):
                stepped.tick(1)
            expect = observe(stepped)
            rng = random.Random(label)
            for _ in range(3):
                chunks = partition(total, rng)
                chunked = make(source)
                for chunk in chunks:
                    chunked.tick(chunk)
                assert observe(chunked) == expect, (make.path, label, chunks)

    def test_event_plan_retires_the_chunk_inside_the_simulator(
            self, monkeypatch):
        engine = SoftwareEngine(compile_source(TWO_INPUTS), TaskHost(),
                                backend="compiled")
        calls = []
        tick = engine.sim.tick
        monkeypatch.setattr(engine.sim, "tick",
                            lambda *a, **k: calls.append(a) or tick(*a, **k))
        stats = engine.run_chunk("clock", 50, now=1.0)
        assert stats.ticks == 50 and not calls
        assert stats.now > 1.0 and stats.seconds == stats.now - 1.0
        assert engine.get("n") == 50
        # a clock the plan does not cover single-steps through tick()
        assert engine.run_chunk("aux", 2).ticks == 2 and len(calls) == 2


def compile_source(source):
    return CompilerService().compile_program(source)


class TestPathsAgree:
    def test_generated_period_equals_baseline_and_interpreter(
            self, monkeypatch):
        """The event plan's generated ``period()`` against its two
        references, chunked: same log, state, ticks and — against the
        baseline, which counts the same statements — modeled seconds."""
        for label, source, total in designs():
            seen = {}
            for path, (event, backend) in PATHS.items():
                monkeypatch.setenv("REPRO_SIM_EVENT", event)
                runtime = Runtime(source, sim_backend=backend,
                                  compiler=CompilerService())
                for chunk in partition(total, random.Random(label)):
                    runtime.tick(chunk)
                seen[path] = observe(runtime)
                if path == "event":
                    sim = runtime.engine.sim
                    assert sim.code.period_plan in ("static", None), label
                    assert sim.slow_periods == (
                        0 if sim.code.period_plan else runtime.ticks), label
            assert seen["event"] == seen["sweep"], label
            seen["interp"]["sim_time"] = seen["event"]["sim_time"]
            assert seen["interp"] == seen["event"], label


class TestStopsWhereSingleSteppingDoes:
    def test_finish_mid_chunk(self, make):
        source = FINISHER.format(at=6)
        chunked, stepped = make(source), make(source)
        chunked.tick(40)
        for _ in range(40):
            stepped.tick(1)
        assert chunked.ticks == 7
        assert observe(chunked) == observe(stepped)
        engine = make(source).engine
        assert engine.run_chunk("clock", 40).ticks == 7
        assert engine.run_chunk("clock", 40).ticks == 0   # nothing left

    def test_save_mid_chunk(self, make):
        chunked, stepped = make(SAVER), make(SAVER)
        chunked.tick(20)
        for _ in range(20):
            stepped.tick(1)
        # captured between ticks, after the tick where n == 4 ran
        assert chunked.saved_context.ticks == stepped.saved_context.ticks == 5
        assert chunked.saved_context.state == stepped.saved_context.state
        assert [e.time for e in chunked.telemetry] == \
            [e.time for e in stepped.telemetry]
        assert observe(chunked) == observe(stepped)
        assert make(SAVER).engine.run_chunk("clock", 20).ticks == 5

    def test_restart_mid_chunk(self, make):
        chunked, stepped = make(LOOPER), make(LOOPER)
        chunked.tick(30)
        for _ in range(30):
            stepped.tick(1)
        tags = [e.tag for e in chunked.telemetry]
        assert tags.count("restart") >= 2
        assert [(e.tag, e.time) for e in chunked.telemetry] == \
            [(e.tag, e.time) for e in stepped.telemetry]
        assert observe(chunked) == observe(stepped)

    def test_pending_attach_transitions_on_the_same_tick(
            self, make, monkeypatch):
        crossings = []
        transition = Runtime.transition_to_hardware

        def spy(runtime):
            crossings.append((runtime.ticks, runtime.sim_time))
            transition(runtime)

        monkeypatch.setattr(Runtime, "transition_to_hardware", spy)
        for chunks in ([40], [1] * 40, [3, 9, 28]):
            runtime = make(COUNTER)
            runtime.tick(2)
            runtime.attach(DirectBoardBackend(
                DE10, compiler=CompilerService(ArtifactStore())))
            # ready after a handful of software ticks, mid-chunk
            runtime._hw_ready_at = runtime.sim_time + 7.5 * (
                runtime.sim_time / 2)
            for chunk in chunks:
                runtime.tick(chunk)
            assert runtime.mode == "hardware"
            assert runtime.ticks == 42
            assert runtime.engine.get("n") == 42
        assert len(crossings) == 3 and len(set(crossings)) == 1
        assert crossings[0][0] == 10   # 2 + ceil(7.5) software ticks


class TestQuiescence:
    def test_going_idle_mid_chunk_retires_the_rest_in_one_dispatch(
            self, monkeypatch):
        chunked = Runtime(SLEEPER, sim_backend="compiled",
                          compiler=CompilerService())
        stepped = Runtime(SLEEPER, sim_backend="compiled",
                          compiler=CompilerService())
        dispatches = []
        run_chunk = chunked.engine.run_chunk

        def spy(*args):
            dispatches.append(run_chunk(*args))
            return dispatches[-1]

        monkeypatch.setattr(chunked.engine, "run_chunk", spy)
        chunked.tick(5000)
        for _ in range(5000):
            stepped.tick(1)
        assert len(dispatches) == 1
        # nine counting ticks, one empty one, then the proof takes over
        assert dispatches[0].ticks == 5000
        assert dispatches[0].idle_ticks == 4990
        assert chunked.idle_fastforwards == 1
        assert chunked.is_idle()
        assert observe(chunked) == observe(stepped)

    def test_supervisor_counts_serve_driven_fastforwards(self):
        fleet = Fleet([Hypervisor(F1)],
                      FleetConfig(board_capacity=0, cohorts=False))
        digest = fleet.supervisor.hypervisors[0].compiler.compile_program(
            SLEEPER).digest
        for name in ("a", "b"):
            fleet.admit_job(name, SLEEPER, digest)
        assert fleet.stats()["fleet"]["idle_fastforwards"] == 0
        assert fleet.advance("a", 64).idle
        fleet.advance("a", 500)
        fleet.advance("b", 8)       # still counting: nothing to skip
        assert fleet.stats()["fleet"]["idle_fastforwards"] == 2
        fleet.release("a")          # the count outlives the tenant
        assert fleet.supervisor.idle_fastforwards == 2


@pytest.mark.skipif(not HAVE_NUMPY, reason="cohorts need NumPy")
class TestCohortLanes:
    """Three lanes of one program, staggered so they ``$finish`` on
    different vector ticks, advanced as one engine like the serving
    layer advances a cohort unit."""

    def _cohort(self):
        fleet = Fleet([Hypervisor(F1)], FleetConfig(board_capacity=0))
        sup = fleet.supervisor
        for i in range(3):
            sup.admit(f"t{i}", FINISHER.format(at=20), software=True)
            sup.tenants[f"t{i}"].runtime.tick(4 * i)
        assert sup.form_cohorts() == 1
        return fleet

    def _drive(self, fleet, chunks):
        tenants = fleet.supervisor.tenants
        for chunk in chunks:
            fleet.advance_cohort(list(tenants), chunk)
        out = {}
        for name, tenant in tenants.items():
            runtime = tenant.runtime
            assert isinstance(runtime.engine, CohortLaneEngine)
            out[name] = {
                "display": list(runtime.host.display_log),
                "state": runtime.engine.snapshot(),
                "ticks": runtime.ticks,
                "finished": (runtime.finished, runtime.host.finish_code),
                "sim_time": runtime.sim_time,
                "time": runtime.engine.time,
            }
        return out

    def test_any_partition_equals_single_stepping(self):
        expect = self._drive(self._cohort(), [1] * 30)
        assert [expect[f"t{i}"]["ticks"] for i in range(3)] == [21, 21, 21]
        assert all(lane["finished"] == (True, 2) for lane in expect.values())
        rng = random.Random(7)
        for _ in range(4):
            chunks = partition(30, rng)
            assert self._drive(self._cohort(), chunks) == expect, chunks

    def test_one_advance_per_chunk_and_no_lane_ahead_of_its_runtime(self):
        """A snapshot, checkpoint or detach is legal after any advance,
        a neighbour's mid-chunk ``$finish`` included."""
        fleet = self._cohort()
        sup = fleet.supervisor
        cohort = sup.cohorts[0]
        reports = fleet.advance_cohort(list(sup.tenants), 15)
        assert cohort.vector_ticks == 15
        assert [r.ticks for r in reports.values()] == [15, 15, 13]
        assert [r.finished for r in reports.values()] == [False, False, True]
        for name, tenant in sup.tenants.items():
            runtime = tenant.runtime
            assert runtime.engine.time == runtime.ticks
            assert reports[name].seconds > 0
            runtime.engine.snapshot()
            assert sup.checkpoint(name).ticks == runtime.ticks
        sup.extract("t2")
        assert sup.tenants["t2"].runtime.ticks == 21
        # the two lanes left are the whole cohort again: naming one
        # advances (and reports) both
        assert sorted(fleet.advance_cohort(["t0"], 2)) == ["t0", "t1"]
        assert [t.runtime.ticks for t in sup.tenants.values()] == [17, 21, 21]
