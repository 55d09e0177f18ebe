"""Vector carrier tests: cohort lanes vs the scalar backends.

Covers the differential contract (bit-for-bit state, ``$display``
ordering and per-lane ``$finish`` against interp/compiled), lane state
(snapshot/restore, detach → scalar → admit), the refusals (an
unlicensed module, no NumPy), the cohort lane lifecycle (join/leave
and the extract → suspend → resume → rejoin round trip), the
supervisor's cohort scheduling, and multi-lane parity on generated
designs with three staggered lanes and a mid-run extraction.
"""

import os
import random

import pytest

np = pytest.importorskip("numpy")

from repro.compiler.service import CompilerService
from repro.core import compile_program
from repro.fabric.device import F1
from repro.fuzz.gen import generate
from repro.hypervisor import Hypervisor, Supervisor
from repro.hypervisor.migration import resume, suspend
from repro.interp import Simulator, TaskHost, VirtualFS
from repro.interp.compile import CompiledSimulator
from repro.interp.compile import batch as batch_mod
from repro.interp.compile.batch import (
    BatchedCohort, BatchUnsupported, UnsupportedBackend, batch_code_for,
)
from repro.runtime import Runtime, SoftwareEngine
from repro.runtime.cohort import CohortEngine, CohortError, CohortLaneEngine
from repro.serve import Fleet, FleetConfig
from repro.verilog import flatten, parse

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")

#: Exercises memories, case, loops, signed compares, dynamic range
#: selects, masked if-divergence, $display ordering and $finish.
KITCHEN = """
module kitchen(clock);
  input wire clock;
  reg [15:0] n;
  reg signed [7:0] s;
  reg [31:0] word;
  reg [7:0] mem [0:15];
  reg [3:0] sel;
  integer i;
  wire [15:0] doubled;
  assign doubled = n + n;
  initial begin
    n = 0; s = -5; word = 32'hA5A5A5A5; sel = 0;
    for (i = 0; i < 16; i = i + 1) mem[i] = i * 3;
  end
  always @(posedge clock) begin
    n <= n + 1;
    s <= s + 1;
    sel <= n[3:0];
    word[n[2:0]*4 +: 4] <= n[3:0];
    for (i = 0; i < 4; i = i + 1)
      mem[(n + i) & 15] <= mem[(n + i) & 15] + 1;
    case (sel)
      4'd0: $display("zero n=%0d d=%0d", n, doubled);
      4'd5: $display("five s=%0d", s);
      default: if (s > 0) $display("pos %0d", s);
    endcase
    if (n == FINISH_AT)
      $finish(3);
  end
endmodule
"""


def kitchen(finish_at=40):
    return KITCHEN.replace("FINISH_AT", str(finish_at))


def run_backend(source, backend, ticks):
    flat = flatten(parse(source), "kitchen")
    host = TaskHost(VirtualFS())
    sim = Simulator(flat, host, backend=backend)
    sim.tick(cycles=ticks)
    return sim, host


def kitchen_cohort(source):
    """A cohort over *source*'s vector artifact, and its flat module."""
    flat = flatten(parse(source), "kitchen")
    code = CompiledSimulator(flat).code
    return BatchedCohort(batch_code_for(code)), flat, code


@pytest.fixture
def o2(monkeypatch):
    """For tests that need a cohort: the vector licence needs the
    mid-end, which the ambient O0 CI leg turns off."""
    monkeypatch.setenv("REPRO_OPT_LEVEL", "2")


class TestDifferential:
    @pytest.mark.parametrize("finish_at,ticks", [(40, 24), (10, 24)])
    def test_state_display_finish_parity(self, finish_at, ticks, o2):
        src = kitchen(finish_at)
        ref_sim, ref_host = run_backend(src, "interp", ticks)
        sim, host = run_backend(src, "compiled", ticks)
        cohort, _, _ = kitchen_cohort(src)
        lane_host = TaskHost(VirtualFS())
        cohort.join(lane_host)
        cohort.tick(ticks)
        lanes = {
            "compiled": (sim.store.snapshot(), host, sim.time),
            "cohort": (cohort.snapshot_lane(0), lane_host,
                       int(cohort.times[0])),
        }
        for path, (state, host, time) in lanes.items():
            assert state == ref_sim.store.snapshot(), path
            assert host.display_log == ref_host.display_log, path
            assert host.finished == ref_host.finished, path
            assert host.finish_code == ref_host.finish_code, path
            assert time == ref_sim.time, path

    def test_per_lane_finish_at_different_ticks(self, o2):
        """Lanes $finish at different ticks; each must match its own
        scalar run, and dead lanes must stop advancing."""
        cohort, flat, code = kitchen_cohort(kitchen(40))
        finishes = [5, 12, 40, 40]
        hosts = []
        for at in finishes:
            host = TaskHost(VirtualFS())
            lane = cohort.join(host)
            # stagger the finish point per lane through its own state
            cohort.set_value("n", 0, lane=lane)
            hosts.append(host)
        # lanes can't vary the module text, so vary via state: push two
        # lanes close to their $finish trigger (n reads its pre-tick
        # value, so starting at 41-f makes n==40 on tick f exactly)
        cohort.set_value("n", 41 - finishes[0], lane=0)
        cohort.set_value("n", 41 - finishes[1], lane=1)
        cohort.tick(20)
        assert hosts[0].finished and hosts[0].finish_code == 3
        assert hosts[1].finished and hosts[1].finish_code == 3
        assert not hosts[2].finished and not hosts[3].finished
        # dead lanes froze their $time at the finish tick
        assert int(cohort.times[0]) == finishes[0]
        assert int(cohort.times[1]) == finishes[1]
        assert int(cohort.times[2]) == 20
        # live lanes keep matching a scalar run from the same state
        scalar = Simulator(flat, TaskHost(VirtualFS()), backend="compiled",
                           code=code)
        scalar.tick(cycles=20)
        assert cohort.snapshot_lane(2) == scalar.store.snapshot()

    def test_display_interleaving_multiple_lanes(self, o2):
        """Each lane's display stream equals its scalar twin's."""
        cohort, flat, _ = kitchen_cohort(kitchen(40))
        hosts = [TaskHost(VirtualFS()) for _ in range(3)]
        for host in hosts:
            cohort.join(host)
        cohort.tick(18)
        ref_host = TaskHost(VirtualFS())
        ref = Simulator(flat, ref_host, backend="interp")
        ref.tick(cycles=18)
        for host in hosts:
            assert host.display_log == ref_host.display_log


class TestLaneState:
    def test_save_restore_roundtrip(self, o2):
        cohort, _, _ = kitchen_cohort(kitchen(100))
        cohort.join(TaskHost(VirtualFS()))
        cohort.tick(7)
        saved = cohort.snapshot_lane(0)
        cohort.tick(5)
        after_12 = cohort.snapshot_lane(0)
        cohort.restore_lane(0, saved)
        cohort.step()
        cohort.times[0] = 7
        assert cohort.snapshot_lane(0) == saved
        cohort.tick(5)
        assert cohort.snapshot_lane(0) == after_12
        assert int(cohort.times[0]) == 12

    def test_detach_restore_admit_roundtrip(self, o2):
        """Lane → ``detach`` → scalar ``restore`` → ``admit(state=,
        time=)`` lands where a never-vectorized run does."""
        service = CompilerService()
        program = service.compile_program(kitchen(100))
        host = TaskHost(VirtualFS())
        engine = CohortEngine(program, compiler=service)
        lane = engine.admit(host)
        lane.run_chunk("clock", 7)
        time = lane.time
        scalar = SoftwareEngine(program, host, compiler=service,
                                quiet_init=True)
        scalar.restore(engine.detach(lane))
        scalar.time = time
        scalar.run_chunk("clock", 5)
        engine2 = CohortEngine(program, compiler=service)
        lane2 = engine2.admit(host, state=scalar.snapshot(), time=scalar.time)
        lane2.run_chunk("clock", 5)
        twin = SoftwareEngine(program, TaskHost(VirtualFS()), compiler=service)
        twin.run_chunk("clock", 17)
        assert lane2.snapshot() == twin.snapshot()
        assert host.display_log == twin.host.display_log
        assert lane2.time == twin.time == 17

    def test_a_finished_context_rejoins_without_a_fabricated_edge(self, o2):
        """The corpus counter finishes on its first rising edge, clock
        left high.  A lane joined from that context (the join used to
        raise FinishSignal) lands finished with the captured state, and
        resumed it goes on exactly as a scalar engine restored from the
        same context does."""
        with open(os.path.join(CORPUS, "finish_then_rejoin.v")) as handle:
            flat = flatten(parse(handle.read()), "finish_then_rejoin")
        code = CompiledSimulator(flat).code
        first = CompiledSimulator(flat, TaskHost(VirtualFS()), code=code)
        first.tick(cycles=3)
        state = first.store.snapshot()
        assert first.host.finished and state["clock"] == 1
        cohort = BatchedCohort(batch_code_for(code))
        host = TaskHost(VirtualFS())
        host.finished = True
        lane = cohort.join(host, state=state)
        assert cohort.snapshot_lane(lane) == state
        assert not cohort.alive[lane]
        scalar = CompiledSimulator(flat, TaskHost(VirtualFS()), code=code)
        scalar.restore_store(state)
        host.finished = False
        cohort.sync_alive()
        cohort.tick(3)
        scalar.tick(cycles=3)
        assert cohort.snapshot_lane(lane) == scalar.store.snapshot()
        assert host.finished and scalar.host.finished
        assert int(cohort.times[lane]) == scalar.time == 2

    def test_unlicensed_module_says_why(self):
        """Pure sequential modules (no comb layer) are outside the
        licence: the artifact and the cohort both refuse, with why."""
        src = """
        module seqonly(clock);
          input wire clock;
          reg [7:0] n;
          initial n = 0;
          always @(posedge clock) n <= n + 1;
        endmodule
        """
        service = CompilerService()
        program = service.compile_program(src)
        with pytest.raises(BatchUnsupported, match="not licensed"):
            service.batch(program.flat, env=program.env,
                          digest=program.digest)
        with pytest.raises(BatchUnsupported, match="not licensed"):
            CohortEngine(program, compiler=service)

    def test_unsupported_without_numpy(self, monkeypatch):
        flat = flatten(parse(kitchen(40)), "kitchen")
        code = CompiledSimulator(flat).code
        program = CompilerService().compile_program(kitchen(40))
        monkeypatch.setattr(batch_mod, "np", None)
        monkeypatch.setattr(batch_mod, "HAVE_NUMPY", False)
        with pytest.raises(UnsupportedBackend):
            batch_code_for(code)
        with pytest.raises(UnsupportedBackend):
            CohortEngine(program, compiler=CompilerService())


class TestCohortLifecycle:
    def _cohort_engine(self, src=None):
        service = CompilerService()
        program = service.compile_program(src or kitchen(60))
        return CohortEngine(program, compiler=service), program, service

    def test_extract_suspend_resume_rejoin(self, o2):
        """Lane → scalar engine → suspend → resume → back to a lane,
        landing bit-identical with a never-vectorized scalar run."""
        engine, program, service = self._cohort_engine()
        runtime = Runtime(program, name="t0", compiler=service)
        twin = Runtime(program, name="twin", compiler=service)
        runtime.tick(5)
        twin.tick(5)
        # absorb into a cohort
        member = engine.admit(runtime.host, state=runtime.engine.snapshot())
        member.time = runtime.engine.sim.time
        runtime.engine = member
        runtime.tick(6)
        twin.tick(6)
        # extract back to scalar
        state = engine.detach(member)
        scalar = SoftwareEngine(program, runtime.host, compiler=service,
                                quiet_init=True)
        scalar.sim.restore_state({
            "store": state,
            "vfs": runtime.host.vfs.snapshot(),
            "time": 11,
        })
        scalar.sim.step()
        runtime.engine = scalar
        # suspend/resume through the migration path; the context
        # carries logical ticks but not $time, so re-anchor it the way
        # the hypervisor's full-state restore does
        context = suspend(runtime)
        fresh = Runtime(program, name="t1", compiler=service,
                        quiet_boot=True)
        resume(fresh, context)
        fresh.engine.sim.time = scalar.sim.time
        fresh.tick(4)
        twin.tick(4)
        # rejoin a (new) cohort and finish out
        engine2 = CohortEngine(program, compiler=service)
        member2 = engine2.admit(fresh.host,
                                state=fresh.engine.snapshot())
        member2.time = fresh.engine.sim.time
        fresh.engine = member2
        fresh.tick(3)
        twin.tick(3)
        assert fresh.engine.snapshot() == twin.engine.snapshot()
        assert fresh.host.display_log[-3:] == twin.host.display_log[-3:]
        assert fresh.engine.time == twin.engine.sim.time

    def test_set_drives_one_lane_and_settles(self, o2):
        """``CohortLaneEngine.set`` writes its own lane and settles the
        cohort, as ``SoftwareEngine.set`` writes and steps one engine:
        the comb layer (``doubled``) follows, the neighbour does not."""
        engine, program, service = self._cohort_engine()
        lane, neighbour = (engine.admit(TaskHost(VirtualFS()))
                           for _ in range(2))
        scalar = SoftwareEngine(program, TaskHost(VirtualFS()),
                                compiler=service)
        untouched = neighbour.snapshot()
        lane.set("n", 21)
        scalar.set("n", 21)
        assert lane.get("n") == 21 and lane.get("doubled") == 42
        assert lane.snapshot() == scalar.snapshot()
        assert neighbour.snapshot() == untouched
        engine.detach(lane)
        with pytest.raises(CohortError):
            lane.set("n", 1)

    def test_restore_writes_one_lane_and_settles(self, o2):
        """``CohortLaneEngine.restore`` puts a scalar engine's state on
        its lane, settled, and leaves the neighbour as it was."""
        engine, program, service = self._cohort_engine()
        lane, neighbour = (engine.admit(TaskHost(VirtualFS()))
                           for _ in range(2))
        scalar = SoftwareEngine(program, TaskHost(VirtualFS()),
                                compiler=service)
        scalar.run_chunk("clock", 9)
        untouched = neighbour.snapshot()
        lane.restore(scalar.snapshot())
        assert lane.snapshot() == scalar.snapshot()
        assert lane.get("doubled") == 2 * scalar.get("n") != 0
        assert neighbour.snapshot() == untouched
        engine.detach(lane)
        with pytest.raises(CohortError):
            lane.restore(scalar.snapshot())

    def test_detach_shrinks_lanes(self, o2):
        engine, program, service = self._cohort_engine()
        members = [engine.admit(TaskHost(VirtualFS())) for _ in range(3)]
        assert engine.size == 3
        engine.detach(members[1])
        assert engine.size == 2
        assert members[0].lane == 0 and members[2].lane == 1
        with pytest.raises(CohortError):
            members[1].get("n")

    def test_a_lane_steps_alone_only_with_no_live_neighbour(self, o2):
        engine, program, service = self._cohort_engine(kitchen(3))
        a = engine.admit(TaskHost(VirtualFS()))
        b = engine.admit(TaskHost(VirtualFS()))
        with pytest.raises(CohortError):
            a.run_chunk("clock", 1)
        assert (a.time, b.time, engine.vector_ticks) == (0, 0, 0)
        b.host.finished = True   # a dead neighbour is not left behind
        assert a.run_chunk("clock", 9).ticks == 4
        assert (a.time, b.time, a.host.finish_code) == (4, 0, 3)
        engine.detach(b)


class TestSupervisorCohorts:
    def _mk(self, n, ticks_each):
        fleet = Fleet([Hypervisor(F1)], FleetConfig(board_capacity=0),
                      checkpoint_every=8)
        sup = fleet.supervisor
        for i in range(n):
            sup.admit(f"t{i}", kitchen(25), software=True)
        for i, name in enumerate(list(sup.tenants)):
            sup.run(name, i * ticks_each)
        return fleet, sup

    def test_advance_cohort_matches_scalar_runs(self):
        """Lockstep chunks over a formed cohort, the way the serving
        layer drives it: finished lanes leave, the rest keep going."""
        fleet, a = self._mk(4, 2)
        _, b = self._mk(4, 2)
        names = list(a.tenants)
        fleet.form_cohorts(names)
        for _ in range(0, 30, 6):
            fleet.advance_cohort(names, 6)
            for name in [n for n in names if a.tenants[n].runtime.finished]:
                fleet.extract(name)
                names.remove(name)
        for name in names:
            fleet.extract(name)
        for name in list(b.tenants):
            b.run(name, 30)
        for i in range(4):
            ra = a.tenants[f"t{i}"].runtime
            rb = b.tenants[f"t{i}"].runtime
            assert not isinstance(ra.engine, CohortLaneEngine)
            assert ra.engine.snapshot() == rb.engine.snapshot()
            assert ra.host.display_log == rb.host.display_log
            assert (ra.finished, ra.host.finish_code) == \
                (rb.finished, rb.host.finish_code)
            assert ra.ticks == rb.ticks
            assert ra.engine.sim.time == rb.engine.sim.time

    def test_stats_telemetry(self, o2):
        fleet, sup = self._mk(3, 0)
        formed = sup.form_cohorts()
        assert formed == 1
        stats = sup.stats()
        assert stats["cohorts"]["active"] == 1
        assert stats["cohorts"]["formed"] == 1
        assert stats["cohorts"]["sizes"] == [3]
        fleet.advance_cohort(list(sup.tenants), 10)
        for name in sup.tenants:
            fleet.extract(name)
        stats = sup.stats()
        assert stats["cohorts"]["active"] == 0
        assert stats["cohorts"]["vector_ticks"] >= 10
        hv_stats = sup.hypervisors[0].stats()
        assert "batch_artifacts" in hv_stats
        for key in ("entries", "hits", "misses"):
            assert key in hv_stats["batch_artifacts"]

    def test_refused_cohorts_say_why(self, o2):
        """df stays scalar *and says so*; mips32 forms and is absent."""
        from repro.bench import BENCHMARKS

        sup = Supervisor([Hypervisor(F1)], checkpoint_every=8)
        digests = {}
        for design in ("df", "mips32"):
            for i in range(2):
                tenant = sup.admit(f"{design}{i}", BENCHMARKS[design].source(),
                                   software=True)
                digests[design] = tenant.runtime.program.digest[:12]
        assert sup.form_cohorts() == 1
        sup.form_cohorts()  # a second attempt does not duplicate or change it
        refused = sup.stats()["cohorts"]["refused"]
        assert list(refused) == [digests["df"]]
        assert "is 128 bits wide (> 64)" in refused[digests["df"]]


def landed(runtime):
    return {"ticks": runtime.ticks, "time": runtime.engine.time,
            "display": list(runtime.host.display_log),
            "finished": (runtime.finished, runtime.host.finish_code),
            "state": runtime.engine.snapshot()}


class TestGeneratedLanes:
    """Three tenants of each generated design, staggered so their lanes
    hold different states, advanced as one cohort in random chunks past
    ``$finish`` with one lane extracted midway: every lane must land
    where a never-vectorized run of the same ticks lands."""

    SEEDS = range(100)

    def _lanes(self, seed):
        """False when *seed*'s design stays scalar; else checks it."""
        design = generate(seed)
        rng = random.Random(seed)
        service = CompilerService()
        fleet = Fleet([Hypervisor(F1, compiler=service)],
                      FleetConfig(board_capacity=0))
        heads = {name: rng.randrange(6) for name in "abc"}
        for name, head in heads.items():
            fleet.supervisor.admit(name, design.source, software=True)
            fleet.runtime(name).tick(head)
        if fleet.form_cohorts(list(heads)) == 0:
            return False
        total, driven = design.ticks + 8, 0
        victim = rng.choice("abc")
        while driven < total:
            chunk = min(total - driven, rng.choice((1, 2, 3, 5, 8, 13)))
            fleet.advance_cohort(list(heads), chunk)
            driven += chunk
            if victim and driven >= total // 2:
                fleet.extract(victim)   # the rest stay lanes, if two do
                victim = None
        for name, head in heads.items():
            twin = Runtime(design.source, compiler=service)
            twin.tick(head + total)
            assert landed(fleet.runtime(name)) == landed(twin), (
                seed, name, heads)
        return True

    def test_every_lane_lands_where_a_scalar_run_does(self, o2):
        formed = sum(self._lanes(seed) for seed in self.SEEDS)
        # the sweep means nothing if the generator stops being licensed
        assert formed >= 15, f"only {formed} cohorts formed"
        print(f"{formed} of {len(self.SEEDS)} generated designs formed "
              "a cohort")
