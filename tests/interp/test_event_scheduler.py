"""Event-driven activity scheduling: wake-up sets, idle proof, activity.

The event plan, the compiled backend's one schedule, dispatches by
per-signal sensitivity: writes wake exactly the combinational cones
that read them (a min-heap over the acyclic prefix), clock-gated
registered blocks are skipped when their enables are low, the clock
edge is applied inline, and a quiescent design proves ``is_idle()`` so
the hypervisor can fast-forward it for free.  Every test here that
checks values checks them against the tree-walking interpreter; the
ones that check counters or modeled seconds check them against the
same artifact with its generated period unset (``watched``), which takes
the reference period every period.
"""

import pytest

from repro.compiler.artifacts import ArtifactStore
from repro.compiler.service import KIND_CODEGEN, CompilerService
from repro.interp import Simulator, TaskHost, VirtualFS
from repro.interp.compile import CompiledModuleCode
from repro.interp.compile.simulator import CompiledSimulator
from repro.interp.simulator import SimulationError
from repro.opt import optimize_module
from repro.verilog import flatten, parse


def build(text, top=None, **kwargs):
    flat = flatten(parse(text), top or parse(text).modules[-1].name)
    return flat


def sim_for(text, top=None, watched=False):
    # Pinned at O2: the idle proofs need the gating pass, which the
    # ambient REPRO_OPT_LEVEL=0 CI leg would otherwise strip.
    flat = build(text, top)
    code = CompiledModuleCode(flat, opt_level=2)
    sim = CompiledSimulator(flat, TaskHost(VirtualFS()), code=code)
    if watched:
        sim._period = None  # every period takes the reference period
    return sim


def interp_for(text, top=None):
    return Simulator(build(text, top), TaskHost(VirtualFS()),
                     backend="interp")


COUNTER = """
module counter(input wire clock);
  reg [15:0] n;
  wire [15:0] d;
  assign d = n + 16'd1;
  initial n = 0;
  always @(posedge clock) n <= d;
endmodule
"""

GATED = """
module gated(input wire clock, input wire en);
  reg [31:0] acc = 0;
  always @(posedge clock) begin
    if (en) acc <= acc + 1;
  end
endmodule
"""


class TestModeSelection:
    def test_event_on_by_default(self):
        sim = sim_for(GATED)
        schedule = sim.code.schedule
        assert schedule.gates and schedule.period_plan == "static"
        counter = sim_for(COUNTER).code
        assert counter.schedule.comb_order
        assert counter.schedule.acyclic == len(counter.schedule.comb_order)

    def test_env_switch_is_gone(self, monkeypatch):
        # The old off-switch for the event plan selects nothing now.
        monkeypatch.setenv("REPRO_SIM_EVENT", "0")
        code = sim_for(COUNTER).code
        assert code.schedule.period_plan == "static"
        assert code.schedule.acyclic == len(code.schedule.comb_order)

    def test_fifo_designs_withdraw_to_generic(self):
        # An impure assign RHS forces FIFO scheduling; event dispatch
        # must stand down rather than reorder its side effects.
        sim = sim_for("""
            module f(input wire clock);
              integer fd;
              wire [31:0] x;
              assign x = $time;
              reg [31:0] seen;
              always @(posedge clock) seen <= x;
            endmodule
        """)
        code = sim.code
        assert code.schedule.fifo and not code.schedule.gates
        assert code.schedule.acyclic == 0 and code.schedule.period_plan is None
        assert code.schedule.period_refused.startswith("fifo schedule")

    FIFO_RANDOM = """
        module fr(input wire clock);
          reg [7:0] n = 0;
          reg [31:0] c;
          wire [31:0] a, b;
          always @* c = a + n;
          assign a = $random + n;
          assign b = $random ^ {24'd0, n};
          always @(posedge clock) begin
            n <= n + 1;
            $display("%d %h %h %h", n, a, b, c);
          end
        endmodule
    """

    @pytest.mark.parametrize("opt_level", [0, 2])
    def test_fifo_design_matches_the_interpreter(self, opt_level):
        # The order $random is drawn in is observable: a queued assign
        # must run ahead of the @* block queued before it, as in the
        # interpreter, on the fifo schedule's one settle.
        flat = build(self.FIFO_RANDOM)
        code = CompiledModuleCode(flat, opt_level=opt_level)
        assert code.schedule.fifo
        sim = CompiledSimulator(flat, TaskHost(VirtualFS()), code=code)
        interp = interp_for(self.FIFO_RANDOM)
        for s in (sim, interp):
            s.tick(cycles=12)
        assert sim.host.display_log == interp.host.display_log
        assert len(interp.host.display_log) == 12
        assert sim.store.snapshot() == interp.store.snapshot()
        assert sim.stmts_executed == interp.stmts_executed
        assert sim.settle_rounds == interp.settle_rounds


class TestIdleProof:
    def test_quiescent_gated_tick_runs_no_process_bodies(self):
        sim = sim_for(GATED)
        sim.set("en", 1)
        sim.tick(cycles=4)
        assert sim.get("acc") == 4
        sim.set("en", 0)
        sim.tick(cycles=1)  # settle the enable drop
        assert sim.is_idle()
        before = sim.stmts_executed
        sim.tick(cycles=1000)
        assert sim.stmts_executed == before  # the idle fast path
        assert sim.time >= 1000
        assert sim.get("acc") == 4

    def test_idle_revoked_when_enable_rises(self):
        sim = sim_for(GATED)
        sim.set("en", 0)
        sim.tick(cycles=2)
        assert sim.is_idle()
        sim.set("en", 1)
        assert not sim.is_idle()
        sim.tick(cycles=3)
        assert sim.get("acc") == 3

    def test_ungated_clocked_block_never_idles(self):
        sim = sim_for("""
            module free(input wire clock);
              reg [7:0] n = 0;
              always @(posedge clock) n <= n + 1;
            endmodule
        """)
        sim.tick(cycles=2)
        assert not sim.is_idle()

    def test_watched_engine_takes_the_reference_tick(self):
        # What the counter references below rely on: with no generated
        # period every period of the one loop is the reference period,
        # metered like any other, and the engine proves no quiescence.
        sim = sim_for(GATED, watched=True)
        sim.tick(cycles=3)
        assert sim.tick_metered("clock", 4, 0.0, float("inf"),
                                1.0, 0.0) == (4, 4.0, 0)
        assert not sim.is_idle() and sim.slow_periods == 7
        unwatched = sim_for(GATED)
        unwatched.tick(cycles=3)
        assert unwatched.is_idle() and unwatched.slow_periods == 0

    def test_idle_fast_forward_matches_the_interpreter(self):
        fast = sim_for(GATED)
        slow = interp_for(GATED)
        for s in (fast, slow):
            s.set("en", 1)
            s.tick(cycles=5)
            s.set("en", 0)
            s.tick(cycles=200)
        assert fast.get("acc") == slow.get("acc") == 5
        assert fast.time == slow.time


class TestNbaShadowQueueActivity:
    """Satellite 1: pending NBA shadow-queue entries are activity.

    The machinify transform stages non-blocking writes in ``__we_*``
    / ``__wn_*`` shadow sites drained on a later machine step, so a
    module can be between-edges quiet while holding writes that land
    next tick.  Quiescence detection must refuse to call that idle —
    a tenant preempted there and fast-forwarded would drop the drain.
    """

    SHADOWED = """
    module shadowed(input wire clock, input wire en, input wire drain);
      reg [31:0] __wn_0 = 0;
      reg [31:0] __wseq = 0;
      reg [31:0] acc = 0;
      always @(posedge clock) begin
        if (en) begin
          __wn_0 <= __wn_0 + 1;
          __wseq <= __wseq + 1;
          acc <= acc + 1;
        end
        if (drain) begin
          __wn_0 <= 0;
          __wseq <= 0;
        end
      end
    endmodule
    """

    def test_shadow_slots_are_tabled_as_activity(self):
        sim = sim_for(self.SHADOWED)
        layout = sim.code.layout
        assert layout.slot_of["__wn_0"] in sim.code.activity_slots
        assert layout.slot_of["__wseq"] in sim.code.activity_slots
        assert layout.slot_of["acc"] not in sim.code.activity_slots

    def test_machinified_module_tables_real_shadow_sites(self):
        # The genuine article: a loop NBA machinifies into __wqa/__wqd
        # queues with an __wn count and __wc cursor; the transformed
        # module's compiled plan must table every one of them.
        service = CompilerService(ArtifactStore())
        program = service.compile_program("""
            module loopy(input wire clock);
              reg [7:0] mem [0:3];
              integer i;
              always @(posedge clock) begin
                for (i = 0; i < 4; i = i + 1) mem[i] <= i;
              end
            endmodule
        """)
        code = CompiledModuleCode(program.transform.module,
                                  env=program.hardware_env)
        names = {name for name, slot in code.layout.slot_of.items()
                 if slot in code.activity_slots}
        assert any(n.startswith("__wn_") for n in names)
        assert any(n.startswith("__wc_") for n in names)
        assert "__wseq" in names

    def test_pending_shadow_entry_blocks_idle(self):
        sim = sim_for(self.SHADOWED)
        sim.set("en", 0)
        sim.set("drain", 0)
        sim.tick(cycles=2)
        assert sim.is_idle()
        sim.set("en", 1)
        sim.tick(cycles=3)
        sim.set("en", 0)
        sim.tick(cycles=1)
        # Gates are low, queues empty — but three staged writes sit in
        # the shadow count.  This exact state used to report idle.
        assert sim.get("__wn_0") == 3
        assert not sim.is_idle()
        sim.set("drain", 1)
        sim.tick(cycles=1)
        sim.set("drain", 0)
        sim.tick(cycles=1)
        assert sim.get("__wn_0") == 0
        assert sim.is_idle()

    def test_preempted_tenant_with_staged_writes_not_fast_forwarded(self):
        # Runtime-level regression: a tenant sliced out while shadow
        # writes are pending must report busy through tick_chunk so the
        # supervisor keeps stepping it instead of warping time past the
        # drain.  O2 is pinned — the scenario under test only exists
        # with the idle probe armed.
        from repro.runtime.runtime import Runtime

        runtime = Runtime(self.SHADOWED, sim_backend="compiled",
                          opt_level=2)
        runtime.engine.set("en", 0)
        runtime.engine.set("drain", 0)
        report = runtime.tick_chunk(2)
        assert report.idle
        runtime.engine.set("en", 1)
        runtime.tick_chunk(3)
        runtime.engine.set("en", 0)
        report = runtime.tick_chunk(1)
        assert runtime.engine.get("__wn_0") == 3
        assert not report.idle
        assert not runtime.is_idle()
        runtime.engine.set("drain", 1)
        runtime.tick_chunk(1)
        runtime.engine.set("drain", 0)
        report = runtime.tick_chunk(1)
        assert report.idle


class TestCycleDownstreamRemarking:
    """Satellite 3: rank_order collapses cycle members to one trailing
    rank; a ranked process downstream of a cycle member must be
    re-marked when the cycle settles late under activity-set dispatch.
    """

    CYC = """
    module cyc(input wire clock, output wire [7:0] z);
      reg en = 0;
      reg [7:0] d = 0;
      wire [7:0] q;
      assign q = en ? d : q;   // self-loop: latch-shaped cycle member
      assign z = q ^ 8'h55;    // ranked downstream of the cycle
      always @(posedge clock) begin
        en <= ~en;
        d <= d + 3;
      end
    endmodule
    """

    def test_cycle_members_are_trailing_not_heap(self):
        sim = sim_for(self.CYC)
        code = sim.code
        assert not code.schedule.fifo
        # Both the self-looping driver and its downstream reader sit in
        # the trailing fixpoint region; neither may enter the acyclic
        # heap prefix, else a late cycle settle could strand the reader.
        assert len(code.schedule.comb_order) == 2
        assert code.schedule.acyclic == 0

    def test_downstream_of_cycle_tracks_late_settle(self):
        fast = sim_for(self.CYC)
        oracle = interp_for(self.CYC)
        for _ in range(12):
            fast.tick(cycles=1)
            oracle.tick(cycles=1)
            assert fast.get("z") == oracle.get("z")
            assert fast.get("q") == oracle.get("q")

    def test_full_state_bit_identical_over_run(self):
        fast = sim_for(self.CYC)
        slow = interp_for(self.CYC)
        fast.tick(cycles=40)
        slow.tick(cycles=40)
        assert fast.store.snapshot() == slow.store.snapshot()

    @pytest.mark.parametrize("config", ["interp", "compiled"])
    def test_oscillating_cycle_trips_the_convergence_guard(self, config):
        # Two-state at O2, so ``a`` boots at 0 and really oscillates.
        osc = "module osc(); wire a; assign a = ~a; endmodule"
        with pytest.raises(SimulationError,
                           match="evaluation did not converge"):
            if config == "interp":
                interp_for(osc)
            else:
                sim_for(osc)


class TestRestoreClearsEventState:
    def test_restore_at_quiescence_drops_stale_activity(self):
        sim = sim_for(GATED)
        sim.set("en", 1)
        sim.tick(cycles=2)
        snap = sim.save_state()
        sim.tick(cycles=5)
        sim.restore_state(snap)
        assert sim.get("acc") == 2
        assert not sim._ev_heap
        assert sim._trail_count == 0
        twin = sim_for(GATED)
        twin.set("en", 1)
        twin.tick(cycles=2)
        sim.tick(cycles=4)
        twin.tick(cycles=4)
        assert sim.get("acc") == twin.get("acc") == 6


class TestCodegenArtifactKind:
    def test_one_kind_and_no_event_argument(self):
        service = CompilerService(ArtifactStore())
        program = service.compile_program(GATED)
        args = dict(env=program.env, digest=program.digest)
        with pytest.raises(TypeError):
            service.codegen(program.flat, event=False, **args)
        with pytest.raises(TypeError):
            CompiledModuleCode(program.flat, event=False)
        service.codegen(program.flat, **args)
        assert service.store.count(KIND_CODEGEN) == 1
        assert service.warmth(program.digest) == {
            "opt": True, "codegen": True, "batch": False}

    def test_batch_layers_on_the_default_plan(self):
        pytest.importorskip("numpy")
        service = CompilerService(ArtifactStore())
        program = service.compile_program(COUNTER)
        # O2 pinned: the vector licence needs the mid-end, which the
        # ambient O0 CI leg turns off.
        args = dict(env=program.env, digest=program.digest, opt_level=2)
        service.codegen(program.flat, **args)  # what a tenant's engine runs
        before = service.stats().misses
        service.batch(program.flat, **args)
        # The licence is analysis, so batching layers on the artifact
        # the tenant already built: one new miss (the batch artifact).
        # (Counts, not warmth() values: warmth probes the ambient opt
        # level, which CI legs vary.)
        assert service.stats().misses == before + 1
        assert service.store.count(KIND_CODEGEN) == 1


def _has_cycle_frozen(reads, writes):
    """PR 12's ``scheduler.has_cycle``, verbatim (since removed)."""
    n = len(reads)
    writers_of = {}
    for i, names in enumerate(writes):
        for name in names:
            writers_of.setdefault(name, []).append(i)
    succ = [set() for _ in range(n)]
    indegree = [0] * n
    for j, names in enumerate(reads):
        for name in names:
            for i in writers_of.get(name, ()):
                if i == j:
                    return True
                if j not in succ[i]:
                    succ[i].add(j)
                    indegree[j] += 1
    queue = [i for i in range(n) if indegree[i] == 0]
    head = 0
    while head < len(queue):
        i = queue[head]
        head += 1
        for j in succ[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                queue.append(j)
    return head < n


def _licence_frozen(code):
    """PR 12's vector licence: ``static_mode`` as ``_plan_schedule``
    computed it on the sweep artifact, plus the planned clock; a
    licensed ``@*`` block counts as a member of the cone."""
    comb = ([] if code.schedule.fifo
            else [p for p in code.schedule.processes
                  if p.kind in ("assign", "cone")])
    cyclic = bool(comb) and _has_cycle_frozen([p.reads for p in comb],
                                              [p.writes for p in comb])
    static_mode = (code.specialize and not code.schedule.fifo
                   and 0 < len(code.schedule.comb_order) <= 96 and not cyclic)
    return bool(static_mode and code.schedule.tick_clock is not None)


_DESIGNS = []


def table1_and_fuzz():
    """Table-1 + fuzz seeds 0-99: ``(label, flat module)``."""
    if not _DESIGNS:
        from repro.bench import BENCHMARKS
        from repro.fuzz.gen import generate
        from repro.harness.common import bench_source_kwargs

        _DESIGNS.extend((name, flatten(parse(
            bench.source(**bench_source_kwargs(name))), name))
            for name, bench in BENCHMARKS.items())
        _DESIGNS.extend((seed, build(generate(seed).source))
                        for seed in range(100))
    return _DESIGNS


class TestVectorLicence:
    """The licence is analysis, equal to the predicate it replaced."""

    def test_verdict_matches_the_predicate_it_replaced(self):
        designs = list(table1_and_fuzz())
        # every fuzz @* block is licensed: one the licence refuses
        designs.append(("queued @*", build(
            "module m(input wire clock); reg x = 0; reg y = 0; "
            "always @* y = x & clock; always @(posedge clock) x <= ~y; "
            "endmodule")))
        verdicts = []
        for label, flat in designs:
            code = CompiledModuleCode(flat, opt_level=2)
            assert code.schedule.vector_licensed == _licence_frozen(code), \
                label
            verdicts.append(code.schedule.vector_licensed)
        assert 0 < sum(verdicts) < len(verdicts)  # both verdicts occur


class TestRefusalTable:
    """The schedule answers for every block and every period: an ``@*``
    block is a cone or names the licence clause it failed, and a period
    is planned exactly when no reason refuses one."""

    @pytest.mark.parametrize("level", [0, 2])
    def test_every_star_block_and_period_is_accounted_for(self, level):
        for label, flat in table1_and_fuzz():
            schedule = optimize_module(flat, level=level).schedule
            stars = {p.index for p in schedule.processes
                     if p.kind in ("star", "cone")}
            for p in schedule.processes:
                if p.kind == "star":
                    assert p.index in schedule.cone_refused, (label, p.index)
            assert set(schedule.cone_refused) <= stars, label
            assert ((schedule.period_plan is None)
                    == (schedule.period_refused is not None)), label


PER_TICK, PER_STMT = 3e-7, 1.1e-8


def observe(sim):
    return {
        "display": list(sim.host.display_log),
        "state": sim.store.snapshot(),
        "time": sim.time,
        "finished": (sim.host.finished, sim.host.finish_code),
    }


def drive_metered(sim, ticks, clock="clock"):
    """Tick with the engine's cost meter running; the modeled seconds.

    A compiled engine retires the span inside ``tick_metered``; the
    interpreter single-steps with the same per-period addition (what
    ``Engine.run_chunk`` does for it).
    """
    now, left = 0.0, ticks
    metered = getattr(sim, "tick_metered", None)
    while left and not sim.host.finished:
        done = metered and metered(clock, left, now, float("inf"),
                                   PER_TICK, PER_STMT)
        if done:
            left -= done[0]
            now = done[1]
            continue
        before = sim.stmts_executed
        sim.tick(clock, cycles=1)
        now += PER_TICK + (sim.stmts_executed - before) * PER_STMT
        left -= 1
    return now


def trio(module, env=None, opt_level=2, vfs=None, code=None):
    """(generated period, watched, interpreter) engines of one module;
    *code* is the artifact when the caller already built it.  The
    watched engine runs the same artifact with its generated period
    unset, so every period takes the reference period."""
    if code is None:
        code = CompiledModuleCode(module, env=env, opt_level=opt_level)
    sims = {}
    for label in ("period", "watched"):
        sims[label] = CompiledSimulator(
            module, TaskHost(vfs() if vfs else VirtualFS()), code=code)
    sims["watched"]._period = None
    sims["interp"] = Simulator(module, TaskHost(vfs() if vfs else VirtualFS()),
                               env=env, backend="interp")
    return sims


_CORPUS = []


def corpus():
    """Table-1 + fuzz seeds 0-99, flat and transformed module each:
    ``(label, module, env, ticks, vfs factory, code artifact)``."""
    if not _CORPUS:
        from repro.bench import BENCHMARKS
        from repro.fuzz.gen import generate
        from repro.harness.common import bench_source_kwargs, bench_vfs

        service = CompilerService(ArtifactStore())
        sources = [(name, bench.source(**bench_source_kwargs(name)), 40,
                    lambda name=name: bench_vfs(name, scale=1 << 12))
                   for name, bench in BENCHMARKS.items()]
        for seed in range(100):
            program = generate(seed)
            sources.append((f"fuzz-{seed}", program.source,
                            program.ticks + 3, None))
        for label, source, ticks, vfs in sources:
            program = service.compile_program(source)
            for kind, module, env in (
                    ("flat", program.flat, program.env),
                    ("hw", program.transform.module, program.hardware_env)):
                _CORPUS.append((
                    f"{label}/{kind}", module, env, ticks, vfs,
                    CompiledModuleCode(module, env=env, opt_level=2)))
    return _CORPUS


class TestGeneratedPeriod:
    """The event plan's clock period is generated code
    (``CompiledModuleCode._period_source``): same ``$display``, state,
    time, counters and modeled seconds as the reference period of the
    same artifact, same observable behaviour as the interpreter.
    """

    def test_period_equals_reference_tick_and_interpreter_on_the_corpus(self):
        static = 0
        for label, module, env, ticks, vfs, code in corpus():
            sims = trio(module, env, vfs=vfs, code=code)
            period, watched, interp = (
                sims["period"], sims["watched"], sims["interp"])
            # a transformed module is stepped by its native clock
            clock = period.code.schedule.tick_clock or "clock"
            seconds = {name: drive_metered(sim, ticks, clock)
                       for name, sim in sims.items()}
            assert observe(period) == observe(watched) == observe(interp), \
                label
            assert watched.slow_periods == watched.time, label
            assert period.stmts_executed == watched.stmts_executed, label
            assert period.settle_rounds == watched.settle_rounds, label
            assert seconds["period"] == seconds["watched"], label
            if period.code.schedule.period_plan == "static":
                static += 1
                assert period.slow_periods == 0, label
        assert static > 50

    def test_every_tick_clock_artifact_of_the_corpus_is_static(self):
        planned = 0
        for label, _, _, _, _, code in corpus():
            if code.schedule.tick_clock is None:
                assert (code.schedule.period_plan is None
                        and code.schedule.period_refused), label
                continue
            planned += 1
            assert code.schedule.period_plan == "static", label
            assert code.schedule.comb_static and "def period():" in code.source
        assert planned > 50

    def test_tick_event_interprets_no_schedule(self):
        import inspect

        body = inspect.getsource(CompiledSimulator._tick_event)
        for gone in ("for value in", "queue.append", "trigger.edge",
                     "heappush"):
            assert gone not in body


TWO_PROCS = """
module two(input wire clock);
  reg [7:0] n = 0;
  reg [7:0] m = 0;
  always @(posedge clock) begin
    n <= n + 1;
    if (n == 2) $finish(3);
  end
  always @(posedge clock) m <= m + n;
endmodule
"""

POKED = """
module poked(input wire clock, input wire [7:0] x);
  wire [7:0] y;
  assign y = x + 8'd1;
  reg [7:0] acc = 0;
  always @(posedge clock) acc <= acc + y;
endmodule
"""

#: the second block reads a wire the first one's blocking write feeds,
#: so the two cannot fuse; the mid-end gates the second on ``go``
GATED_SIBLING = """
module sib(input wire clock, input wire hold);
  reg [7:0] n = 0;
  reg open = 0;
  wire go;
  assign go = open & ~hold;
  reg [7:0] acc = 0;
  always @(posedge clock) begin
    n <= n + 1;
    open = n[0];
  end
  always @(posedge clock) begin
    if (go) acc <= acc + n;
  end
endmodule
"""

MIXED_EDGES = """
module mixed(input wire clock);
  reg [7:0] up = 0;
  reg [7:0] down = 0;
  reg [7:0] both = 0;
  reg [7:0] twice = 0;
  always @(posedge clock) up <= up + 1;
  always @(negedge clock) down <= down + up;
  always @(clock) both <= both + 1;
  always @(posedge clock or negedge clock) twice <= twice + both;
endmodule
"""

CLOCK_READER = """
module reader(input wire clock);
  reg [7:0] n = 0;
  wire [7:0] phase;
  assign phase = clock ? n : ~n;
  reg [7:0] seen = 0;
  always @(posedge clock) n <= n + 1;
  always @(negedge clock) seen <= phase;
endmodule
"""


def directed(text, script, opt_level=2):
    """Run *script* on the three engines of *text*; all must agree."""
    sims = trio(build(text), opt_level=opt_level)
    for sim in sims.values():
        script(sim)
    assert observe(sims["period"]) == observe(sims["watched"]) \
        == observe(sims["interp"])
    period, watched = sims["period"], sims["watched"]
    assert period.stmts_executed == watched.stmts_executed
    assert period.settle_rounds == watched.settle_rounds
    assert period.code.schedule.period_plan is not None
    return period


class TestPeriodEntryStates:
    """``period()`` assumes the resting state between periods; whatever
    else a caller leaves behind takes one period through the reference
    ``tick`` (counted in ``slow_periods``) and rejoins."""

    def test_clock_left_high_through_the_store(self):
        def script(sim):
            sim.tick(cycles=2)
            sim.store.set("clock", 1)
            sim.tick(cycles=3)

        sim = directed(COUNTER, script)
        assert sim.slow_periods == 1 and sim.get("n") == 5

    def test_previous_value_made_stale_without_notify(self):
        def script(sim):
            sim.tick(cycles=2)
            sim.set("clock", 1)
            sim.step()                  # a rising edge through the ABI
            sim.store.set("clock", 0, notify=False)
            sim.tick(cycles=3)          # the first rise goes unseen

        sim = directed(COUNTER, script)
        assert sim.slow_periods == 1 and sim.get("n") == 5

    def test_queue_left_behind_by_finish_mid_settle(self):
        def script(sim):
            sim.tick(cycles=5)          # $finish in the third period
            assert sim.host.finished and sim.time == 3
            sim.host.finished = False
            sim.tick(cycles=2)

        # O0: nothing fuses the two blocks, so the edge fires both
        sim = directed(TWO_PROCS, script, opt_level=0)
        assert sim.slow_periods == 1
        fresh = trio(build(TWO_PROCS), opt_level=0)["period"]
        fresh.tick(cycles=5)
        assert fresh._proc_queue == [1]     # fired, never reached

    def test_finish_on_the_rising_edge_leaves_the_clock_high(self):
        def script(sim):
            sim.tick(cycles=9)

        sim = directed(TWO_PROCS, script)
        assert sim.get("clock") == 1 and sim.time == 3
        assert sim.host.finish_code == 3 and sim.slow_periods == 0

    def test_sibling_blocking_write_opens_a_gate_in_the_same_edge(self):
        sim = directed(GATED_SIBLING, lambda sim: sim.tick(cycles=9))
        assert sim.code.gate_ids and "live = g" in sim.code.source
        assert sim.get("acc") != 0 and sim.slow_periods == 0

    def test_input_poked_between_ticks(self):
        def script(sim):
            for x in (3, 3, 9, 0):
                sim.set("x", x)
                sim.tick(cycles=2)

        sim = directed(POKED, script)
        assert sim.slow_periods == 0 and sim.get("acc") == 2 * (4 + 4 + 10 + 1)

    def test_restore_state_mid_run(self):
        def script(sim):
            sim.tick(cycles=3)
            snapshot = sim.save_state()
            sim.tick(cycles=4)
            sim.restore_state(snapshot)
            sim.tick(cycles=4)

        sim = directed(POKED, script)
        assert sim.time == 7 and sim.slow_periods == 0

    def test_both_edges_and_level_sensitivity(self):
        sim = directed(MIXED_EDGES, lambda sim: sim.tick(cycles=6),
                       opt_level=0)
        assert sim.code.schedule.period_plan == "static"
        assert sim.get("both") == 12 and sim.get("up") == 6

    @pytest.mark.parametrize(
        "text", [CLOCK_READER, TestCycleDownstreamRemarking.CYC],
        ids=["clock-reading cone", "cyclic cone"])
    def test_cones_the_static_pass_cannot_run_go_through_settle(self, text):
        sim = directed(text, lambda sim: sim.tick(cycles=12))
        assert sim.code.schedule.period_plan == "settle"
        assert "comb = settle" in sim.code.source and sim.slow_periods == 0

    def test_triggers_on_the_tick_clock_share_one_previous_value(self):
        sim = trio(build(MIXED_EDGES), opt_level=0)["period"]
        assert len(sim._events) == 5

        def cells():
            assert all(t.cell is sim._clock_prev for t in sim._events)
            return sim._clock_prev[0]

        assert cells() == 0                          # _initialize
        sim.set("clock", 1)
        sim.evaluate()
        assert cells() == 1 and sim.get("up") == 0   # _drain, no latch yet
        sim.step()
        sim.tick(cycles=2)                           # slow, then period()
        assert cells() == 0 and sim.get("up") == 2
        snapshot = sim.save_state()
        sim.store.set("clock", 1, notify=False)
        sim.restore_state(snapshot)                  # restore_state
        assert cells() == sim.get("clock") == 0
        # a design with two clocks plans none, and shares nothing
        two = sim_for("""
            module clocks(input wire a, input wire b);
              reg x = 0; reg y = 0;
              always @(posedge a) x <= ~x;
              always @(posedge b) y <= ~y;
            endmodule
        """)
        assert two.code.schedule.tick_clock is None
        assert two._events[0].cell is not two._events[1].cell


class TestWhySlowPath:
    def test_period_plan_and_refusal_reasons(self):
        def plan(text):
            code = CompiledModuleCode(build(text), opt_level=2)
            return code.schedule.period_plan, code.schedule.period_refused

        assert plan(COUNTER) == ("static", None)
        assert plan(CLOCK_READER) == ("settle", None)
        body = "reg x = 0; reg y = 0; wire w; assign w = x;"
        for item, reason in (
                ("always @* y = x & clock; always @(posedge clock) x <= ~y;",
                 "@* process on the queue: p1 (3b) a clock in its fan-in, "
                 "or a derived clock"),
                ("always @(posedge clock) x <= ~x; "
                 "always @(posedge other) y <= ~y;", "second clock"),
                ("always @(posedge (clock & other)) x <= ~x;",
                 "non-identifier event"),
                ("always @(posedge w) y <= ~y;", "clock driven in-module"),
                ("", "no edge-triggered process")):
            text = (f"module m(input wire clock, input wire other); {body} "
                    f"{item} endmodule")
            assert plan(text) == (None, reason), item

    #: (settle_rounds, stmts_executed) after 24 ticks.  A cone runs once
    #: per pass; the interpreter re-queues an @* block on its own
    #: writes, so fuzz-1, -2 and -3 read (29, 126), (81, 158), (27, 122)
    #: there.
    SERVE_COUNTS = {"fuzz-0": (50, 120), "fuzz-1": (27, 125),
                    "fuzz-2": (75, 146), "fuzz-3": (26, 121),
                    "fuzz-4": (49, 144), "fuzz-5": (75, 170)}

    def test_serve_trace_designs_take_the_generated_period(self):
        """The census of the serve traces' six fuzz designs (design seed
        11): four carry an ``@*`` block, and every one plans a period,
        ticks without a reference period (counters pinned) and, where
        its signals fit a 64-bit lane, builds a lane program."""
        from repro.harness.common import arrival_trace
        from repro.interp.compile.batch import HAVE_NUMPY, batch_code_for

        sources = {a.design: a.source for a in arrival_trace(11, 256)
                   if a.design.startswith("fuzz-")}
        assert len(sources) == 6
        cones = 0
        for label, text in sorted(sources.items()):
            sim = sim_for(text)
            code = sim.code
            cones += any(p.kind == "cone" for p in code.schedule.processes)
            assert code.schedule.period_plan is not None, (
                label, code.schedule.period_refused)
            sim.tick(cycles=24)
            assert sim.slow_periods == 0, label
            assert (sim.settle_rounds,
                    sim.stmts_executed) == self.SERVE_COUNTS[label]
            if HAVE_NUMPY and max(
                    sig.width for sig in code.env.signals.values()) <= 64:
                batch_code_for(code)  # raises BatchUnsupported if refused
        assert cones == 4

    def test_slow_periods_counts_reference_ticks(self):
        fast = sim_for(COUNTER)
        fast.tick(cycles=7)
        assert fast.slow_periods == 0
        slow = sim_for(COUNTER, watched=True)
        slow.tick(cycles=7)
        assert slow.slow_periods == 7 and slow.get("n") == fast.get("n")


class TestBenchWorkloadIdentity:
    """Every bench workload, compiled vs interpreter, bit-identical."""

    @pytest.mark.parametrize("name,ticks", [
        ("adpcm", 48), ("bitcoin", 16), ("df", 32),
        ("mips32", 48), ("nw", 48), ("regex", 48),
    ])
    def test_workload_identical(self, name, ticks):
        from repro.bench import BENCHMARKS
        from repro.harness.common import bench_vfs

        flat = flatten(parse(BENCHMARKS[name].source()), name)
        runs = {}
        for backend in ("compiled", "interp"):
            host = TaskHost(bench_vfs(name, scale=1 << 12))
            sim = Simulator(flat, host, backend=backend)
            sim.tick(cycles=ticks)
            runs[backend] = (sim.store.snapshot(), list(host.display_log),
                             host.finished, sim.time)
        assert runs["compiled"] == runs["interp"]
