"""Event-driven activity scheduling: wake-up sets, idle proof, activity.

The event plan (``REPRO_SIM_EVENT``, default on) dispatches by
per-signal sensitivity: writes wake exactly the combinational cones
that read them (a min-heap over the acyclic prefix), clock-gated
registered blocks are skipped when their enables are low, the clock
edge is applied inline, and a quiescent design proves ``is_idle()`` so
the hypervisor can fast-forward it for free.  ``REPRO_SIM_EVENT=0`` is
the same loop with none of those (empty prefix, no gates, reference
``tick``, no idle proof) and stays the oracle — every test here that
checks values checks them against that twin or the tree-walking
interpreter.
"""

import pytest

from repro.compiler.artifacts import ArtifactStore
from repro.compiler.service import (
    KIND_CODEGEN, KIND_EVENT, CompilerService,
)
from repro.interp import Simulator, TaskHost, VirtualFS
from repro.interp.compile import CompiledModuleCode, resolve_sim_event
from repro.interp.compile.simulator import CompiledSimulator
from repro.interp.simulator import SimulationError
from repro.verilog import flatten, parse


def build(text, top=None, **kwargs):
    flat = flatten(parse(text), top or parse(text).modules[-1].name)
    return flat


def sim_for(text, top=None, event=None):
    # Pinned at O2: the idle proofs need the gating pass, which the
    # ambient REPRO_OPT_LEVEL=0 CI leg would otherwise strip.
    flat = build(text, top)
    code = CompiledModuleCode(flat, opt_level=2, event=event)
    return CompiledSimulator(flat, TaskHost(VirtualFS()), code=code)


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
    def test_event_on_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_EVENT", raising=False)
        assert resolve_sim_event() is True
        sim = sim_for(GATED)
        assert sim.code.event_mode
        assert sim.code.event_acyclic == len(sim.code.comb_order)

    def test_env_zero_selects_the_baseline(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_EVENT", "0")
        assert resolve_sim_event() is False
        sim = sim_for(COUNTER)
        code = sim.code
        assert not code.event_mode
        # One loop, nothing switched on: every ranked position iterates
        # (no heap prefix), no gate is tabled, and the engine neither
        # retires chunks inline nor proves quiescence.
        assert code.comb_order and code.event_acyclic == 0
        assert not sim_for(GATED).code.gate_exprs
        assert sim.tick_metered("clock", 4, 0.0, float("inf"),
                                1.0, 0.0) is None
        sim.tick(cycles=3)
        assert sim.get("n") == 3 and not sim._ev_heap
        assert sim.is_idle() is False

    def test_explicit_arg_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_EVENT", "0")
        assert resolve_sim_event(True) is True
        sim = sim_for(GATED, event=True)
        assert sim.code.event_mode

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
        """, event=True)
        assert sim.code.fifo_mode
        assert not sim.code.event_mode


class TestIdleProof:
    def test_quiescent_gated_tick_runs_no_process_bodies(self):
        sim = sim_for(GATED, event=True)
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
        sim = sim_for(GATED, event=True)
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
        """, event=True)
        sim.tick(cycles=2)
        assert not sim.is_idle()

    def test_activity_counts_pending_work(self):
        sim = sim_for(GATED, event=True)
        assert sim.activity() == 0 or sim.activity() >= 0  # well-defined
        sim.set("en", 1)
        # A poked input dirties its slot until the next drain.
        assert isinstance(sim.activity(), int)

    def test_sweep_twin_matches_idle_fast_forward(self):
        fast = sim_for(GATED, event=True)
        slow = sim_for(GATED, event=False)
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
        sim = sim_for(self.SHADOWED, event=True)
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
                                  env=program.hardware_env, event=True)
        names = {name for name, slot in code.layout.slot_of.items()
                 if slot in code.activity_slots}
        assert any(n.startswith("__wn_") for n in names)
        assert any(n.startswith("__wc_") for n in names)
        assert "__wseq" in names

    def test_pending_shadow_entry_blocks_idle(self):
        sim = sim_for(self.SHADOWED, event=True)
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

    def test_preempted_tenant_with_staged_writes_not_fast_forwarded(
            self, monkeypatch):
        # Runtime-level regression: a tenant sliced out while shadow
        # writes are pending must report busy through tick_chunk so the
        # supervisor keeps stepping it instead of warping time past the
        # drain.  Event scheduling and O2 are pinned — the scenario
        # under test only exists with the idle probe armed.
        from repro.runtime.runtime import Runtime

        monkeypatch.setenv("REPRO_SIM_EVENT", "1")
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
        sim = sim_for(self.CYC, event=True)
        code = sim.code
        assert code.event_mode
        # Both the self-looping driver and its downstream reader sit in
        # the trailing fixpoint region; neither may enter the acyclic
        # heap prefix, else a late cycle settle could strand the reader.
        assert len(code.comb_order) == 2
        assert code.event_acyclic == 0

    def test_downstream_of_cycle_tracks_late_settle(self):
        fast = sim_for(self.CYC, event=True)
        oracle = Simulator(build(self.CYC), TaskHost(VirtualFS()),
                           backend="interp")
        for _ in range(12):
            fast.tick(cycles=1)
            oracle.tick(cycles=1)
            assert fast.get("z") == oracle.get("z")
            assert fast.get("q") == oracle.get("q")

    def test_full_state_bit_identical_over_run(self):
        fast = sim_for(self.CYC, event=True)
        slow = sim_for(self.CYC, event=False)
        fast.tick(cycles=40)
        slow.tick(cycles=40)
        assert fast.store.snapshot() == slow.store.snapshot()

    @pytest.mark.parametrize("config", ["interp", "event", "baseline"])
    def test_oscillating_cycle_trips_the_convergence_guard(self, config):
        # Two-state at O2, so ``a`` boots at 0 and really oscillates.
        osc = "module osc(); wire a; assign a = ~a; endmodule"
        with pytest.raises(SimulationError,
                           match="evaluation did not converge"):
            if config == "interp":
                Simulator(build(osc), TaskHost(VirtualFS()), backend="interp")
            else:
                sim_for(osc, event=(config == "event"))


class TestRestoreClearsEventState:
    def test_restore_at_quiescence_drops_stale_activity(self):
        sim = sim_for(GATED, event=True)
        sim.set("en", 1)
        sim.tick(cycles=2)
        snap = sim.save_state()
        sim.tick(cycles=5)
        sim.restore_state(snap)
        assert sim.get("acc") == 2
        assert not sim._ev_heap
        assert sim._trail_count == 0
        twin = sim_for(GATED, event=True)
        twin.set("en", 1)
        twin.tick(cycles=2)
        sim.tick(cycles=4)
        twin.tick(cycles=4)
        assert sim.get("acc") == twin.get("acc") == 6


class TestEventArtifactKind:
    def test_event_and_sweep_cache_under_separate_kinds(self):
        service = CompilerService(ArtifactStore())
        program = service.compile_program(GATED)
        ev = service.codegen(program.flat, env=program.env,
                             digest=program.digest, event=True)
        sw = service.codegen(program.flat, env=program.env,
                             digest=program.digest, event=False)
        assert ev is not sw
        assert ev.event_mode and not sw.event_mode
        assert service.codegen(program.flat, env=program.env,
                               digest=program.digest, event=True) is ev
        assert service.codegen(program.flat, env=program.env,
                               digest=program.digest, event=False) is sw
        warmth = service.warmth(program.digest)
        assert warmth["event"] and warmth["codegen"]

    def test_batch_layers_on_the_default_plan(self, monkeypatch):
        pytest.importorskip("numpy")
        monkeypatch.delenv("REPRO_SIM_EVENT", raising=False)
        service = CompilerService(ArtifactStore())
        program = service.compile_program(COUNTER)
        # O2 pinned: the vector licence needs the two-state grant,
        # which the ambient O0 CI leg would deny.
        args = dict(env=program.env, digest=program.digest, opt_level=2)
        service.codegen(program.flat, **args)  # what a tenant's engine runs
        before = service.stats().misses
        service.batch(program.flat, **args)
        # The licence is analysis, so batching layers on the artifact
        # the tenant already built: one new miss (the batch artifact),
        # no baseline twin.  (Counts, not warmth(): warmth probes the
        # ambient opt level, which CI legs vary.)
        assert service.stats().misses == before + 1
        assert service.store.count(KIND_CODEGEN) == 0
        assert service.store.count(KIND_EVENT) == 1


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
    computed it on the sweep artifact, plus the planned clock."""
    comb = ([] if code.fifo_mode
            else [p for p in code.processes if p.kind == "assign"])
    cyclic = bool(comb) and _has_cycle_frozen([p.reads for p in comb],
                                              [p.writes for p in comb])
    static_mode = (code.specialize and not code.fifo_mode
                   and 0 < len(code.comb_order) <= 96 and not cyclic)
    return bool(static_mode and code.tick_clock is not None)


class TestVectorLicence:
    """The licence is analysis: one verdict, whichever configuration
    the artifact carries, equal to the predicate it replaced."""

    def test_verdict_matches_the_predicate_it_replaced(self):
        from repro.bench import BENCHMARKS
        from repro.fuzz.gen import generate
        from repro.harness.common import bench_source_kwargs

        designs = [(name, flatten(parse(
            bench.source(**bench_source_kwargs(name))), name))
            for name, bench in BENCHMARKS.items()]
        designs += [(seed, build(generate(seed).source))
                    for seed in range(100)]
        verdicts = []
        for label, flat in designs:
            for event in (True, False):
                code = CompiledModuleCode(flat, opt_level=2, event=event)
                assert code.vector_licensed == _licence_frozen(code), \
                    (label, event)
            verdicts.append(code.vector_licensed)
        assert 0 < sum(verdicts) < len(verdicts)  # both verdicts occur


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

    An engine with a generated period retires the span inside
    ``tick_metered``; every other one single-steps with the same
    per-period addition (what ``Engine.run_chunk`` does for it).
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
    """(generated period, baseline, interpreter) engines of one module;
    *code* is the event-plan artifact when the caller already built it."""
    sims = {}
    for label, event in (("period", True), ("baseline", False)):
        if not (event and code):
            code = CompiledModuleCode(module, env=env, opt_level=opt_level,
                                      event=event)
        sims[label] = CompiledSimulator(
            module, TaskHost(vfs() if vfs else VirtualFS()), code=code)
    sims["interp"] = Simulator(module, TaskHost(vfs() if vfs else VirtualFS()),
                               env=env, backend="interp")
    return sims


_CORPUS = []


def corpus():
    """Table-1 + fuzz seeds 0-99, flat and transformed module each:
    ``(label, module, env, ticks, vfs factory, event-plan artifact)``."""
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
                    CompiledModuleCode(module, env=env, opt_level=2,
                                       event=True)))
    return _CORPUS


class TestGeneratedPeriod:
    """The event plan's clock period is generated code
    (``CompiledModuleCode._period_source``): same ``$display``, state,
    time, counters and modeled seconds as the baseline configuration's
    reference ``tick``, same observable behaviour as the interpreter.
    """

    def test_period_equals_baseline_and_interpreter_on_the_corpus(self):
        static = 0
        for label, module, env, ticks, vfs, code in corpus():
            sims = trio(module, env, vfs=vfs, code=code)
            period, baseline, interp = (
                sims["period"], sims["baseline"], sims["interp"])
            # a transformed module is stepped by its native clock
            clock = period.code.tick_clock or "clock"
            seconds = {name: drive_metered(sim, ticks, clock)
                       for name, sim in sims.items()}
            assert observe(period) == observe(baseline) == observe(interp), \
                label
            assert period.stmts_executed == baseline.stmts_executed, label
            assert period.settle_rounds == baseline.settle_rounds, label
            assert seconds["period"] == seconds["baseline"], label
            if period.code.period_plan == "static":
                static += 1
                assert period.slow_periods == 0, label
        assert static > 50

    def test_every_tick_clock_artifact_of_the_corpus_is_static(self):
        planned = 0
        for label, _, _, _, _, code in corpus():
            if code.tick_clock is None:
                assert code.period_plan is None and code.period_refused, label
                continue
            planned += 1
            assert code.period_plan == "static", label
            assert code.comb_static and "def period():" in code.source
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
    assert observe(sims["period"]) == observe(sims["baseline"]) \
        == observe(sims["interp"])
    period, baseline = sims["period"], sims["baseline"]
    if period.code.gate_ids:
        # a gated skip runs no statement; the baseline tables no gate
        assert period.stmts_executed < baseline.stmts_executed
    else:
        assert period.stmts_executed == baseline.stmts_executed
    assert period.settle_rounds == baseline.settle_rounds
    assert period.code.period_plan is not None
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

    def test_store_watcher_keeps_the_reference_path(self):
        def script(sim):
            sim.store.add_watcher(lambda name: None)
            sim.tick(cycles=4)

        assert directed(COUNTER, script).slow_periods == 4

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
        assert sim.code.period_plan == "static"
        assert sim.get("both") == 12 and sim.get("up") == 6

    @pytest.mark.parametrize(
        "text", [CLOCK_READER, TestCycleDownstreamRemarking.CYC],
        ids=["clock-reading cone", "cyclic cone"])
    def test_cones_the_static_pass_cannot_run_go_through_settle(self, text):
        sim = directed(text, lambda sim: sim.tick(cycles=12))
        assert sim.code.period_plan == "settle"
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
        assert two.code.tick_clock is None
        assert two._events[0].cell is not two._events[1].cell


class TestWhySlowPath:
    def test_period_plan_and_refusal_reasons(self):
        def plan(text, event=True):
            code = CompiledModuleCode(build(text), opt_level=2, event=event)
            return code.period_plan, code.period_refused

        assert plan(COUNTER) == ("static", None)
        assert plan(CLOCK_READER) == ("settle", None)
        assert plan(COUNTER, event=False) == (None, "baseline configuration")
        body = "reg x = 0; reg y = 0; wire w; assign w = x;"
        for item, reason in (
                ("always @* y = x; always @(posedge clock) x <= ~x;",
                 "@* process on the queue"),
                ("always @(posedge clock) x <= ~x; "
                 "always @(posedge other) y <= ~y;", "second clock"),
                ("always @(posedge (clock & other)) x <= ~x;",
                 "non-identifier event"),
                ("always @(posedge w) y <= ~y;", "clock driven in-module"),
                ("", "no edge-triggered process")):
            text = (f"module m(input wire clock, input wire other); {body} "
                    f"{item} endmodule")
            assert plan(text) == (None, reason), item

    def test_slow_periods_counts_reference_ticks(self):
        fast = sim_for(COUNTER, event=True)
        fast.tick(cycles=7)
        assert fast.slow_periods == 0
        slow = sim_for(COUNTER, event=False)
        slow.tick(cycles=7)
        assert slow.slow_periods == 7 and slow.get("n") == fast.get("n")


class TestBenchWorkloadIdentity:
    """Every bench workload, event vs sweep, bit-identical."""

    @pytest.mark.parametrize("name,ticks", [
        ("adpcm", 48), ("bitcoin", 16), ("df", 32),
        ("mips32", 48), ("nw", 48), ("regex", 48),
    ])
    def test_workload_identical(self, name, ticks):
        from repro.bench import BENCHMARKS
        from repro.harness.common import bench_vfs

        flat = flatten(parse(BENCHMARKS[name].source()), name)
        runs = {}
        for label, event in (("event", True), ("sweep", False)):
            host = TaskHost(bench_vfs(name, scale=1 << 12))
            code = CompiledModuleCode(flat, event=event)
            sim = CompiledSimulator(flat, host, code=code)
            sim.tick(cycles=ticks)
            runs[label] = (sim.store.snapshot(), list(host.display_log),
                           host.finished, sim.time)
        assert runs["event"] == runs["sweep"]
