"""Differential testing: compiled backend vs the reference interpreter.

Every ``src/repro/bench`` workload runs N ticks on both backends from
identical initial conditions; architectural state (``snapshot()``),
``$display`` output, and finish status must be bit-identical.  The
interpreter is the oracle — any divergence is a compiled-backend bug.
"""

import pytest

from repro.bench import BENCHMARKS, datagen, regexc
from repro.harness.common import bench_vfs
from repro.interp import (
    CompiledSimulator, InterpSimulator, Simulator, TaskHost, VirtualFS,
)
from repro.interp.compile import CompiledModuleCode
from repro.interp.simulator import SimulationError
from repro.verilog import flatten, parse

#: (workload, ticks) — tick counts sized so the slow oracle stays fast
#: while still crossing resets, memory traffic, file IO and $finish.
WORKLOADS = [
    ("adpcm", 64),
    ("bitcoin", 24),
    ("df", 48),
    ("mips32", 64),
    ("nw", 64),
    ("regex", 64),
]


def _run(flat, vfs_factory, backend, ticks):
    host = TaskHost(vfs_factory())
    sim = Simulator(flat, host, backend=backend)
    sim.tick(cycles=ticks)
    return {
        "snapshot": sim.store.snapshot(),
        "display": list(host.display_log),
        "finished": host.finished,
        "finish_code": host.finish_code,
        "time": sim.time,
    }


@pytest.mark.parametrize("name,ticks", WORKLOADS)
def test_bench_workloads_identical(name, ticks):
    flat = flatten(parse(BENCHMARKS[name].source()), name)
    vfs_factory = lambda: bench_vfs(name, scale=1 << 12)
    interp = _run(flat, vfs_factory, "interp", ticks)
    compiled = _run(flat, vfs_factory, "compiled", ticks)
    assert compiled["display"] == interp["display"]
    assert compiled["finished"] == interp["finished"]
    assert compiled["finish_code"] == interp["finish_code"]
    assert compiled["time"] == interp["time"]
    diff = {
        key for key in interp["snapshot"]
        if interp["snapshot"][key] != compiled["snapshot"].get(key)
    }
    assert not diff, f"state divergence on {sorted(diff)[:8]}"
    assert compiled["snapshot"] == interp["snapshot"]


def test_regexc_matcher_identical():
    text = datagen.regex_text(512)
    flat = flatten(parse(regexc.source("a(b|c)*d")), "regexc")

    def vfs_factory():
        vfs = VirtualFS()
        vfs.add_file("regex_input.txt", text.encode())
        return vfs

    interp = _run(flat, vfs_factory, "interp", len(text) + 5)
    compiled = _run(flat, vfs_factory, "compiled", len(text) + 5)
    assert compiled == interp


def test_factory_backend_selection():
    flat = flatten(parse("module m(input wire clock); endmodule"), "m")
    assert isinstance(Simulator(flat, backend="interp"), InterpSimulator)
    compiled = Simulator(flat, backend="compiled")
    assert isinstance(compiled, CompiledSimulator)
    # The engines share the reference semantics by holding one
    # ``Reference`` each, not by inheritance.
    assert not isinstance(compiled, InterpSimulator)
    for name in ("jit", "batched"):
        with pytest.raises(ValueError):
            Simulator(flat, backend=name)


def test_edge_before_star_keeps_interp_order():
    """An edge proc queued in the same drain as an always@* must run
    first when it was registered first (the interpreter's FIFO)."""
    src = """
        module m(input wire clock);
          reg d = 0;
          reg q = 0;
          reg comb = 0;
          initial d = 1;
          always @(posedge clock) q <= comb;
          always @(*) if (clock) comb = d; else comb = 0;
        endmodule
    """
    flat = flatten(parse(src), "m")
    results = {}
    for backend in ("interp", "compiled"):
        sim = Simulator(flat, TaskHost(), backend=backend)
        sim.tick()
        results[backend] = sim.store.snapshot()
    assert results["compiled"] == results["interp"]


def test_set_on_memory_name_matches_reference_store():
    """ABI set() on a declared memory name shadows, like the oracle."""
    flat = flatten(parse(
        "module m(input wire clock); reg [7:0] mem [0:3]; endmodule"), "m")
    for backend in ("interp", "compiled"):
        sim = Simulator(flat, TaskHost(), backend=backend)
        assert sim.store.set("mem", 5) is True
        assert sim.store.get("mem") == 5
        assert sim.store.mem_get("mem", 0) == 0


def test_impure_continuous_assign_matches_oracle():
    """$random in assign RHS forces oracle-identical FIFO ordering."""
    src = """
        module m(input wire clock);
          wire [31:0] r1 = $random;
          wire [31:0] r2 = $random;
          reg [31:0] a = 0;
          always @(posedge clock) a <= r1 ^ r2;
        endmodule
    """
    flat = flatten(parse(src), "m")
    snaps = {}
    for backend in ("interp", "compiled"):
        sim = Simulator(flat, TaskHost(), backend=backend)
        sim.tick(cycles=4)
        snaps[backend] = sim.store.snapshot()
    assert snaps["compiled"] == snaps["interp"]


def test_mixed_pure_impure_star_blocks_keep_interp_order():
    """A pure always@* must not be resequenced past an impure sibling."""
    src = """
        module m(input wire clock);
          reg a = 0;
          reg x = 0;
          always @(*) if (a) $display("x=%d", x);
          always @(*) x = a;
          always @(posedge clock) a <= 1;
        endmodule
    """
    flat = flatten(parse(src), "m")
    logs = {}
    for backend in ("interp", "compiled"):
        host = TaskHost()
        Simulator(flat, host, backend=backend).tick(cycles=2)
        logs[backend] = list(host.display_log)
    assert logs["compiled"] == logs["interp"] == ["x=0", "x=1"]


#: ``@*`` blocks the cone licence must leave on the FIFO queue, each
#: with the clause it fails: ranked with the assigns, each would run
#: ahead of where the interpreter runs it, and a process would see it.
QUEUED_STARS = {
    "edge_writes_fan_in_sibling_edge_reads_fan_out": ("(3a)", """
        module m(input wire clock);
          reg [7:0] a = 0;
          reg [7:0] c;
          reg [7:0] s = 0;
          always @(posedge clock) a = a + 1;
          always @(*) c = a * 2;
          always @(posedge clock) begin
            s <= c;
            $display("c=%0d s=%0d", c, s);
          end
        endmodule
    """),
    "initial_writes_fan_in_initial_displays_fan_out": ("(3a)", """
        module m(input wire clock);
          reg [7:0] a = 0;
          reg [7:0] c;
          always @(*) c = a + 1;
          initial a = 7;
          initial $display("c=%0d", c);
        endmodule
    """),
    "initial_displays_fan_out_before_the_block_primes": ("(3a)", """
        module m(input wire clock);
          reg [7:0] a = 5;
          reg [7:0] c;
          initial $display("c=%0d", c);
          always @(*) c = a + 1;
          always @(posedge clock) a <= a + 1;
        endmodule
    """),
    "derived_clock_edge_reads_fan_out": ("(3b)", """
        module m(input wire clock);
          reg qe = 0;
          reg [7:0] q1 = 0;
          reg [7:0] c;
          reg [7:0] seen = 0;
          always @(posedge clock) begin qe <= ~qe; q1 <= q1 + 1; end
          always @(*) c = q1;
          always @(posedge qe) begin
            seen <= seen + c;
            $display("seen=%0d c=%0d", seen, c);
          end
        endmodule
    """),
    "gated_clock_behind_a_blocking_enable": ("(3a)", """
        module m(input wire clock);
          reg en = 0;
          reg gclk;
          reg [7:0] n = 0;
          always @(posedge clock) en = ~en;
          always @(*) gclk = clock & ~en;
          always @(posedge gclk) begin
            n <= n + 1;
            $display("n=%0d", n);
          end
        endmodule
    """),
    "latch_behind_another_star": ("(3d)", """
        module m(input wire clock);
          reg [7:0] x = 0;
          reg [7:0] q = 0;
          reg en;
          always @(*) if (en) q = x;
          always @(*) en = x[0];
          always @(posedge clock) begin
            x <= x + 1;
            $display("q=%0d", q);
          end
        endmodule
    """),
}


@pytest.mark.parametrize("name", sorted(QUEUED_STARS))
def test_ordering_witnesses_stay_on_the_queue(name):
    clause, src = QUEUED_STARS[name]
    flat = flatten(parse(src), "m")
    interp_host = TaskHost()
    interp = Simulator(flat, interp_host, backend="interp")
    interp.tick(cycles=6)
    for level in (0, 2):
        code = CompiledModuleCode(flat, opt_level=level)
        assert code.schedule.period_refused.startswith(
            "@* process on the queue")
        assert any(why.startswith(clause)
                   for why in code.schedule.cone_refused.values()), \
            code.schedule.cone_refused
        host = TaskHost()
        sim = CompiledSimulator(flat, host, code=code)
        sim.tick(cycles=6)
        assert host.display_log == interp_host.display_log, level
        assert sim.store.snapshot() == interp.store.snapshot(), level


@pytest.mark.parametrize("body", [
    "begin lo = x[3:0]; if (x[0]) lo = lo + 1; end",
    "for (i = 0; i < 4; i = i + 1) lo[i] = x[3 - i];",
    "begin i = 0; lo = 0; while (i < 4) begin lo = lo + x[i]; i = i + 1; end end",
    "begin lo = 0; repeat (2) lo = x[3:0]; end",
], ids=["written_twice", "loop", "while_after_a_write", "repeat_after_a_write"])
def test_self_waking_star_block_stays_on_the_queue(body):
    """The interpreter wakes an @* block again on its own first value of
    a name it writes twice in one run (a loop index too), so the block
    never settles there: ranked as a cone it would, so it must stay on
    the queue and fail the same way (licence clause 2)."""
    flat = flatten(parse(f"""
        module m(input wire clock);
          reg [7:0] x = 3;
          reg [3:0] lo;
          integer i;
          always @(*) {body}
          always @(posedge clock) x <= x + 5;
        endmodule
    """), "m")
    with pytest.raises(SimulationError, match="did not converge"):
        Simulator(flat, TaskHost(), backend="interp")
    for level in (0, 2):
        code = CompiledModuleCode(flat, opt_level=level)
        assert code.schedule.cone_refused[0].startswith("(2)")
        with pytest.raises(SimulationError, match="did not converge"):
            CompiledSimulator(flat, TaskHost(), code=code)


def test_poked_cone_output_is_recomputed_as_the_interpreter_does():
    """A store write to a licensed @* block's output wakes the block, as
    it wakes the interpreter's (an assign's output keeps its poke), on
    the scalar engine and on a cohort lane."""
    flat = flatten(parse("""
        module m(input wire clock);
          reg [7:0] a = 3;
          reg [7:0] c;
          reg [7:0] s = 0;
          wire [7:0] w;
          assign w = a + 1;
          always @(*) c = a * 2;
          always @(posedge clock) begin a <= a + 1; s <= s + c + w; end
        endmodule
    """), "m")

    def poked(sim, settle_last=True):
        sim.tick(cycles=2)
        sim.set("c", 99)
        if settle_last:  # (a cohort's sweep re-runs every assign too)
            sim.set("w", 77)
        sim.tick(cycles=1)
        if settle_last:
            sim.set("c", 42)
            sim.update()
            sim.evaluate()
        return sim.store.snapshot()

    interp = Simulator(flat, TaskHost(), backend="interp")
    want = poked(interp)
    for level in (0, 2):
        code = CompiledModuleCode(flat, opt_level=level)
        assert [p.kind for p in code.schedule.processes][1] == "cone"
        assert poked(CompiledSimulator(flat, TaskHost(), code=code)) == want
    pytest.importorskip("numpy")
    from repro.interp.compile.batch import BatchedCohort, batch_code_for

    cohort = BatchedCohort(batch_code_for(CompiledModuleCode(flat, opt_level=2)))
    cohort.join(TaskHost())
    cohort.tick(2)
    cohort.set_value("c", 99, 0)
    cohort.tick(1)
    assert cohort.snapshot_lane(0) == poked(
        Simulator(flat, TaskHost(), backend="interp"), settle_last=False)


def test_long_settle_does_not_trip_convergence_guard():
    """The guard scales with process count, like the interpreter's."""
    src = """
        module m(input wire clock);
          reg go = 0;
          integer k = 0;
          reg [31:0] probe = 0;
          wire [31:0] kc = k + 1;
          always @(*) begin
            if (go && k < 6000) begin
              $display("step");
              k = k + 1;
            end
          end
          always @(*) probe = kc;
          always @(posedge clock) go <= 1;
        endmodule
    """
    flat = flatten(parse(src), "m")
    for backend in ("interp", "compiled"):
        sim = Simulator(flat, TaskHost(), backend=backend)
        sim.tick(cycles=1)
        assert sim.get("k") == 6000


def test_negative_constant_shift_matches_oracle():
    """A negative constant shift amount masks unsigned, yielding 0."""
    src = """
        module m(input wire clock);
          parameter P = -1;
          reg [7:0] x = 8'hAA;
          wire [7:0] y = x >> P;
          wire [7:0] z = x << P;
        endmodule
    """
    flat = flatten(parse(src), "m")
    snaps = {}
    for backend in ("interp", "compiled"):
        sim = Simulator(flat, TaskHost(), backend=backend)
        sim.step()
        snaps[backend] = sim.store.snapshot()
    assert snaps["compiled"] == snaps["interp"]
    assert snaps["interp"]["y"] == 0


def test_display_ordering_across_blocks_and_write_buffer():
    """$display interleaving with $write buffering must match the
    oracle line for line (seeded from corpus find display_ordering.v:
    two blocks printing in one tick plus case-arm prints)."""
    src = """
        module m(input wire clock);
          reg [3:0] cyc = 0;
          always @(posedge clock) begin
            cyc <= cyc + 1;
            $write("A%0d:", cyc);
            if (cyc[0]) $display("odd"); else $display("even");
            case (cyc[1:0])
              2'd2: $display("two");
              default: ;
            endcase
          end
          always @(posedge clock) $display("B%0d", cyc);
        endmodule
    """
    flat = flatten(parse(src), "m")
    logs = {}
    for backend in ("interp", "compiled"):
        host = TaskHost()
        Simulator(flat, host, backend=backend).tick(cycles=4)
        logs[backend] = list(host.display_log)
    assert logs["compiled"] == logs["interp"]
    assert logs["interp"][:4] == ["A0:even", "B0", "A1:odd", "B1"]


def test_finish_mid_eval_abandons_rest_of_tick():
    """$finish aborts the remaining evaluation identically: trailing
    statements, later sibling blocks and pending NBAs are abandoned
    (seeded from corpus find finish_mid_eval.v)."""
    src = """
        module m(input wire clock);
          reg [7:0] cyc = 0;
          reg [7:0] after_f = 0;
          reg [7:0] sibling = 0;
          always @(posedge clock) begin
            cyc <= cyc + 1;
            if (cyc == 2) begin
              $display("bye %0d", cyc);
              $finish(3);
              $display("never");
            end
            after_f <= after_f + 1;
          end
          always @(posedge clock) sibling <= sibling + 1;
        endmodule
    """
    flat = flatten(parse(src), "m")
    results = {}
    for backend in ("interp", "compiled"):
        host = TaskHost()
        sim = Simulator(flat, host, backend=backend)
        sim.tick(cycles=8)
        results[backend] = {
            "snapshot": sim.store.snapshot(),
            "display": list(host.display_log),
            "finish_code": host.finish_code,
            "time": sim.time,
        }
    assert results["compiled"] == results["interp"]
    ref = results["interp"]
    assert ref["display"] == ["bye 2"]
    assert ref["finish_code"] == 3
    # The finishing tick's trailing statements never ran: the sibling
    # block and the post-$finish NBA were abandoned, and the pending
    # cyc NBA was never latched.
    assert ref["snapshot"]["cyc"] == 2
    assert ref["snapshot"]["after_f"] == 2
    assert ref["snapshot"]["sibling"] == 2


def test_nba_memory_index_captured_at_execution():
    """LRM §9.2.2: an NBA lvalue index is evaluated when the statement
    executes, even when the index operand is NBA'd in the same tick
    (regression for corpus find nba_index_capture.v)."""
    src = """
        module m(input wire clock);
          reg [1:0] ptr = 0;
          reg [7:0] mem [0:3];
          always @(posedge clock) begin
            ptr <= ptr + 1;
            mem[ptr] <= {6'd0, ptr} + 8'd10;
          end
        endmodule
    """
    flat = flatten(parse(src), "m")
    snaps = {}
    for backend in ("interp", "compiled"):
        sim = Simulator(flat, TaskHost(), backend=backend)
        sim.tick(cycles=3)
        snaps[backend] = sim.store.snapshot()
    assert snaps["compiled"] == snaps["interp"]
    # Tick k writes mem[k] = k + 10 through the *pre-update* pointer.
    assert snaps["interp"]["mem"] == [10, 11, 12, 0]


def test_nba_index_wider_than_32_bits_not_truncated():
    """A frozen NBA index must keep its full width: a 48-bit address
    with high bits set is out of range and the write is dropped — not
    masked to 32 bits and aliased onto a valid element."""
    src = """
        module m(input wire clock);
          reg [47:0] big = 48'h100000003;
          reg [7:0] mem [0:15];
          always @(posedge clock) mem[big] <= 8'hAA;
        endmodule
    """
    flat = flatten(parse(src), "m")
    snaps = {}
    for backend in ("interp", "compiled"):
        sim = Simulator(flat, TaskHost(), backend=backend)
        sim.tick(cycles=2)
        snaps[backend] = sim.store.snapshot()
    assert snaps["compiled"] == snaps["interp"]
    assert snaps["interp"]["mem"] == [0] * 16


def test_save_restore_roundtrip_across_backends():
    """A snapshot taken on one backend restores onto the other."""
    src = """
        module m(input wire clock);
          reg [31:0] acc = 0;
          reg [7:0] mem [0:15];
          integer i;
          initial for (i = 0; i < 16; i = i + 1) mem[i] = i * 3;
          always @(posedge clock) acc <= acc + mem[acc[3:0]];
        endmodule
    """
    flat = flatten(parse(src), "m")
    a = Simulator(flat, TaskHost(), backend="compiled")
    b = Simulator(flat, TaskHost(), backend="interp")
    a.tick(cycles=9)
    b.restore_state(a.save_state())
    a.tick(cycles=7)
    b.tick(cycles=7)
    assert b.store.snapshot() == a.store.snapshot()
