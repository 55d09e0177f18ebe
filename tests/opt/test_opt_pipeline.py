"""Pipeline-level behaviour: golden output, oracle equivalence, caching.

The golden test pins the full O2 pipeline's output for one small
hierarchy (update it deliberately when pass behaviour changes); the
property tests check the real invariant — every pass's output, alone
and in the full pipeline, re-prints to parseable Verilog whose
behaviour the reference interpreter cannot distinguish from the
original's.
"""

import hashlib
import os
import pickle

import pytest

from repro.compiler import ArtifactStore, CompilerService
from repro.compiler.service import KIND_CODEGEN, KIND_OPT
from repro.fuzz import generate, state_names
from repro.interp import Simulator, TaskHost
from repro.opt import Design, optimize_module, pipeline_fingerprint
from repro.opt import passes as P
from repro.opt.ir import node_count
from repro.verilog import flatten, parse, print_module

GOLDEN_SRC = """
module child(input wire [7:0] a, output wire [7:0] y);
  wire [7:0] dead = a ^ 8'hFF;
  assign y = a + 1;
endmodule
module top(input wire clock, input wire [7:0] x, output wire [7:0] out);
  wire [7:0] k = 8'd3 + 8'd4;
  wire [7:0] mid;
  reg [7:0] r1 = 0;
  reg [7:0] r2 = 0;
  child c(.a(x), .y(mid));
  assign out = mid + k;
  always @(posedge clock) r1 <= (x == 8'd5) ? r1 + 1 : r1;
  always @(posedge clock) r2 <= r1;
endmodule
"""

GOLDEN_O2 = """\
module top(clock, x, out);
  input clock;
  input [7:0] x;
  output [7:0] out;
  wire [7:0] k = 8'd7;
  wire [7:0] mid;
  reg [7:0] r1 = 0;
  reg [7:0] r2 = 0;
  wire [7:0] c$y;
  assign c$y = (x + 1);
  assign mid = c$y;
  assign out = (c$y + 8'd7);
  always @(posedge clock)
    begin
      r1 <= ((x == 8'd5) ? (r1 + 1) : r1);
      r2 <= r1;
    end
endmodule
"""


def test_golden_o2_snapshot():
    flat = flatten(parse(GOLDEN_SRC), "top")
    result = optimize_module(flat, level=2)
    assert print_module(result.module) == GOLDEN_O2
    assert (node_count(flat), result.nodes_after) == (31, 25)
    assert (len(Design(flat).processes()), result.processes_after) == (8, 5)


def test_level0_is_identity():
    flat = flatten(parse(GOLDEN_SRC), "top")
    result = optimize_module(flat, level=0)
    assert result.module is flat


def test_reporting_counts_are_read_on_demand():
    """``nodes_after`` / ``processes_after`` are counted when read, not
    on every build; the values are the ones the build used to store
    (pinned from the commit that stored them: fuzz seeds 0-99)."""
    rows = []
    for seed in range(100):
        program = generate(seed)
        flat = flatten(parse(program.source), program.module.name)
        result = optimize_module(flat, level=2)
        assert not {"nodes_after", "processes_after"} & set(vars(result))
        copy = pickle.loads(pickle.dumps(result))
        assert not {"nodes_after", "processes_after"} & set(vars(copy))
        rows.append((copy.nodes_after, copy.processes_after))
        assert rows[-1] == (result.nodes_after, result.processes_after)
    assert (sum(n for n, _ in rows), sum(p for _, p in rows)) == (17488, 445)
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == \
        "663a56fe473f6ef1"


def test_flatten_and_optimise_leave_no_cyclic_garbage():
    """Elaboration, the mid-end and the tick bound make no reference
    cycle (a closure that recurses through its own name is one, and
    took every tree it rewrote with it): over the Table-1 designs, with
    the collector off, everything they drop dies by reference count."""
    import gc

    from repro.bench import BENCHMARKS
    from repro.opt.ranges import tick_bound
    from repro.verilog import WidthEnv

    texts = {name: bench.source() for name, bench in BENCHMARKS.items()}
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for name, text in texts.items():
            flat = flatten(parse(text), name)
            env = WidthEnv(flat)
            optimize_module(flat, env=env, level=2)
            tick_bound(flat, env, 1000)
        del flat, env
        gc.collect()
        residue = sorted({getattr(obj, "__qualname__", type(obj).__qualname__)
                          for obj in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not residue, residue


def test_deterministic_output():
    flat = flatten(parse(GOLDEN_SRC), "top")
    a = print_module(optimize_module(flat, level=2).module)
    b = print_module(optimize_module(flat, level=2).module)
    assert a == b


def _behaviour(module, ticks, state_of):
    host = TaskHost()
    sim = Simulator(module, host, backend="interp")
    sim.tick(cycles=ticks)
    return tuple(host.display_log), host.finished, \
        sim.store.snapshot(state_of)


#: (pass name, callable) — each run in isolation by the property test.
PASSES = [
    ("fold", P.fold_constants),
    ("const", P.propagate_constants),
    ("alias", P.forward_aliases),
    ("fuse", P.fuse_always_blocks),
    ("dce", P.eliminate_dead),
]


@pytest.mark.parametrize("name,fn", PASSES, ids=[n for n, _ in PASSES])
def test_pass_output_equivalent_under_interp_oracle(name, fn):
    """Pass output re-prints to parseable Verilog with interpreter-
    indistinguishable behaviour (display trace + architectural state),
    over a spread of fuzz-generated programs."""
    for seed in range(8):
        program = generate(seed)
        flat = flatten(parse(program.source), program.module.name)
        design = Design(flat)
        fn(design)
        printed = print_module(design.to_module())
        reparsed = parse(printed).modules[-1]
        ticks = min(program.ticks, 10)
        names = state_names(flat)
        assert _behaviour(flat, ticks, names) == \
            _behaviour(reparsed, ticks, names), \
            f"{name} diverged on seed {seed}"


def test_hierarchical_design_is_what_alias_and_dce_are_for():
    """No single-module design in the tree gives ``alias`` or ``dce``
    anything to do; flattening a real hierarchy does.  Pin their work
    on the corpus's one hierarchical design, alone and in the pipeline,
    against the interpreter."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "corpus",
                        "hier_alu_pipeline.v")
    with open(path) as handle:
        flat = flatten(parse(handle.read()), "top")
    names = state_names(flat)
    want = _behaviour(flat, 24, names)
    assert want[1], "the design should reach its $finish"

    result = optimize_module(flat, level=2)
    assert result.pass_counts["alias"] == 37
    assert result.pass_counts["dce"] == 44
    assert (node_count(flat), result.nodes_after) == (292, 242)
    assert (len(Design(flat).processes()), result.processes_after) == (70, 48)
    reparsed = parse(print_module(result.module)).modules[-1]
    assert _behaviour(reparsed, 24, names) == want

    # The two in isolation: forwarding rewires readers past the
    # port-binding chains, which is what leaves the chains dead.
    design = Design(flat)
    assert P.eliminate_dead(design) == (0, 0)
    assert P.forward_aliases(design) > 0
    signals, processes = P.eliminate_dead(design)
    assert signals > 0 and processes > 0
    alone = parse(print_module(design.to_module())).modules[-1]
    assert _behaviour(alone, 24, names) == want


def test_full_pipeline_equivalent_under_interp_oracle():
    for seed in range(10):
        program = generate(seed)
        flat = flatten(parse(program.source), program.module.name)
        result = optimize_module(flat, level=2)
        printed = print_module(result.module)
        reparsed = parse(printed).modules[-1]
        ticks = min(program.ticks, 10)
        names = state_names(flat)
        assert _behaviour(flat, ticks, names) == \
            _behaviour(reparsed, ticks, names), f"seed {seed}"


class TestServiceIntegration:
    def test_codegen_keyed_by_level(self):
        service = CompilerService(ArtifactStore())
        program = service.compile_program(GOLDEN_SRC, top="top")
        o0 = service.codegen(program.flat, env=program.env,
                             digest=program.digest, opt_level=0)
        o2 = service.codegen(program.flat, env=program.env,
                             digest=program.digest, opt_level=2)
        assert o0 is not o2
        assert o0.opt_level == 0 and o2.opt_level == 2
        # Same level → shared artifact, no rebuild.
        assert service.codegen(program.flat, env=program.env,
                               digest=program.digest, opt_level=2) is o2
        assert service.store.count(KIND_CODEGEN) == 2
        assert service.store.count(KIND_OPT) == 2

    def test_fingerprints_distinct_per_level(self):
        # Off / on: every non-zero level names the one pipeline.
        assert pipeline_fingerprint(0) != pipeline_fingerprint(2)
        assert pipeline_fingerprint(1) == pipeline_fingerprint(2)

    def test_opt_levels_share_one_engine_behaviour(self):
        """O0 and O2 engines of one program agree bit-for-bit."""
        service = CompilerService()
        program = service.compile_program(GOLDEN_SRC, top="top")
        snaps = {}
        for level in (0, 2):
            code = service.codegen(program.flat, env=program.env,
                                   digest=program.digest, opt_level=level)
            sim = Simulator(program.flat, TaskHost(), env=program.env,
                            code=code)
            sim.set("x", 5)
            sim.tick(cycles=4)
            snaps[level] = {n: sim.get(n)
                            for n in ("r1", "r2", "out")}
        assert snaps[0] == snaps[2]
