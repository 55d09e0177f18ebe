"""The update region is generated code: one entry shape, applied in order.

Every non-blocking update is queued as ``(applier, value-or-lvalue,
...)`` and applied as ``e[0](e)``: a compiled writer ``nwK(e)``, or
``CompiledSimulator._assign_entry`` for an NBA the reference
interpreter ran (a statement the emitter could not lower).  The
generated ``latch()`` drains the queue that way, and the static-plan
``comb()`` carries each cone's body inline instead of calling ``pK()``.

Two checks:

* in one period, interpreted and compiled NBAs to the same slot and
  the same memory word, in both orders: the last one in program order
  wins, as in the interpreter — on the generated period and on the
  reference ``tick`` the same artifact takes with its period unset;
* ``settle_rounds``, ``ops_evaluated`` and ``stmts_executed`` after
  2 000 ticks of mips32, df and bitcoin equal the values pinned below,
  which the generated period produced before its update region and its
  cones were emitted inline.

Mutation checks (run by hand when ``_period_source``, ``_latch`` or
the writers change; each must turn this file red):

* drop the ``EVC.ops_evaluated`` bump from the cone bodies ``comb()``
  inlines (turn it into ``_ = ...`` in ``_period_source``) — the
  pinned counters of mips32 and df fail;
* apply the interpreter's entries before the compiled writers (a stable
  sort of the queue on ``e[0] != S._assign_entry`` in the generated
  ``latch()`` and in ``_latch``) — the last-write-wins test fails on
  both paths.
"""

import pytest

from repro.bench import BENCHMARKS
from repro.harness.common import bench_source_kwargs, bench_vfs
from repro.interp import CompiledSimulator, InterpSimulator, TaskHost
from repro.interp.compile import CompiledModuleCode
from repro.verilog import flatten, parse

# ``case ($time)`` has an impure subject: the emitter escapes the whole
# statement, NBAs included, to the reference interpreter (``S._exec``);
# the ``$display`` is an escape too, and the rest of the body is lowered.
LAST_WRITE_WINS = """
module u(input wire clock);
  reg [7:0] x = 0, y = 0, n = 0;
  reg [7:0] m [0:3];
  wire [7:0] seen;
  assign seen = x ^ y;
  always @(posedge clock) begin
    n <= n + 1;
    $display("n=%0d x=%0d y=%0d seen=%0d m=%0d,%0d",
             n, x, y, seen, m[2], m[3]);
    case ($time)
      default: begin x <= n + 8'd100; m[2] <= n + 8'd100; end
    endcase
    x <= n;
    m[2] <= n;
    y <= n;
    m[n[1:0] | 2'd3] <= n;
    case ($time)
      default: begin y <= n + 8'd50; m[3] <= n + 8'd50; end
    endcase
  end
endmodule
"""


@pytest.mark.parametrize("watched", [False, True], ids=["period", "watched"])
def test_interpreted_and_compiled_nbas_keep_program_order(watched):
    source = parse(LAST_WRITE_WINS)
    flat = flatten(source, "u")
    interp_host = TaskHost()
    interp = InterpSimulator(flat, interp_host)
    interp.tick(cycles=6)
    for level in (0, 2):
        code = CompiledModuleCode(flat, opt_level=level)
        assert code.source.count("S._exec(") == 3  # with the $display
        assert code.source.count("nbap((nw") == 5
        host = TaskHost()
        sim = CompiledSimulator(flat, host, code=code)
        if watched:
            sim._period = None
        sim.tick(cycles=6)
        assert sim.slow_periods == (6 if watched else 0)
        assert host.display_log == interp_host.display_log
        assert sim.store.snapshot() == interp.store.snapshot()
        assert sim.stmts_executed == interp.stmts_executed
    # compiled x and m[2] after interpreted ones; interpreted y and m[3]
    # after compiled ones
    assert interp.get("x") == 5 and interp.get("y") == 55
    assert [interp.store.mem_get("m", k) for k in (2, 3)] == [5, 55]


#: (settle_rounds, ops_evaluated, stmts_executed) after 2 000 ticks
PINNED = {
    "mips32": (5161, 149748, 34790),
    "df": (6002, 335513, 100337),
    "bitcoin": (2002, 49490006, 5402000),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_counters_after_2000_ticks_are_pinned(name):
    flat = flatten(parse(BENCHMARKS[name].source(**bench_source_kwargs(name))),
                   name)
    code = CompiledModuleCode(flat, opt_level=2)
    assert code.schedule.period_plan == "static"
    assert "apply_nba" not in code.source
    sim = CompiledSimulator(flat, TaskHost(bench_vfs(name, scale=1 << 12)),
                            code=code)
    sim.tick(cycles=2000)
    assert sim.slow_periods == 0
    assert (sim.settle_rounds, sim.evaluator.ops_evaluated,
            sim.stmts_executed) == PINNED[name]
