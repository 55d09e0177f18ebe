"""The interpreter's plan: one resolved entry per expression node.

``Evaluator`` resolves each node once per width environment into an
entry of ``WidthEnv.plan`` (``docs/ARCHITECTURE.md``, "The interpreter
plan").  What must hold: the table stops growing once every node a
design evaluates has run (an NBA's dynamic index is a value, not a new
node), it never reaches a pickle, and the compiled engine's escapes
read through the same entries.
"""

import dataclasses
import pickle

from repro.bench import BENCHMARKS
from repro.compiler import ArtifactStore, CompilerService
from repro.compiler.diskstore import dumps_artifact, loads_artifact
from repro.interp import TaskHost
from repro.interp.compile import CompiledModuleCode, CompiledSimulator
from repro.interp.simulator import InterpSimulator
from repro.verilog import ast


def _program(source):
    return CompilerService(ArtifactStore()).compile_program(source)


def _expr_ids(obj, out):
    """``id`` of every expression node reachable from *obj*."""
    if isinstance(obj, ast.Expr):
        out.add(id(obj))
    if isinstance(obj, (list, tuple)):
        for item in obj:
            _expr_ids(item, out)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            _expr_ids(getattr(obj, field.name), out)
    return out


def test_the_table_holds_program_nodes_only():
    """mips32 writes ``regs[rd] <= ...`` with a computed index every
    few ticks; freezing that index must not add entries.  Every entry
    is a node of the program, and an engine on a warmed environment
    adds none from its first tick to its thousandth."""
    program = _program(BENCHMARKS["mips32"].source())
    assert "regs[rd] <=" in program.source
    first = InterpSimulator(program.flat, TaskHost(), env=program.env)
    first.tick(cycles=1000)
    assert set(program.env.plan) <= _expr_ids(program.flat, set())
    second = InterpSimulator(program.flat, TaskHost(), env=program.env)
    second.tick(cycles=1)
    size = len(program.env.plan)
    second.tick(cycles=999)
    assert second.time == 1000
    assert len(program.env.plan) == size
    assert second.store.snapshot() == first.store.snapshot()


def test_a_pickled_program_does_not_carry_the_table():
    program = _program(BENCHMARKS["mips32"].source())
    before = dumps_artifact(program)
    sim = InterpSimulator(program.flat, TaskHost(), env=program.env)
    sim.tick(cycles=50)
    assert program.env.plan
    after = dumps_artifact(program)
    assert len(after) == len(before)
    loaded = loads_artifact(after)
    assert loaded.env.plan == {}
    assert pickle.loads(pickle.dumps(program.env)).plan == {}
    # a loaded program resolves its own entries and runs the same
    twin = InterpSimulator(loaded.flat, TaskHost(), env=loaded.env)
    twin.tick(cycles=50)
    assert twin.store.snapshot() == sim.store.snapshot()
    assert twin.stmts_executed == sim.stmts_executed


def test_a_compiled_display_escape_reads_through_the_table():
    source = """
    module m(input wire clock);
      reg [7:0] n = 0;
      always @(posedge clock) begin
        n <= n + 1;
        $display("n=%0d s=%0d", n, n + 8'd3);
      end
    endmodule
    """
    program = _program(source)
    code = CompiledModuleCode(program.flat, env=program.env)
    sim = CompiledSimulator(program.flat, TaskHost(), code=code)
    sim.tick(cycles=2)
    assert sim.host.display_log == ["n=0 s=3", "n=1 s=4"]
    display = next(node for item in code.module.items
                   if isinstance(item, ast.Always)
                   for node in ast.walk_stmt(item.stmt)
                   if isinstance(node, ast.SysTask))
    for arg in display.args[1:]:
        assert sim.env.plan[id(arg)][3] is arg
