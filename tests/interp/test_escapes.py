"""An escape costs one statement: the rest of the body stays lowered.

Every procedural body is emitted slot-cached, at every opt level.  A
statement the emitter cannot lower runs on the reference interpreter
(``S._exec``) between a write-back of the body's cached writes and a
reload, in a ``finally``, of what the statement may write.  Each
module below runs three ways from the same initial state: the
reference interpreter, and the compiled backend at ``-O0`` and
``-O2``.  Architectural state, ``stmts_executed`` and the ``$display``
text must be identical on all three; ``ops_evaluated`` must be
identical between ``-O0`` and ``-O2`` (the compiled backend counts
right-hand-side nodes only).

Mutation checks (run by hand when ``stmtc``'s escape changes; each
must turn the named test red):

* drop the reload after ``S._exec`` —
  ``test_a_reload_after_the_escape``;
* write back only the slots written so far (``_cache_written`` at the
  escape, not the placeholder filled in once the body is emitted) —
  ``test_b_a_loop_carries_writes_back_to_the_escape``;
* reload after ``S._exec`` without the ``try``/``finally`` —
  ``test_c_a_finish_inside_the_escape_still_reloads``;
* evaluate an escaped condition without the write-back ahead of it —
  ``test_a_branch_condition_escapes_alone``;
* count a coalesced run whole, escaped members included —
  ``test_d_the_run_does_not_count_the_escape_twice``;
* ``_may_abort`` ignores system tasks —
  ``test_a_finish_in_a_counted_loop_keeps_per_trip_counts``;
* ``_may_abort`` ignores system functions —
  ``test_a_system_function_in_a_counted_loop_escapes_alone``;
* ``_emit_counted`` keeps collecting when its pure body escaped —
  ``test_a_pure_escape_in_a_counted_loop_escapes_the_loop``.
"""

import pytest

from repro.interp import CompiledSimulator, InterpSimulator, TaskHost
from repro.interp.compile import CompiledModuleCode, stmtc
from repro.verilog import flatten, parse


def _flat(body, decls=""):
    text = f"""
    module t(input wire clock);
      integer i;
      reg [31:0] x = 3, y = 0, z = 0, t = 1, acc = 1;
      reg [31:0] cyc = 0, a = 0, b = 0, c = 0;
      {decls}
      always @(posedge clock) begin
        cyc <= cyc + 1;
        {body}
      end
    endmodule
    """
    source = parse(text)
    return flatten(source, source.modules[-1].name)


def _agree(body, decls="", ticks=4):
    """Run *body* three ways; return the (-O0, -O2) simulators."""
    flat = _flat(body, decls)
    sims = [InterpSimulator(flat, TaskHost())]
    for level in (0, 2):
        code = CompiledModuleCode(flat, opt_level=level)
        sims.append(CompiledSimulator(flat, TaskHost(), code=code))
    for sim in sims:
        sim.tick(cycles=ticks)
    interp, o0, o2 = sims
    for sim in (o0, o2):
        assert sim.store.snapshot() == interp.store.snapshot()
        assert sim.stmts_executed == interp.stmts_executed
        assert sim.host.display_log == interp.host.display_log
        assert sim.host.finished == interp.host.finished
    assert o0.evaluator.ops_evaluated == o2.evaluator.ops_evaluated
    for sim in (o0, o2):
        assert sim.code.escapes["p0"], sim.code.source
    return o0, o2


def test_a_reload_after_the_escape():
    _agree("x = $random; y = x + 1;")


def test_b_a_loop_carries_writes_back_to_the_escape():
    o0, o2 = _agree("""
        for (i = 0; i < 4; i = i + 1) begin
          $display("t=%0d", t);
          t = t + i;
        end
    """)
    assert o2.code.facts["counted"] == 1
    assert o0.code.facts["counted"] == 0


def test_c_a_finish_inside_the_escape_still_reloads():
    _agree("""
        x = x + 1;
        case ($time)
          2: begin x = 40; $finish; end
          default: y = y + x;
        endcase
    """)


def test_d_the_run_does_not_count_the_escape_twice():
    _agree("a = cyc; b = $random; c = a + b;")


def test_a_finish_in_a_counted_loop_keeps_per_trip_counts():
    o0, o2 = _agree("""
        for (i = 0; i < 8; i = i + 1) begin
          acc = acc + i;
          if (cyc == 2 && i == 5) $finish;
        end
    """)
    assert o2.code.facts["counted"] == 1


def test_a_system_function_in_a_counted_loop_escapes_alone():
    # $clog2 is pure, but the scalar emitter does not lower it
    o0, o2 = _agree("""
        for (i = 0; i < 4; i = i + 1) acc = acc + $clog2(x + i);
        z = acc + 1;
    """)
    assert o2.code.escapes["p0"] == ["system function $clog2"]
    assert o2.code.facts["counted"] == 1


def test_a_pure_escape_in_a_counted_loop_escapes_the_loop(monkeypatch):
    # should _may_abort miss an escape, the loop escapes whole rather
    # than charge every trip ahead of a statement that may abort
    monkeypatch.setattr(stmtc.ProcessCompiler, "_may_abort",
                        lambda self, stmt: False)
    flat = _flat("""
        for (i = 0; i < 8; i = i + 1) begin
          acc = acc + i;
          if (cyc == 2 && i == 5) $finish;
        end
    """)
    interp = InterpSimulator(flat, TaskHost())
    code = CompiledModuleCode(flat, opt_level=2)
    o2 = CompiledSimulator(flat, TaskHost(), code=code)
    for sim in (interp, o2):
        sim.tick(cycles=4)
    assert o2.store.snapshot() == interp.store.snapshot()
    assert o2.stmts_executed == interp.stmts_executed
    assert " in range(" not in code.source
    assert code.escapes["p0"] == ["system task $finish"]


def test_a_branch_condition_escapes_alone():
    # the condition is evaluated by the reference evaluator on the
    # written-back store; both arms stay lowered
    o0, o2 = _agree("""
        x = x + 1;
        if (($random ^ x) & 1) y = y + x; else z = z + x;
    """)
    assert o2.code.source.count("S._exec") == 0
    assert "if EV(" in o2.code.source


def test_x_z_literals_are_lowered_and_the_loop_counts():
    o0, o2 = _agree("""
        x = 8'hx3 + x;
        casex (x[3:0])
          4'b1x0x: y = y + 1;
          default: y = y + 2;
        endcase
        for (i = 0; i < 3; i = i + 1) z = z + x;
        $display("x=%0d y=%0d z=%0d", x, y, z);
    """)
    assert o2.code.facts["counted"] == 1
    assert o2.code.escapes["p0"] == ["system task $display"]


@pytest.mark.parametrize("level", [0, 2])
def test_sim_source_names_the_escapes(level, capsys, tmp_path, monkeypatch):
    from repro.__main__ import main

    monkeypatch.setenv("REPRO_OPT_LEVEL", str(level))
    path = tmp_path / "e.v"
    path.write_text("""
        module e(input wire clock);
          reg [7:0] n = 0;
          always @(posedge clock) begin
            n <= n + 1;
            if (n == 3) begin $display("n=%0d", n); $finish; end
          end
        endmodule""")
    assert main(["compile", str(path), "--sim-source"]) == 0
    err = capsys.readouterr().err
    assert "// p0: escapes: system task $display, system task $finish" in err
    assert "generic" not in err
