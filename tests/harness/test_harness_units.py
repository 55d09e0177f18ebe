"""Harness internals: strip_tasks, profiles, result rendering."""

import pytest

from repro.core import compile_program
from repro.fabric import DE10
from repro.harness.common import (
    ExperimentResult, bench_program, bench_source_kwargs, bench_vfs,
)
from repro.harness.grid import CONDITIONS, compile_cell, strip_tasks
from repro.verilog import ast, parse_module
from repro.verilog.ast_nodes import walk_stmt


class TestStripTasks:
    MOD = parse_module("""
        module m(input wire clock);
          integer fd = $fopen("f");
          reg [31:0] r = 0;
          always @(posedge clock) begin
            $display(r);
            if ($feof(fd)) $finish;
            else r <= r + $random;
          end
          initial $display("boot");
        endmodule
    """)

    def stripped(self):
        return strip_tasks(self.MOD)

    def test_no_systasks_remain(self):
        for item in self.stripped().items:
            if isinstance(item, (ast.Always, ast.Initial)):
                assert not any(
                    isinstance(s, ast.SysTask) for s in walk_stmt(item.stmt)
                )

    def test_no_syscalls_remain(self):
        from repro.core.machinify import _has_syscall

        for item in self.stripped().items:
            if isinstance(item, ast.Decl) and item.init is not None:
                assert not _has_syscall(item.init)

    def test_stripped_module_compiles_trap_free(self):
        program = compile_program(self.stripped())
        assert not program.transform.tasks

    def test_structure_preserved(self):
        stripped = self.stripped()
        always = [i for i in stripped.items if isinstance(i, ast.Always)]
        assert len(always) == 1
        # The register assignment survives (with $random zeroed).
        assigns = [s for s in walk_stmt(always[0].stmt)
                   if isinstance(s, ast.Assign)]
        assert assigns


class TestGrid:
    def test_all_conditions_compile(self):
        for condition in CONDITIONS:
            cell = compile_cell("regex", condition)
            assert cell.estimate.luts > 0
            assert cell.achieved_hz > 0

    def test_synergy_q_uses_quiescent_program(self):
        plain = compile_cell("bitcoin", "synergy")
        quiescent = compile_cell("bitcoin", "synergy-q")
        assert quiescent.estimate.ffs < plain.estimate.ffs

    def test_unknown_condition(self):
        with pytest.raises(ValueError):
            compile_cell("regex", "wat")


class TestCommon:
    def test_bench_program_memoized(self):
        assert bench_program("regex") is bench_program("regex")

    def test_bench_program_kwargs_not_memoized(self):
        a = bench_program("bitcoin", target=1)
        b = bench_program("bitcoin", target=2)
        assert a is not b

    def test_bench_vfs_contents(self):
        assert "regex_input.txt" in bench_vfs("regex").files
        assert "nw_input.bin" in bench_vfs("nw").files
        assert "adpcm_input.bin" in bench_vfs("adpcm").files
        assert not bench_vfs("bitcoin").files

    def test_source_kwargs_keep_batch_benches_running(self):
        assert bench_source_kwargs("bitcoin")["target"] == 1
        assert bench_source_kwargs("df")["iters"] > 1e6
        assert bench_source_kwargs("regex") == {}

    def test_result_rendering(self):
        result = ExperimentResult("X", "title")
        result.rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.001}]
        result.notes = ["hello"]
        text = result.render()
        assert "== X: title ==" in text
        assert "note: hello" in text
        assert "10" in text

    def test_empty_result_renders(self):
        assert "Y" in ExperimentResult("Y", "t").render()


class TestCli:
    def test_cli_bench_listing(self, capsys):
        from repro.__main__ import main

        assert main(["bench"]) == 0
        out = capsys.readouterr().out
        assert "bitcoin" in out and "regex" in out

    def test_cli_compile(self, tmp_path, capsys):
        src = tmp_path / "m.v"
        src.write_text("""
            module m(input wire clock);
              reg [7:0] n = 0;
              always @(posedge clock) n <= n + 1;
            endmodule
        """)
        from repro.__main__ import main

        assert main(["compile", str(src)]) == 0
        out = capsys.readouterr().out
        assert "module m__synergy(" in out
        assert "__state" in out

    def test_cli_compile_sim_source(self, tmp_path, capsys):
        src = tmp_path / "m.v"
        src.write_text("""
            module m(input wire clock);
              reg [7:0] n = 0;
              always @(posedge clock) n <= n + 1;
            endmodule
        """)
        from repro.__main__ import main

        assert main(["compile", str(src), "--sim-source"]) == 0
        captured = capsys.readouterr()
        compile(captured.out, "<sim-source>", "exec")   # it is the source
        assert "def p0():" in captured.out
        assert "module m__synergy(" not in captured.out
        assert "period plan" in captured.err

    def test_cli_run(self, tmp_path, capsys):
        src = tmp_path / "m.v"
        src.write_text("""
            module m(input wire clock);
              reg [7:0] n = 0;
              always @(posedge clock) begin
                n <= n + 1;
                if (n == 5) $finish;
              end
            endmodule
        """)
        from repro.__main__ import main

        assert main(["run", str(src), "--ticks", "20"]) == 0

    def test_cli_unknown_experiment(self):
        from repro.__main__ import main

        assert main(["experiments", "fig99"]) == 2
