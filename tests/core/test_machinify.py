"""State-machine lowering tests (Figures 4-5)."""

import pytest

from repro.core import compile_program
from repro.core.machinify import SUFFIX, machinify
from repro.core.scheduling import TransformError
from repro.verilog import ast, flatten, parse, parse_module
from repro.verilog.ast_nodes import walk_stmt


def transform(text, top=None):
    source = parse(text)
    name = top or source.modules[-1].name
    return machinify(flatten(source, name))


FIG2 = """
module M(input wire clock);
  integer fd = $fopen("path/to/file");
  reg [31:0] r = 0;
  reg [127:0] sum = 0;
  always @(posedge clock) begin
    $fread(fd, r);
    if ($feof(fd)) begin
      $display(sum);
      $finish(0);
    end else
      sum <= sum + r;
  end
endmodule
"""


class TestStructure:
    def test_module_renamed(self):
        result = transform(FIG2)
        assert result.module.name == "M" + SUFFIX

    def test_abi_ports_added(self):
        result = transform(FIG2)
        assert result.module.ports[:2] == ("__clk", "__abi")
        assert "clock" in result.module.ports

    def test_output_is_synthesizable(self):
        result = transform(FIG2)
        for item in result.module.items:
            if isinstance(item, ast.Always):
                for stmt in walk_stmt(item.stmt):
                    assert not isinstance(stmt, ast.SysTask), stmt

    def test_bookkeeping_registers_exist(self):
        result = transform(FIG2)
        for name in ("__state", "__task", "__run", "__p_clock", "__lg_pos_clock"):
            assert result.module.decl(name) is not None, name

    def test_status_wires_exist(self):
        result = transform(FIG2)
        for name in ("__tasks", "__final", "__cont", "__done"):
            assert result.module.decl(name) is not None, name

    def test_reparseable(self):
        from repro.verilog import parse_module, print_module

        result = transform(FIG2)
        text = print_module(result.module)
        assert parse_module(text).name == result.module.name

    def test_deterministic_output(self):
        from repro.verilog import print_module

        a = print_module(transform(FIG2).module)
        b = print_module(transform(FIG2).module)
        assert a == b


class TestTaskTable:
    def test_fig2_tasks(self):
        result = transform(FIG2)
        kinds = sorted((site.kind, site.name) for site in result.tasks.values())
        assert ("task", "$fread") in kinds
        assert ("query", "$feof") in kinds
        assert ("task", "$display") in kinds
        assert ("task", "$finish") in kinds

    def test_fread_dest_recorded(self):
        result = transform(FIG2)
        fread = [s for s in result.tasks.values() if s.name == "$fread"][0]
        assert fread.dest is not None

    def test_query_allocates_register(self):
        result = transform(FIG2)
        assert result.query_regs
        for reg in result.query_regs:
            assert result.module.decl(reg) is not None

    def test_unsynthesizable_init_moved_to_software(self):
        result = transform(FIG2)
        assert result.soft_inits and result.soft_inits[0][0] == "fd"
        assert result.module.decl("fd").init is None

    def test_trap_free_program_has_no_tasks(self):
        result = transform("""
            module m(input wire clock);
              reg [7:0] n = 0;
              always @(posedge clock) n <= n + 1;
            endmodule
        """)
        assert not result.tasks
        assert not result.has_traps


class TestStateGraph:
    def test_minimal_state_count(self):
        result = transform("""
            module m(input wire clock);
              reg [7:0] n = 0;
              always @(posedge clock) n <= n + 1;
            endmodule
        """)
        # entry + update + final
        assert result.n_states == 3
        assert result.final_state == result.n_states - 1

    def test_trap_free_if_stays_inline(self):
        result = transform("""
            module m(input wire clock, input wire s);
              reg [7:0] n = 0;
              always @(posedge clock)
                if (s) n <= n + 1; else n <= n - 1;
            endmodule
        """)
        assert result.n_states == 3  # no split for task-free branches

    def test_task_in_branch_splits_states(self):
        result = transform("""
            module m(input wire clock, input wire s);
              reg [7:0] n = 0;
              always @(posedge clock)
                if (s) $display(n); else n <= n + 1;
            endmodule
        """)
        assert result.n_states > 3

    def test_loop_with_task_creates_back_edge_states(self):
        result = transform("""
            module m(input wire clock);
              integer i;
              always @(posedge clock)
                for (i = 0; i < 4; i = i + 1)
                  $display(i);
            endmodule
        """)
        assert result.n_states >= 5

    def test_nba_sites_created(self):
        result = transform(FIG2)
        assert len(result.nba_sites) == 1
        site = result.nba_sites[0]
        assert result.module.decl(site.we) is not None
        assert result.module.decl(site.wd) is not None

    def test_memory_nba_gets_address_register(self):
        result = transform("""
            module m(input wire clock);
              reg [7:0] mem [0:15];
              reg [3:0] i = 0;
              always @(posedge clock) begin
                mem[i] <= i;
                i <= i + 1;
              end
            endmodule
        """)
        mem_site = [s for s in result.nba_sites if s.wa is not None]
        assert mem_site, "dynamic-index NBA needs a __wa register"


class TestErrors:
    def test_instance_rejected(self):
        src = parse("""
            module c(input wire x); endmodule
            module t(input wire clock); c u(.x(clock)); endmodule
        """)
        with pytest.raises(TransformError):
            machinify(src.module("t"))

    def test_syscall_in_continuous_assign_rejected(self):
        with pytest.raises(TransformError):
            transform("""
                module m(input wire clock, output wire [31:0] y);
                  assign y = $random;
                endmodule
            """)
