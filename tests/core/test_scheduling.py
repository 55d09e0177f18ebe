"""Scheduling transformation tests (Figure 3)."""

import pytest

from repro.core.scheduling import (
    TransformError, build_core, defork, flatten_blocks, guard_name,
)
from repro.verilog import ast, parse_module, parse_stmt, print_stmt


class TestDefork:
    def test_fork_becomes_block(self):
        stmt = defork(parse_stmt("fork a = 1; b = 2; join"))
        assert isinstance(stmt, ast.Block)
        assert len(stmt.stmts) == 2

    def test_nested_fork(self):
        stmt = defork(parse_stmt("begin fork a = 1; fork b = 2; join join end"))
        from repro.verilog.ast_nodes import walk_stmt

        assert not any(isinstance(s, ast.ForkJoin) for s in walk_stmt(stmt))

    def test_fork_inside_if(self):
        stmt = defork(parse_stmt("if (c) fork a = 1; join"))
        assert isinstance(stmt.then_stmt, ast.Block)

    def test_fork_inside_case(self):
        stmt = defork(parse_stmt("case (c) 1: fork a = 1; join endcase"))
        assert isinstance(stmt.items[0].stmt, ast.Block)

    def test_fork_inside_loop(self):
        stmt = defork(parse_stmt("while (c) fork a = 1; join"))
        assert isinstance(stmt.body, ast.Block)


class TestFlatten:
    def test_nested_blocks_flatten(self):
        stmt = flatten_blocks(parse_stmt(
            "begin a = 1; begin b = 2; begin c = 3; end end end"
        ))
        assert isinstance(stmt, ast.Block)
        assert len(stmt.stmts) == 3
        assert all(isinstance(s, ast.Assign) for s in stmt.stmts)

    def test_named_blocks_preserved(self):
        stmt = flatten_blocks(parse_stmt("begin a = 1; begin : named b = 2; end end"))
        assert len(stmt.stmts) == 2
        assert isinstance(stmt.stmts[1], ast.Block)
        assert stmt.stmts[1].name == "named"

    def test_blocks_inside_if_flatten(self):
        stmt = flatten_blocks(parse_stmt("if (c) begin begin a = 1; end end"))
        assert len(stmt.then_stmt.stmts) == 1

    def test_blocks_under_a_delay_flatten(self):
        stmt = flatten_blocks(parse_stmt(
            "begin #1 begin begin a = 1; end b = 2; end end"))
        assert print_stmt(stmt.stmts[0]) == print_stmt(
            parse_stmt("#1 begin a = 1; b = 2; end"))


class TestGuardNames:
    def test_mangling(self):
        assert guard_name("posedge", "clock") == "__pos_clock"
        assert guard_name("negedge", "rst") == "__neg_rst"
        assert guard_name("any", "x") == "__any_x"


class TestBuildCore:
    def test_single_block(self):
        mod = parse_module("""
            module m(input wire clock);
              reg r;
              always @(posedge clock) r <= 1;
            endmodule
        """)
        core = build_core(mod)
        assert len(core.conjuncts) == 1
        assert core.conjuncts[0].guards == ("__pos_clock",)
        assert core.edge_signals == [("posedge", "clock")]

    def test_multiple_blocks_merge(self):
        mod = parse_module("""
            module m(input wire clock, input wire rst);
              reg a, b;
              always @(posedge clock) a <= 1;
              always @(posedge clock or negedge rst) b <= 1;
            endmodule
        """)
        core = build_core(mod)
        assert len(core.conjuncts) == 2
        assert ("negedge", "rst") in core.edge_signals

    def test_multi_clock_domains(self):
        mod = parse_module("""
            module m(input wire cka, input wire ckb);
              reg a, b;
              always @(posedge cka) a <= 1;
              always @(posedge ckb) b <= 1;
            endmodule
        """)
        core = build_core(mod)
        assert len(core.edge_signals) == 2

    def test_body_guards_each_conjunct(self):
        mod = parse_module("""
            module m(input wire clock);
              reg a;
              always @(posedge clock) a <= 1;
            endmodule
        """)
        body = build_core(mod).body()
        assert isinstance(body, ast.Block)
        guard_if = body.stmts[0]
        assert isinstance(guard_if, ast.If)
        assert guard_if.cond.name == "__pos_clock"

    def test_star_blocks_not_merged(self):
        mod = parse_module("""
            module m(input wire clock, input wire x);
              reg a, comb;
              always @(posedge clock) a <= 1;
              always @(*) comb = x;
            endmodule
        """)
        core = build_core(mod)
        assert len(core.conjuncts) == 1

    def test_fork_join_removed_from_bodies(self):
        mod = parse_module("""
            module m(input wire clock);
              reg a;
              always @(posedge clock) fork a <= 1; join
            endmodule
        """)
        core = build_core(mod)
        from repro.verilog.ast_nodes import walk_stmt

        assert not any(
            isinstance(s, ast.ForkJoin) for s in walk_stmt(core.conjuncts[0].body)
        )

    def test_non_identifier_event_rejected(self):
        mod = parse_module("""
            module m(input wire [1:0] bus);
              reg a;
              always @(posedge bus[0]) a <= 1;
            endmodule
        """)
        with pytest.raises(TransformError):
            build_core(mod)
