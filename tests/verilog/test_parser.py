"""Parser unit tests: expressions, statements, items, modules."""

import pytest

from repro.verilog import ast, parse, parse_expr, parse_module, parse_stmt
from repro.verilog.parser import ParseError


class TestExpressions:
    def test_precedence_add_mul(self):
        expr = parse_expr("a + b * c")
        assert isinstance(expr, ast.Binary) and expr.op == "+"
        assert isinstance(expr.right, ast.Binary) and expr.right.op == "*"

    def test_precedence_shift_vs_add(self):
        expr = parse_expr("a << b + c")
        assert expr.op == "<<"
        assert isinstance(expr.right, ast.Binary) and expr.right.op == "+"

    def test_precedence_logical(self):
        expr = parse_expr("a && b || c")
        assert expr.op == "||"
        assert expr.left.op == "&&"

    def test_left_associativity(self):
        expr = parse_expr("a - b - c")
        assert expr.op == "-" and expr.left.op == "-"
        assert expr.left.right.name == "b"

    def test_power_right_associative(self):
        expr = parse_expr("a ** b ** c")
        assert expr.op == "**"
        assert isinstance(expr.right, ast.Binary) and expr.right.op == "**"

    def test_ternary(self):
        expr = parse_expr("a ? b : c ? d : e")
        assert isinstance(expr, ast.Ternary)
        assert isinstance(expr.if_false, ast.Ternary)

    def test_unary_chain(self):
        expr = parse_expr("~!x")
        assert expr.op == "~"
        assert expr.operand.op == "!"

    def test_reduction_operators(self):
        for op in ("&", "|", "^", "~&", "~|", "~^"):
            expr = parse_expr(f"{op}x")
            assert isinstance(expr, ast.Unary) and expr.op == op

    def test_unary_plus_is_dropped(self):
        assert isinstance(parse_expr("+x"), ast.Identifier)

    def test_concat(self):
        expr = parse_expr("{a, b, c}")
        assert isinstance(expr, ast.Concat) and len(expr.parts) == 3

    def test_replication(self):
        expr = parse_expr("{4{x}}")
        assert isinstance(expr, ast.Repeat)
        assert expr.count.value == 4

    def test_replication_of_concat(self):
        expr = parse_expr("{2{a, b}}")
        assert isinstance(expr, ast.Repeat)
        assert isinstance(expr.value, ast.Concat)

    def test_bit_select(self):
        expr = parse_expr("mem[3]")
        assert isinstance(expr, ast.Index)

    def test_part_select(self):
        expr = parse_expr("x[7:4]")
        assert isinstance(expr, ast.RangeSelect) and expr.mode == ":"

    def test_indexed_part_select(self):
        up = parse_expr("x[i +: 8]")
        down = parse_expr("x[i -: 8]")
        assert up.mode == "+:" and down.mode == "-:"

    def test_select_of_select(self):
        expr = parse_expr("mem[i][7:0]")
        assert isinstance(expr, ast.RangeSelect)
        assert isinstance(expr.base, ast.Index)

    def test_select_on_parenthesized(self):
        expr = parse_expr("(a + b)[3:0]")
        assert isinstance(expr, ast.RangeSelect)
        assert isinstance(expr.base, ast.Binary)

    def test_system_function_call(self):
        expr = parse_expr("$feof(fd)")
        assert isinstance(expr, ast.SysCall) and expr.name == "$feof"

    def test_system_function_no_args(self):
        expr = parse_expr("$time")
        assert isinstance(expr, ast.SysCall) and expr.args == ()

    def test_string_argument(self):
        expr = parse_expr('$fopen("path/to/file")')
        assert isinstance(expr.args[0], ast.String)

    def test_trailing_garbage_raises(self):
        with pytest.raises(ParseError):
            parse_expr("a + b extra")


class TestStatements:
    def test_blocking_assign(self):
        stmt = parse_stmt("x = y + 1;")
        assert isinstance(stmt, ast.Assign) and stmt.blocking

    def test_nonblocking_assign(self):
        stmt = parse_stmt("x <= y;")
        assert isinstance(stmt, ast.Assign) and not stmt.blocking

    def test_lvalue_concat(self):
        stmt = parse_stmt("{a, b} = c;")
        assert isinstance(stmt.lhs, ast.Concat)

    def test_lvalue_memory_element(self):
        stmt = parse_stmt("mem[addr] <= data;")
        assert isinstance(stmt.lhs, ast.Index)

    def test_if_else(self):
        stmt = parse_stmt("if (a) x = 1; else x = 0;")
        assert isinstance(stmt, ast.If) and stmt.else_stmt is not None

    def test_dangling_else_binds_inner(self):
        stmt = parse_stmt("if (a) if (b) x = 1; else x = 2;")
        assert stmt.else_stmt is None
        assert stmt.then_stmt.else_stmt is not None

    def test_begin_end_block(self):
        stmt = parse_stmt("begin x = 1; y = 2; end")
        assert isinstance(stmt, ast.Block) and len(stmt.stmts) == 2

    def test_named_block(self):
        stmt = parse_stmt("begin : blk x = 1; end")
        assert stmt.name == "blk"

    def test_fork_join(self):
        stmt = parse_stmt("fork x = 1; y = 2; join")
        assert isinstance(stmt, ast.ForkJoin) and len(stmt.stmts) == 2

    def test_case(self):
        stmt = parse_stmt("""
            case (op)
              2'd0: x = a;
              2'd1, 2'd2: x = b;
              default: x = 0;
            endcase
        """)
        assert isinstance(stmt, ast.Case)
        assert len(stmt.items) == 3
        assert len(stmt.items[1].labels) == 2
        assert stmt.items[2].labels == ()

    def test_casez(self):
        stmt = parse_stmt("casez (x) 4'b1???: y = 1; endcase")
        assert stmt.kind == "casez"
        assert stmt.items[0].labels[0].xz_mask == 0b0111

    def test_empty_case_arm(self):
        stmt = parse_stmt("case (x) 1: ; default: ; endcase")
        assert stmt.items[0].stmt is None

    def test_for_loop(self):
        stmt = parse_stmt("for (i = 0; i < 8; i = i + 1) x = x + i;")
        assert isinstance(stmt, ast.For)

    def test_while_loop(self):
        stmt = parse_stmt("while (x < 10) x = x + 1;")
        assert isinstance(stmt, ast.While)

    def test_repeat(self):
        stmt = parse_stmt("repeat (4) x = x << 1;")
        assert isinstance(stmt, ast.RepeatStmt)

    def test_system_task(self):
        stmt = parse_stmt('$display("%d", x);')
        assert isinstance(stmt, ast.SysTask) and stmt.name == "$display"

    def test_system_task_no_args(self):
        stmt = parse_stmt("$finish;")
        assert stmt.args == ()

    def test_null_statement(self):
        assert isinstance(parse_stmt(";"), ast.NullStmt)

    def test_delay_statement(self):
        stmt = parse_stmt("#10 x = 1;")
        assert isinstance(stmt, ast.DelayStmt)
        assert isinstance(stmt.stmt, ast.Assign)

    def test_le_in_expression_context_is_comparison(self):
        stmt = parse_stmt("if (a <= b) x = 1;")
        assert stmt.cond.op == "<="


class TestModules:
    def test_ansi_ports(self):
        mod = parse_module("""
            module m(input wire clk, output reg [7:0] q);
            endmodule
        """)
        assert mod.ports == ("clk", "q")
        q = mod.decl("q")
        assert q.kind == "reg" and q.direction == "output"

    def test_classic_ports(self):
        mod = parse_module("""
            module m(clk, q);
              input wire clk;
              output reg [7:0] q;
            endmodule
        """)
        assert mod.ports == ("clk", "q")
        assert mod.decl("q").direction == "output"

    def test_parameter_header(self):
        mod = parse_module("module m #(parameter W = 8)(input wire [W-1:0] a); endmodule")
        assert mod.decl("W").kind == "parameter"

    def test_localparam(self):
        mod = parse_module("module m(); localparam X = 5; endmodule")
        assert mod.decl("X").kind == "localparam"

    def test_memory_declaration(self):
        mod = parse_module("module m(); reg [31:0] mem [0:1023]; endmodule")
        decl = mod.decl("mem")
        assert len(decl.unpacked) == 1

    def test_integer_is_32bit_signed(self):
        mod = parse_module("module m(); integer i; endmodule")
        decl = mod.decl("i")
        assert decl.kind == "integer" and decl.signed

    def test_wire_with_initializer(self):
        mod = parse_module("module m(); wire [3:0] x = 4'hA; endmodule")
        assert mod.decl("x").init is not None

    def test_multiple_declarators(self):
        mod = parse_module("module m(); reg a, b, c; endmodule")
        assert all(mod.decl(n) is not None for n in "abc")

    def test_attribute_on_declaration(self):
        mod = parse_module("module m(); (* non_volatile *) reg [31:0] x; endmodule")
        assert mod.decl("x").has_attribute("non_volatile")

    def test_continuous_assign(self):
        mod = parse_module("module m(); wire y; assign y = 1; endmodule")
        assert any(isinstance(i, ast.ContinuousAssign) for i in mod.items)

    def test_always_posedge(self):
        mod = parse_module("module m(input wire c); always @(posedge c) ; endmodule")
        always = [i for i in mod.items if isinstance(i, ast.Always)][0]
        assert always.sensitivity[0].edge == "posedge"

    def test_always_multiple_events(self):
        mod = parse_module(
            "module m(input wire c, r); always @(posedge c or negedge r) ; endmodule"
        )
        always = [i for i in mod.items if isinstance(i, ast.Always)][0]
        assert len(always.sensitivity) == 2
        assert always.sensitivity[1].edge == "negedge"

    def test_always_star(self):
        mod = parse_module("module m(); reg y; always @(*) y = 1; endmodule")
        always = [i for i in mod.items if isinstance(i, ast.Always)][0]
        assert always.sensitivity == ast.STAR

    def test_initial_block(self):
        mod = parse_module("module m(); reg x; initial x = 1; endmodule")
        assert any(isinstance(i, ast.Initial) for i in mod.items)

    def test_instance_named_ports(self):
        src = parse("""
            module child(input wire a, output wire b); endmodule
            module top(); wire x, y; child c(.a(x), .b(y)); endmodule
        """)
        inst = src.module("top").instances()[0]
        assert inst.module == "child"
        assert inst.ports[0].name == "a"

    def test_instance_positional_ports(self):
        src = parse("""
            module child(input wire a); endmodule
            module top(); wire x; child c(x); endmodule
        """)
        inst = src.module("top").instances()[0]
        assert inst.ports[0].name is None

    def test_instance_parameters(self):
        src = parse("""
            module child #(parameter W = 1)(input wire [W-1:0] a); endmodule
            module top(); wire [7:0] x; child #(.W(8)) c(.a(x)); endmodule
        """)
        inst = src.module("top").instances()[0]
        assert inst.params[0].name == "W"

    def test_multiple_modules(self):
        src = parse("module a(); endmodule module b(); endmodule")
        assert src.module_names() == ["a", "b"]

    def test_missing_semicolon_raises(self):
        with pytest.raises(ParseError):
            parse_module("module m() endmodule")

    def test_unclosed_module_raises(self):
        with pytest.raises(ParseError):
            parse_module("module m(); reg x;")


class TestNodesStayFrozen:
    """Passes share one parse between tenants; a node that could be
    assigned would let one tenant's pass corrupt another's tree."""

    def test_every_node_class_refuses_assignment(self):
        import dataclasses

        bases = (ast.Node, ast.Expr, ast.Stmt, ast.Item)
        classes = [cls for cls in vars(ast).values()
                   if isinstance(cls, type) and issubclass(cls, ast.Node)
                   and cls not in bases]
        assert len(classes) > 30
        for cls in classes:
            assert dataclasses.is_dataclass(cls), cls.__name__
            fields = dataclasses.fields(cls)
            required = [f for f in fields if f.default is dataclasses.MISSING
                        and f.default_factory is dataclasses.MISSING]
            node = cls(*[None] * len(required))
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, fields[0].name, None)
