"""AST rewriting utility tests."""

from repro.verilog import ast, parse_expr, parse_stmt, print_expr, print_stmt
from repro.verilog.rewrite import (
    collect_identifiers,
    lvalue_indices,
    lvalue_targets,
    map_expr,
    map_stmt,
    rename_expr,
    rename_stmt,
    stmt_identifiers,
    substitute_expr,
)


class TestMapExpr:
    def test_identity_preserves_structure(self):
        expr = parse_expr("a + b[3:0] * {c, d}")
        out = map_expr(expr, lambda e: e)
        assert print_expr(out) == print_expr(expr)

    def test_bottom_up_transform(self):
        expr = parse_expr("x + x")

        def double(node):
            if isinstance(node, ast.Number):
                return ast.Number(node.value * 2)
            return node

        out = map_expr(parse_expr("1 + 2"), double)
        assert print_expr(out) == "(2 + 4)"


class TestRename:
    def test_rename_expr(self):
        expr = parse_expr("a + b * a")
        out = rename_expr(expr, {"a": "z"})
        assert collect_identifiers(out) == {"z", "b"}

    def test_rename_stmt_recurses(self):
        stmt = parse_stmt("if (a) begin b = a + 1; end else c[a] = 0;")
        out = rename_stmt(stmt, {"a": "q"})
        assert "a" not in stmt_identifiers(out)
        assert "q" in stmt_identifiers(out)

    def test_rename_misses_are_noops(self):
        expr = parse_expr("a + b")
        out = rename_expr(expr, {"zz": "yy"})
        assert print_expr(out) == print_expr(expr)


class TestSubstitute:
    def test_substitute_expression(self):
        expr = parse_expr("a + 1")
        out = substitute_expr(expr, {"a": parse_expr("b * c")})
        assert print_expr(out) == "((b * c) + 1)"


class TestCollectors:
    def test_collect_identifiers(self):
        assert collect_identifiers(parse_expr("a[i] + {b, 3'd2}")) == {"a", "i", "b"}

    def test_stmt_identifiers_cover_all_positions(self):
        stmt = parse_stmt("for (i = lo; i < hi; i = i + step) mem[i] <= val;")
        names = stmt_identifiers(stmt)
        assert names == {"i", "lo", "hi", "step", "mem", "val"}

    def test_case_labels_collected(self):
        stmt = parse_stmt("case (sel) A: x = 1; B: x = 2; endcase")
        assert {"sel", "A", "B", "x"} <= stmt_identifiers(stmt)


class TestLvalues:
    def test_identifier(self):
        assert lvalue_targets(parse_expr("x")) == ["x"]

    def test_select(self):
        assert lvalue_targets(parse_expr("mem[3]")) == ["mem"]
        assert lvalue_targets(parse_expr("x[7:0]")) == ["x"]

    def test_concat(self):
        assert lvalue_targets(parse_expr("{a, b[1], c[3:0]}")) == ["a", "b", "c"]


class TestMapStmt:
    """``map_stmt`` is the one rebuilder: every statement kind has a
    case, and every slot of that case reaches its mapper."""

    SAMPLES = {
        ast.Assign: "a[i] <= b + c;",
        ast.If: "if (c) a = 1; else a = d;",
        ast.Case: "case (s) k: a = b; default: a = c; endcase",
        ast.For: "for (i = lo; i < hi; i = i + st) a[i] = b;",
        ast.While: "while (c) a = b;",
        ast.RepeatStmt: "repeat (n) a = b;",
        ast.Block: "begin a = b; begin c = d; end end",
        ast.ForkJoin: "fork a = b; c = d; join",
        ast.SysTask: '$display("%d", a + b);',
        ast.NullStmt: ";",
        ast.DelayStmt: "#d a = b;",
    }

    def test_every_statement_kind_has_a_sample(self):
        from repro.verilog import ast_nodes

        kinds = {cls for cls in vars(ast_nodes).values()
                 if isinstance(cls, type) and issubclass(cls, ast.Stmt)
                 and cls is not ast.Stmt}
        assert kinds == set(self.SAMPLES)
        for kind, text in self.SAMPLES.items():
            assert type(parse_stmt(text)) is kind

    def test_identity_map_returns_an_equal_tree(self):
        def walk(stmt):
            return map_stmt(stmt, walk, lambda e: e, lambda e: e)

        for text in self.SAMPLES.values():
            stmt = parse_stmt(text)
            assert map_stmt(stmt, lambda s: s) == stmt
            assert walk(stmt) == stmt

    def test_rename_reaches_every_slot(self):
        def rename(expr):
            return map_expr(expr, lambda n: ast.Identifier("r_" + n.name)
                            if isinstance(n, ast.Identifier) else n)

        def walk(stmt):
            return map_stmt(stmt, walk, rename, rename)

        for text in self.SAMPLES.values():
            stmt = parse_stmt(text)
            names = stmt_identifiers(walk(stmt))
            assert names == {"r_" + n for n in stmt_identifiers(stmt)}

    def test_for_init_and_step_go_through_child(self):
        stmt = parse_stmt(self.SAMPLES[ast.For])
        seen = []
        map_stmt(stmt, lambda s: seen.append(s) or s)
        assert seen == [stmt.init, stmt.step, stmt.body]

    def test_write_positions_reach_only_the_lvalue_mapper(self):
        for text in ("$fread(fd, mem[i]);", '$readmemh("f", mem);',
                     '$readmemb("f", mem);', "a[i] = b;"):
            stmt = parse_stmt(text)
            reads, writes = [], []
            map_stmt(stmt, lambda s: s, lambda e: reads.append(e) or e,
                     lambda e: writes.append(e) or e)
            if isinstance(stmt, ast.SysTask):
                assert (reads, writes) == ([], list(stmt.args))
            else:
                assert (reads, writes) == ([stmt.rhs], [stmt.lhs])

    def test_lvalue_indices(self):
        lhs = parse_expr("{m[i], w[j +: 4], x[3:0], y}")
        assert [print_expr(e) for e in lvalue_indices(lhs)] == ["i", "j"]
