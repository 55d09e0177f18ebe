"""Recursive-descent parser for the Verilog subset.

The grammar covers everything the Synergy paper exercises: module
definitions with ANSI or classic port lists, net/variable/parameter
declarations (with packed ranges, memories and initializers), continuous
assigns, ``always``/``initial`` blocks with full procedural statements
(``begin``/``end``, ``fork``/``join``, ``if``, ``case``/``casex``/
``casez``, ``for``, ``while``, ``repeat``), blocking and non-blocking
assignments, module instantiation with parameter overrides, system
tasks/functions, and ``(* ... *)`` attribute instances.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from . import ast_nodes as ast
from .ast_nodes import SourcePos
from .lexer import Scan, parse_based_literal, position, scan


class ParseError(Exception):
    """Raised on a syntax error, annotated with the offending position."""

    def __init__(self, message: str, pos: SourcePos):
        super().__init__(f"{pos}: {message}")
        self.pos = pos


# Binary operator precedence, higher binds tighter.
_BINARY_PREC = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4, "^~": 4, "~^": 4,
    "&": 5,
    "==": 6, "!=": 6, "===": 6, "!==": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8, "<<<": 8, ">>>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
    "**": 11,
}

_UNARY_OPS = frozenset(["+", "-", "!", "~", "&", "~&", "|", "~|", "^", "~^", "^~"])

#: the statement a keyword opens, by the method that parses it
_STMT_KEYWORDS = {
    "begin": "_parse_block", "fork": "_parse_fork", "if": "_parse_if",
    "case": "_parse_case", "casex": "_parse_case", "casez": "_parse_case",
    "for": "_parse_for", "while": "_parse_while", "repeat": "_parse_repeat",
}


class Parser:
    """Recursive descent over :func:`~repro.verilog.lexer.scan`'s
    columns; use :func:`parse` instead.

    ``_kind`` and ``_text`` are the current token's, and only
    :meth:`_advance` moves them; :meth:`_pos` builds a token's position
    only where a node or an error takes one.
    """

    def __init__(self, columns: Scan):
        self._kinds, self._texts, self._starts, self._line_starts = columns
        self._i, self._last = 0, len(self._kinds) - 1
        self._kind, self._text = self._kinds[0], self._texts[0]
        self._pos_at, self._last_pos = -1, SourcePos()

    # -- token helpers ----------------------------------------------------

    def _pos(self) -> SourcePos:
        """The current token's position, built once per token: the nodes
        one token starts share it, in memory and in a pickle."""
        if self._pos_at != self._i:
            self._pos_at = self._i
            self._last_pos = position(self._line_starts, self._starts[self._i])
        return self._last_pos

    def _advance(self) -> str:
        """Move past the current token (never past ``EOF``); its text."""
        text, i = self._text, self._i
        if i < self._last:
            self._i = i = i + 1
            self._kind, self._text = self._kinds[i], self._texts[i]
        return text

    def _at_op(self, *ops: str) -> bool:
        return self._kind == "OP" and self._text in ops

    def _at_kw(self, *kws: str) -> bool:
        return self._kind == "KEYWORD" and self._text in kws

    def _expect(self, kind: str, text: str) -> None:
        if self._kind != kind or self._text != text:
            raise ParseError(f"expected {text!r}, found {self._text!r}", self._pos())
        self._advance()

    def _expect_op(self, op: str) -> None:
        self._expect("OP", op)

    def _expect_kw(self, kw: str) -> None:
        self._expect("KEYWORD", kw)

    def _expect_id(self) -> str:
        if self._kind != "ID":
            raise ParseError(f"expected identifier, found {self._text!r}", self._pos())
        return self._advance()

    def _accept_op(self, op: str) -> bool:
        if self._kind == "OP" and self._text == op:
            self._advance()
            return True
        return False

    def _accept_kw(self, kw: str) -> bool:
        if self._kind == "KEYWORD" and self._text == kw:
            self._advance()
            return True
        return False

    # -- top level ---------------------------------------------------------

    def parse_source(self) -> ast.SourceFile:
        modules: List[ast.Module] = []
        while self._kind != "EOF":
            self._parse_attributes()
            modules.append(self.parse_module())
        return ast.SourceFile(tuple(modules))

    def parse_module(self) -> ast.Module:
        pos = self._pos()
        self._expect_kw("module")
        name = self._expect_id()
        items: List[ast.Item] = []
        ports: List[str] = []
        if self._accept_op("#"):
            items.extend(self._parse_param_port_list())
        if self._accept_op("("):
            ports, port_decls = self._parse_port_list()
            items.extend(port_decls)
        self._expect_op(";")
        while not self._at_kw("endmodule"):
            if self._kind == "EOF":
                raise ParseError("unexpected EOF in module body", self._pos())
            items.extend(self.parse_item())
        self._expect_kw("endmodule")
        if not ports:
            ports = [item.name for item in items
                     if isinstance(item, ast.Decl) and item.direction is not None]
        return ast.Module(name, tuple(ports), tuple(items), pos)

    def _parse_param_port_list(self) -> List[ast.Decl]:
        """Parse ``#(parameter A = 1, parameter B = 2)``."""
        decls: List[ast.Decl] = []
        self._expect_op("(")
        while not self._at_op(")"):
            self._accept_kw("parameter")
            rng = self._parse_opt_range()
            name = self._expect_id()
            self._expect_op("=")
            init = self.parse_expr()
            decls.append(ast.Decl("parameter", name, rng, init=init))
            if not self._accept_op(","):
                break
        self._expect_op(")")
        return decls

    def _parse_port_list(self) -> Tuple[List[str], List[ast.Decl]]:
        """Parse the header port list; supports ANSI and classic styles."""
        ports: List[str] = []
        decls: List[ast.Decl] = []
        direction: Optional[str] = None
        kind = "wire"
        signed = False
        rng: Optional[ast.Range] = None
        while not self._at_op(")"):
            attrs = self._parse_attributes()
            if self._at_kw("input", "output", "inout"):
                direction = self._advance()
                kind = "wire"
                if self._at_kw("reg", "wire", "integer"):
                    kind = self._advance()
                signed = self._accept_kw("signed")
                rng = self._parse_opt_range()
            pos = self._pos()
            name = self._expect_id()
            init = None
            if self._accept_op("="):
                init = self.parse_expr()
            ports.append(name)
            if direction is not None:
                decls.append(ast.Decl(kind, name, rng, init=init, direction=direction,
                                      signed=signed, attributes=attrs, pos=pos))
            if not self._accept_op(","):
                break
        self._expect_op(")")
        return ports, decls

    # -- items --------------------------------------------------------------

    def parse_item(self) -> List[ast.Item]:
        attrs = self._parse_attributes()
        if self._at_kw("input", "output", "inout"):
            return self._parse_port_decl(attrs)
        if self._at_kw("wire", "reg", "integer", "genvar", "real"):
            return self._parse_net_decl(attrs)
        if self._at_kw("parameter", "localparam"):
            return self._parse_param_decl()
        if self._at_kw("assign"):
            return [self._parse_continuous_assign()]
        if self._at_kw("always"):
            return [self._parse_always()]
        if self._at_kw("initial"):
            pos = self._pos()
            self._advance()
            return [ast.Initial(self.parse_stmt(), pos)]
        if self._kind == "ID":
            return [self._parse_instance()]
        raise ParseError(f"unexpected token {self._text!r} in module body", self._pos())

    def _parse_attributes(self) -> Tuple[Tuple[str, Optional[ast.Expr]], ...]:
        attrs: List[Tuple[str, Optional[ast.Expr]]] = []
        while self._kind == "ATTR_OPEN":
            self._advance()
            while self._kind != "ATTR_CLOSE":
                name = self._expect_id()
                value = None
                if self._accept_op("="):
                    value = self.parse_expr()
                attrs.append((name, value))
                if not self._accept_op(","):
                    break
            if self._kind != "ATTR_CLOSE":
                raise ParseError("expected '*)'", self._pos())
            self._advance()
        return tuple(attrs)

    def _parse_opt_range(self) -> Optional[ast.Range]:
        if not self._at_op("["):
            return None
        self._advance()
        msb = self.parse_expr()
        self._expect_op(":")
        lsb = self.parse_expr()
        self._expect_op("]")
        return ast.Range(msb, lsb)

    def _parse_port_decl(self, attrs) -> List[ast.Item]:
        direction = self._advance()
        kind = "wire"
        if self._at_kw("reg", "wire", "integer"):
            kind = self._advance()
        signed = self._accept_kw("signed")
        rng = self._parse_opt_range()
        decls: List[ast.Item] = []
        while True:
            pos = self._pos()
            name = self._expect_id()
            init = None
            if self._accept_op("="):
                init = self.parse_expr()
            decls.append(
                ast.Decl(kind, name, rng, init=init, direction=direction,
                         signed=signed, attributes=attrs, pos=pos)
            )
            if not self._accept_op(","):
                break
        self._expect_op(";")
        return decls

    def _parse_net_decl(self, attrs) -> List[ast.Item]:
        kind = self._advance()
        if kind == "real":
            kind = "integer"  # reals are modelled as 64-bit integers
        signed = self._accept_kw("signed")
        rng = self._parse_opt_range()
        if kind == "integer":
            rng = ast.Range(ast.Number(31), ast.Number(0))
            signed = True
        decls: List[ast.Item] = []
        while True:
            pos = self._pos()
            name = self._expect_id()
            unpacked: List[ast.Range] = []
            while self._at_op("["):
                dim = self._parse_opt_range()
                assert dim is not None
                unpacked.append(dim)
            init = None
            if self._accept_op("="):
                init = self.parse_expr()
            decls.append(
                ast.Decl(kind, name, rng, tuple(unpacked), init, None,
                         signed, attrs, pos)
            )
            if not self._accept_op(","):
                break
        self._expect_op(";")
        return decls

    def _parse_param_decl(self) -> List[ast.Item]:
        kind = self._advance()
        self._accept_kw("signed")
        rng = self._parse_opt_range()
        decls: List[ast.Item] = []
        while True:
            pos = self._pos()
            name = self._expect_id()
            self._expect_op("=")
            init = self.parse_expr()
            decls.append(ast.Decl(kind, name, rng, init=init, pos=pos))
            if not self._accept_op(","):
                break
        self._expect_op(";")
        return decls

    def _parse_continuous_assign(self) -> ast.ContinuousAssign:
        pos = self._pos()
        self._expect_kw("assign")
        lhs = self.parse_expr()
        self._expect_op("=")
        rhs = self.parse_expr()
        first = ast.ContinuousAssign(lhs, rhs, pos)
        # `assign a = b, c = d;` — additional assignments share the keyword.
        if self._accept_op(","):
            raise ParseError("multiple assignments per 'assign' are not supported; "
                             "use separate assign statements", pos)
        self._expect_op(";")
        return first

    def _parse_always(self) -> ast.Always:
        pos = self._pos()
        self._expect_kw("always")
        self._expect_op("@")
        sensitivity: Union[Tuple[ast.EventExpr, ...], str]
        if self._kind == "ATTR_OPEN":
            # `@(*)` lexes as `@` `(*` `)` — the classic ambiguity with
            # attribute instances; in event position it means "any".
            self._advance()
            self._expect_op(")")
            sensitivity = ast.STAR
        elif self._accept_op("*"):
            sensitivity = ast.STAR
        else:
            self._expect_op("(")
            if self._accept_op("*"):
                sensitivity = ast.STAR
                self._expect_op(")")
            else:
                events: List[ast.EventExpr] = []
                while True:
                    edge = "any"
                    if self._at_kw("posedge", "negedge"):
                        edge = self._advance()
                    events.append(ast.EventExpr(edge, self.parse_expr()))
                    if self._accept_op(",") or self._accept_kw("or"):
                        continue
                    break
                self._expect_op(")")
                sensitivity = tuple(events)
        return ast.Always(sensitivity, self.parse_stmt(), pos)

    def _parse_instance(self) -> ast.Instance:
        pos = self._pos()
        module = self._expect_id()
        params: List[ast.PortConn] = []
        if self._accept_op("#"):
            self._expect_op("(")
            params = self._parse_connections()
            self._expect_op(")")
        name = self._expect_id()
        self._expect_op("(")
        ports = self._parse_connections()
        self._expect_op(")")
        self._expect_op(";")
        return ast.Instance(module, name, tuple(params), tuple(ports), pos)

    def _parse_connections(self) -> List[ast.PortConn]:
        conns: List[ast.PortConn] = []
        if self._at_op(")"):
            return conns
        while True:
            if self._accept_op("."):
                name = self._expect_id()
                self._expect_op("(")
                expr = None if self._at_op(")") else self.parse_expr()
                self._expect_op(")")
                conns.append(ast.PortConn(name, expr))
            else:
                conns.append(ast.PortConn(None, self.parse_expr()))
            if not self._accept_op(","):
                break
        return conns

    # -- statements ----------------------------------------------------------

    def parse_stmt(self) -> ast.Stmt:
        kind, text = self._kind, self._text
        if kind == "KEYWORD" and text in _STMT_KEYWORDS:
            return getattr(self, _STMT_KEYWORDS[text])()
        if kind == "SYSID":
            return self._parse_systask()
        if kind == "OP" and text == ";":
            pos = self._pos()
            self._advance()
            return ast.NullStmt(pos)
        if kind == "OP" and text == "#":
            pos = self._pos()
            self._advance()
            delay = self._parse_primary()
            if self._accept_op(";"):
                return ast.DelayStmt(delay, None, pos)
            return ast.DelayStmt(delay, self.parse_stmt(), pos)
        return self._parse_assignment()

    def _parse_block(self) -> ast.Block:
        pos = self._pos()
        self._expect_kw("begin")
        name = None
        if self._accept_op(":"):
            name = self._expect_id()
        stmts: List[ast.Stmt] = []
        while not self._at_kw("end"):
            if self._kind == "EOF":
                raise ParseError("unexpected EOF in begin/end block", self._pos())
            stmts.append(self.parse_stmt())
        self._expect_kw("end")
        return ast.Block(tuple(stmts), name, pos)

    def _parse_fork(self) -> ast.ForkJoin:
        pos = self._pos()
        self._expect_kw("fork")
        name = None
        if self._accept_op(":"):
            name = self._expect_id()
        stmts: List[ast.Stmt] = []
        while not self._at_kw("join"):
            if self._kind == "EOF":
                raise ParseError("unexpected EOF in fork/join block", self._pos())
            stmts.append(self.parse_stmt())
        self._expect_kw("join")
        return ast.ForkJoin(tuple(stmts), name, pos)

    def _parse_if(self) -> ast.If:
        pos = self._pos()
        self._expect_kw("if")
        self._expect_op("(")
        cond = self.parse_expr()
        self._expect_op(")")
        then_stmt = self.parse_stmt()
        else_stmt = None
        if self._accept_kw("else"):
            else_stmt = self.parse_stmt()
        return ast.If(cond, then_stmt, else_stmt, pos)

    def _parse_case(self) -> ast.Case:
        pos = self._pos()
        kind = self._advance()
        self._expect_op("(")
        expr = self.parse_expr()
        self._expect_op(")")
        items: List[ast.CaseItem] = []
        while not self._at_kw("endcase"):
            if self._kind == "EOF":
                raise ParseError("unexpected EOF in case statement", self._pos())
            if self._accept_kw("default"):
                self._accept_op(":")
                if self._at_op(";"):
                    self._advance()
                    items.append(ast.CaseItem((), None))
                else:
                    items.append(ast.CaseItem((), self.parse_stmt()))
                continue
            labels: List[ast.Expr] = [self.parse_expr()]
            while self._accept_op(","):
                labels.append(self.parse_expr())
            self._expect_op(":")
            if self._at_op(";"):
                self._advance()
                items.append(ast.CaseItem(tuple(labels), None))
            else:
                items.append(ast.CaseItem(tuple(labels), self.parse_stmt()))
        self._expect_kw("endcase")
        return ast.Case(expr, tuple(items), kind, pos)

    def _parse_for(self) -> ast.For:
        pos = self._pos()
        self._expect_kw("for")
        self._expect_op("(")
        init = self._parse_assign_core()
        self._expect_op(";")
        cond = self.parse_expr()
        self._expect_op(";")
        step = self._parse_assign_core()
        self._expect_op(")")
        return ast.For(init, cond, step, self.parse_stmt(), pos)

    def _parse_while(self) -> ast.While:
        pos = self._pos()
        self._expect_kw("while")
        self._expect_op("(")
        cond = self.parse_expr()
        self._expect_op(")")
        return ast.While(cond, self.parse_stmt(), pos)

    def _parse_repeat(self) -> ast.RepeatStmt:
        pos = self._pos()
        self._expect_kw("repeat")
        self._expect_op("(")
        count = self.parse_expr()
        self._expect_op(")")
        return ast.RepeatStmt(count, self.parse_stmt(), pos)

    def _parse_systask(self) -> ast.SysTask:
        pos = self._pos()
        name = self._advance()
        args: List[ast.Expr] = []
        if self._accept_op("("):
            while not self._at_op(")"):
                args.append(self.parse_expr())
                if not self._accept_op(","):
                    break
            self._expect_op(")")
        self._expect_op(";")
        return ast.SysTask(name, tuple(args), pos)

    def _parse_assign_core(self) -> ast.Assign:
        lhs = self.parse_expr()
        if self._accept_op("="):
            return ast.Assign(lhs, self.parse_expr(), blocking=True)
        if self._accept_op("<="):
            return ast.Assign(lhs, self.parse_expr(), blocking=False)
        raise ParseError("expected assignment operator", self._pos())

    def _parse_assignment(self) -> ast.Stmt:
        pos = self._pos()
        lhs = self._parse_lvalue()
        if self._accept_op("="):
            rhs = self.parse_expr()
            self._expect_op(";")
            return ast.Assign(lhs, rhs, blocking=True, pos=pos)
        if self._accept_op("<="):
            rhs = self.parse_expr()
            self._expect_op(";")
            return ast.Assign(lhs, rhs, blocking=False, pos=pos)
        raise ParseError(f"expected '=' or '<=', found {self._text!r}", self._pos())

    def _parse_lvalue(self) -> ast.Expr:
        """Parse an lvalue: identifier with selects, or a concatenation."""
        if self._at_op("{"):
            pos = self._pos()
            self._advance()
            parts = [self._parse_lvalue()]
            while self._accept_op(","):
                parts.append(self._parse_lvalue())
            self._expect_op("}")
            return ast.Concat(tuple(parts), pos)
        pos = self._pos()
        return self._parse_selects(ast.Identifier(self._expect_id(), pos))

    def _parse_selects(self, expr: ast.Expr) -> ast.Expr:
        while self._kind == "OP" and self._text == "[":
            self._advance()
            first = self.parse_expr()
            if self._at_op(":", "+:", "-:"):
                op = self._advance()
                second = self.parse_expr()
                self._expect_op("]")
                expr = ast.RangeSelect(expr, first, second, op)
            else:
                self._expect_op("]")
                expr = ast.Index(expr, first)
        return expr

    # -- expressions -----------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        cond = self._parse_binary(1)
        if self._accept_op("?"):
            if_true = self.parse_expr()
            self._expect_op(":")
            if_false = self.parse_expr()
            return ast.Ternary(cond, if_true, if_false)
        return cond

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        left = self._parse_unary()
        while True:
            if self._kind != "OP":
                return left
            op = self._text
            prec = _BINARY_PREC.get(op)
            if prec is None or prec < min_prec:
                return left
            pos = self._pos()
            self._advance()
            # ** is right-associative; everything else left-associative.
            next_min = prec if op == "**" else prec + 1
            right = self._parse_binary(next_min)
            left = ast.Binary(op, left, right, pos)

    def _parse_unary(self) -> ast.Expr:
        if self._kind == "OP" and self._text in _UNARY_OPS:
            pos = self._pos()
            op = self._advance()
            operand = self._parse_unary()
            if op == "+":
                return operand
            return ast.Unary(op, operand, pos)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        kind, text = self._kind, self._text
        if kind == "OP" and text == "(":
            self._advance()
            expr = self.parse_expr()
            self._expect_op(")")
            return self._parse_selects(expr)
        pos = self._pos()
        if kind == "ID":
            self._advance()
            return self._parse_selects(ast.Identifier(text, pos))
        if kind == "NUMBER":
            self._advance()
            return ast.Number(int(text.replace("_", "")), None, False, "d", pos)
        if kind == "BASEDNUM":
            self._advance()
            width, signed, base, value, xz_mask = parse_based_literal(text)
            return ast.Number(value, width, signed, base, pos, xz_mask)
        if kind == "OP" and text == "{":
            self._advance()
            first = self.parse_expr()
            if self._accept_op("{"):
                # Replication {n{expr}}
                value = self.parse_expr()
                while self._accept_op(","):
                    value = ast.Concat((value, self.parse_expr()))
                self._expect_op("}")
                self._expect_op("}")
                return ast.Repeat(first, value, pos)
            parts = [first]
            while self._accept_op(","):
                parts.append(self.parse_expr())
            self._expect_op("}")
            return self._parse_selects(ast.Concat(tuple(parts), pos))
        if kind == "STRING":
            self._advance()
            return ast.String(text, pos)
        if kind == "SYSID":
            self._advance()
            args: List[ast.Expr] = []
            if self._accept_op("("):
                while not self._at_op(")"):
                    args.append(self.parse_expr())
                    if not self._accept_op(","):
                        break
                self._expect_op(")")
            return ast.SysCall(text, tuple(args), pos)
        raise ParseError(f"unexpected token {text!r} in expression", pos)


def parse(text: str, defines: Optional[dict] = None) -> ast.SourceFile:
    """Parse Verilog source *text* into a :class:`SourceFile`."""
    return Parser(scan(text, defines)).parse_source()


def parse_module(text: str, defines: Optional[dict] = None) -> ast.Module:
    """Parse source containing exactly one module and return it."""
    source = parse(text, defines)
    if len(source.modules) != 1:
        raise ParseError(
            f"expected exactly one module, found {len(source.modules)}", SourcePos()
        )
    return source.modules[0]


def _parse_whole(text: str, rule):
    parser = Parser(scan(text))
    node = rule(parser)
    if parser._kind != "EOF":
        raise ParseError(f"trailing input {parser._text!r}", parser._pos())
    return node


def parse_expr(text: str) -> ast.Expr:
    """Parse a standalone expression (used heavily in tests)."""
    return _parse_whole(text, Parser.parse_expr)


def parse_stmt(text: str) -> ast.Stmt:
    """Parse a standalone statement (used heavily in tests)."""
    return _parse_whole(text, Parser.parse_stmt)
