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
from .lexer import Token, tokenize, parse_based_literal


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


class Parser:
    """Stateful token-stream parser; use :func:`parse` instead."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._idx = 0

    # -- token helpers ----------------------------------------------------

    @property
    def _tok(self) -> Token:
        return self._tokens[self._idx]

    def _advance(self) -> Token:
        tok = self._tok
        if tok.kind != "EOF":
            self._idx += 1
        return tok

    def _expect_op(self, op: str) -> Token:
        if not self._tok.is_op(op):
            raise ParseError(f"expected {op!r}, found {self._tok.text!r}", self._tok.pos)
        return self._advance()

    def _expect_kw(self, kw: str) -> Token:
        if not self._tok.is_kw(kw):
            raise ParseError(f"expected {kw!r}, found {self._tok.text!r}", self._tok.pos)
        return self._advance()

    def _expect_id(self) -> Token:
        if self._tok.kind != "ID":
            raise ParseError(f"expected identifier, found {self._tok.text!r}", self._tok.pos)
        return self._advance()

    def _accept_op(self, op: str) -> bool:
        if self._tok.is_op(op):
            self._advance()
            return True
        return False

    def _accept_kw(self, kw: str) -> bool:
        if self._tok.is_kw(kw):
            self._advance()
            return True
        return False

    # -- top level ---------------------------------------------------------

    def parse_source(self) -> ast.SourceFile:
        modules: List[ast.Module] = []
        while self._tok.kind != "EOF":
            self._skip_attributes()
            modules.append(self.parse_module())
        return ast.SourceFile(tuple(modules))

    def parse_module(self) -> ast.Module:
        pos = self._tok.pos
        self._expect_kw("module")
        name = self._expect_id().text
        items: List[ast.Item] = []
        ports: List[str] = []
        if self._accept_op("#"):
            items.extend(self._parse_param_port_list())
        if self._accept_op("("):
            ports, port_decls = self._parse_port_list()
            items.extend(port_decls)
        self._expect_op(";")
        while not self._tok.is_kw("endmodule"):
            if self._tok.kind == "EOF":
                raise ParseError("unexpected EOF in module body", self._tok.pos)
            items.extend(self.parse_item())
        self._expect_kw("endmodule")
        if not ports:
            ports = [
                item.name
                for item in items
                if isinstance(item, ast.Decl) and item.direction is not None
            ]
        return ast.Module(name, tuple(ports), tuple(items), pos)

    def _parse_param_port_list(self) -> List[ast.Decl]:
        """Parse ``#(parameter A = 1, parameter B = 2)``."""
        decls: List[ast.Decl] = []
        self._expect_op("(")
        while not self._tok.is_op(")"):
            self._accept_kw("parameter")
            rng = self._parse_opt_range()
            name = self._expect_id().text
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
        while not self._tok.is_op(")"):
            attrs = self._parse_attributes()
            if self._tok.is_kw("input", "output", "inout"):
                direction = self._advance().text
                kind = "wire"
                if self._tok.is_kw("reg", "wire", "integer"):
                    kind = self._advance().text
                signed = self._accept_kw("signed")
                rng = self._parse_opt_range()
            name_tok = self._expect_id()
            init = None
            if self._accept_op("="):
                init = self.parse_expr()
            ports.append(name_tok.text)
            if direction is not None:
                decls.append(
                    ast.Decl(
                        kind,
                        name_tok.text,
                        rng,
                        init=init,
                        direction=direction,
                        signed=signed,
                        attributes=attrs,
                        pos=name_tok.pos,
                    )
                )
            if not self._accept_op(","):
                break
        self._expect_op(")")
        return ports, decls

    # -- items --------------------------------------------------------------

    def parse_item(self) -> List[ast.Item]:
        attrs = self._parse_attributes()
        tok = self._tok
        if tok.is_kw("input", "output", "inout"):
            return self._parse_port_decl(attrs)
        if tok.is_kw("wire", "reg", "integer", "genvar", "real"):
            return self._parse_net_decl(attrs)
        if tok.is_kw("parameter", "localparam"):
            return self._parse_param_decl()
        if tok.is_kw("assign"):
            return [self._parse_continuous_assign()]
        if tok.is_kw("always"):
            return [self._parse_always()]
        if tok.is_kw("initial"):
            pos = self._advance().pos
            return [ast.Initial(self.parse_stmt(), pos)]
        if tok.kind == "ID":
            return [self._parse_instance()]
        raise ParseError(f"unexpected token {tok.text!r} in module body", tok.pos)

    def _parse_attributes(self) -> Tuple[Tuple[str, Optional[ast.Expr]], ...]:
        attrs: List[Tuple[str, Optional[ast.Expr]]] = []
        while self._tok.kind == "ATTR_OPEN":
            self._advance()
            while self._tok.kind != "ATTR_CLOSE":
                name = self._expect_id().text
                value = None
                if self._accept_op("="):
                    value = self.parse_expr()
                attrs.append((name, value))
                if not self._accept_op(","):
                    break
            if self._tok.kind != "ATTR_CLOSE":
                raise ParseError("expected '*)'", self._tok.pos)
            self._advance()
        return tuple(attrs)

    def _skip_attributes(self) -> None:
        self._parse_attributes()

    def _parse_opt_range(self) -> Optional[ast.Range]:
        if not self._tok.is_op("["):
            return None
        self._advance()
        msb = self.parse_expr()
        self._expect_op(":")
        lsb = self.parse_expr()
        self._expect_op("]")
        return ast.Range(msb, lsb)

    def _parse_port_decl(self, attrs) -> List[ast.Item]:
        direction = self._advance().text
        kind = "wire"
        if self._tok.is_kw("reg", "wire", "integer"):
            kind = self._advance().text
        signed = self._accept_kw("signed")
        rng = self._parse_opt_range()
        decls: List[ast.Item] = []
        while True:
            name_tok = self._expect_id()
            init = None
            if self._accept_op("="):
                init = self.parse_expr()
            decls.append(
                ast.Decl(kind, name_tok.text, rng, init=init, direction=direction,
                         signed=signed, attributes=attrs, pos=name_tok.pos)
            )
            if not self._accept_op(","):
                break
        self._expect_op(";")
        return decls

    def _parse_net_decl(self, attrs) -> List[ast.Item]:
        kind = self._advance().text
        if kind == "real":
            kind = "integer"  # reals are modelled as 64-bit integers
        signed = self._accept_kw("signed")
        rng = self._parse_opt_range()
        if kind == "integer":
            rng = ast.Range(ast.Number(31), ast.Number(0))
            signed = True
        decls: List[ast.Item] = []
        while True:
            name_tok = self._expect_id()
            unpacked: List[ast.Range] = []
            while self._tok.is_op("["):
                dim = self._parse_opt_range()
                assert dim is not None
                unpacked.append(dim)
            init = None
            if self._accept_op("="):
                init = self.parse_expr()
            decls.append(
                ast.Decl(kind, name_tok.text, rng, tuple(unpacked), init, None,
                         signed, attrs, name_tok.pos)
            )
            if not self._accept_op(","):
                break
        self._expect_op(";")
        return decls

    def _parse_param_decl(self) -> List[ast.Item]:
        kind = self._advance().text
        self._accept_kw("signed")
        rng = self._parse_opt_range()
        decls: List[ast.Item] = []
        while True:
            name_tok = self._expect_id()
            self._expect_op("=")
            init = self.parse_expr()
            decls.append(ast.Decl(kind, name_tok.text, rng, init=init, pos=name_tok.pos))
            if not self._accept_op(","):
                break
        self._expect_op(";")
        return decls

    def _parse_continuous_assign(self) -> ast.ContinuousAssign:
        pos = self._expect_kw("assign").pos
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
        pos = self._expect_kw("always").pos
        self._expect_op("@")
        sensitivity: Union[Tuple[ast.EventExpr, ...], str]
        if self._tok.kind == "ATTR_OPEN":
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
                    if self._tok.is_kw("posedge", "negedge"):
                        edge = self._advance().text
                    events.append(ast.EventExpr(edge, self.parse_expr()))
                    if self._accept_op(",") or self._accept_kw("or"):
                        continue
                    break
                self._expect_op(")")
                sensitivity = tuple(events)
        return ast.Always(sensitivity, self.parse_stmt(), pos)

    def _parse_instance(self) -> ast.Instance:
        mod_tok = self._expect_id()
        params: List[ast.PortConn] = []
        if self._accept_op("#"):
            self._expect_op("(")
            params = self._parse_connections()
            self._expect_op(")")
        name_tok = self._expect_id()
        self._expect_op("(")
        ports = self._parse_connections()
        self._expect_op(")")
        self._expect_op(";")
        return ast.Instance(mod_tok.text, name_tok.text, tuple(params), tuple(ports), mod_tok.pos)

    def _parse_connections(self) -> List[ast.PortConn]:
        conns: List[ast.PortConn] = []
        if self._tok.is_op(")"):
            return conns
        while True:
            if self._accept_op("."):
                name = self._expect_id().text
                self._expect_op("(")
                expr = None if self._tok.is_op(")") else self.parse_expr()
                self._expect_op(")")
                conns.append(ast.PortConn(name, expr))
            else:
                conns.append(ast.PortConn(None, self.parse_expr()))
            if not self._accept_op(","):
                break
        return conns

    # -- statements ----------------------------------------------------------

    def parse_stmt(self) -> ast.Stmt:
        tok = self._tok
        if tok.is_op(";"):
            self._advance()
            return ast.NullStmt(tok.pos)
        if tok.is_kw("begin"):
            return self._parse_block()
        if tok.is_kw("fork"):
            return self._parse_fork()
        if tok.is_kw("if"):
            return self._parse_if()
        if tok.is_kw("case", "casex", "casez"):
            return self._parse_case()
        if tok.is_kw("for"):
            return self._parse_for()
        if tok.is_kw("while"):
            return self._parse_while()
        if tok.is_kw("repeat"):
            return self._parse_repeat()
        if tok.is_op("#"):
            self._advance()
            delay = self._parse_primary()
            if self._tok.is_op(";"):
                self._advance()
                return ast.DelayStmt(delay, None, tok.pos)
            return ast.DelayStmt(delay, self.parse_stmt(), tok.pos)
        if tok.kind == "SYSID":
            return self._parse_systask()
        return self._parse_assignment()

    def _parse_block(self) -> ast.Block:
        pos = self._expect_kw("begin").pos
        name = None
        if self._accept_op(":"):
            name = self._expect_id().text
        stmts: List[ast.Stmt] = []
        while not self._tok.is_kw("end"):
            if self._tok.kind == "EOF":
                raise ParseError("unexpected EOF in begin/end block", self._tok.pos)
            stmts.append(self.parse_stmt())
        self._expect_kw("end")
        return ast.Block(tuple(stmts), name, pos)

    def _parse_fork(self) -> ast.ForkJoin:
        pos = self._expect_kw("fork").pos
        name = None
        if self._accept_op(":"):
            name = self._expect_id().text
        stmts: List[ast.Stmt] = []
        while not self._tok.is_kw("join"):
            if self._tok.kind == "EOF":
                raise ParseError("unexpected EOF in fork/join block", self._tok.pos)
            stmts.append(self.parse_stmt())
        self._expect_kw("join")
        return ast.ForkJoin(tuple(stmts), name, pos)

    def _parse_if(self) -> ast.If:
        pos = self._expect_kw("if").pos
        self._expect_op("(")
        cond = self.parse_expr()
        self._expect_op(")")
        then_stmt = self.parse_stmt()
        else_stmt = None
        if self._accept_kw("else"):
            else_stmt = self.parse_stmt()
        return ast.If(cond, then_stmt, else_stmt, pos)

    def _parse_case(self) -> ast.Case:
        kind_tok = self._advance()
        self._expect_op("(")
        expr = self.parse_expr()
        self._expect_op(")")
        items: List[ast.CaseItem] = []
        while not self._tok.is_kw("endcase"):
            if self._tok.kind == "EOF":
                raise ParseError("unexpected EOF in case statement", self._tok.pos)
            if self._accept_kw("default"):
                self._accept_op(":")
                if self._tok.is_op(";"):
                    self._advance()
                    items.append(ast.CaseItem((), None))
                else:
                    items.append(ast.CaseItem((), self.parse_stmt()))
                continue
            labels: List[ast.Expr] = [self.parse_expr()]
            while self._accept_op(","):
                labels.append(self.parse_expr())
            self._expect_op(":")
            if self._tok.is_op(";"):
                self._advance()
                items.append(ast.CaseItem(tuple(labels), None))
            else:
                items.append(ast.CaseItem(tuple(labels), self.parse_stmt()))
        self._expect_kw("endcase")
        return ast.Case(expr, tuple(items), kind_tok.text, kind_tok.pos)

    def _parse_for(self) -> ast.For:
        pos = self._expect_kw("for").pos
        self._expect_op("(")
        init = self._parse_assign_core()
        self._expect_op(";")
        cond = self.parse_expr()
        self._expect_op(";")
        step = self._parse_assign_core()
        self._expect_op(")")
        return ast.For(init, cond, step, self.parse_stmt(), pos)

    def _parse_while(self) -> ast.While:
        pos = self._expect_kw("while").pos
        self._expect_op("(")
        cond = self.parse_expr()
        self._expect_op(")")
        return ast.While(cond, self.parse_stmt(), pos)

    def _parse_repeat(self) -> ast.RepeatStmt:
        pos = self._expect_kw("repeat").pos
        self._expect_op("(")
        count = self.parse_expr()
        self._expect_op(")")
        return ast.RepeatStmt(count, self.parse_stmt(), pos)

    def _parse_systask(self) -> ast.SysTask:
        tok = self._advance()
        args: List[ast.Expr] = []
        if self._accept_op("("):
            while not self._tok.is_op(")"):
                args.append(self.parse_expr())
                if not self._accept_op(","):
                    break
            self._expect_op(")")
        self._expect_op(";")
        return ast.SysTask(tok.text, tuple(args), tok.pos)

    def _parse_assign_core(self) -> ast.Assign:
        lhs = self.parse_expr()
        if self._accept_op("="):
            return ast.Assign(lhs, self.parse_expr(), blocking=True)
        if self._accept_op("<="):
            return ast.Assign(lhs, self.parse_expr(), blocking=False)
        raise ParseError("expected assignment operator", self._tok.pos)

    def _parse_assignment(self) -> ast.Stmt:
        pos = self._tok.pos
        lhs = self._parse_lvalue()
        if self._accept_op("="):
            rhs = self.parse_expr()
            self._expect_op(";")
            return ast.Assign(lhs, rhs, blocking=True, pos=pos)
        if self._accept_op("<="):
            rhs = self.parse_expr()
            self._expect_op(";")
            return ast.Assign(lhs, rhs, blocking=False, pos=pos)
        raise ParseError(f"expected '=' or '<=', found {self._tok.text!r}", self._tok.pos)

    def _parse_lvalue(self) -> ast.Expr:
        """Parse an lvalue: identifier with selects, or a concatenation."""
        if self._tok.is_op("{"):
            pos = self._advance().pos
            parts = [self._parse_lvalue()]
            while self._accept_op(","):
                parts.append(self._parse_lvalue())
            self._expect_op("}")
            return ast.Concat(tuple(parts), pos)
        tok = self._expect_id()
        expr: ast.Expr = ast.Identifier(tok.text, tok.pos)
        return self._parse_selects(expr)

    def _parse_selects(self, expr: ast.Expr) -> ast.Expr:
        while self._tok.is_op("["):
            self._advance()
            first = self.parse_expr()
            if self._accept_op(":"):
                second = self.parse_expr()
                self._expect_op("]")
                expr = ast.RangeSelect(expr, first, second, ":")
            elif self._accept_op("+:"):
                width = self.parse_expr()
                self._expect_op("]")
                expr = ast.RangeSelect(expr, first, width, "+:")
            elif self._accept_op("-:"):
                width = self.parse_expr()
                self._expect_op("]")
                expr = ast.RangeSelect(expr, first, width, "-:")
            else:
                self._expect_op("]")
                expr = ast.Index(expr, first)
        return expr

    # -- expressions -----------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(1)
        if self._accept_op("?"):
            if_true = self._parse_ternary()
            self._expect_op(":")
            if_false = self._parse_ternary()
            return ast.Ternary(cond, if_true, if_false)
        return cond

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        left = self._parse_unary()
        while True:
            tok = self._tok
            if tok.kind != "OP":
                return left
            prec = _BINARY_PREC.get(tok.text)
            if prec is None or prec < min_prec:
                return left
            self._advance()
            # ** is right-associative; everything else left-associative.
            next_min = prec if tok.text == "**" else prec + 1
            right = self._parse_binary(next_min)
            left = ast.Binary(tok.text, left, right, tok.pos)

    def _parse_unary(self) -> ast.Expr:
        tok = self._tok
        if tok.kind == "OP" and tok.text in _UNARY_OPS:
            self._advance()
            operand = self._parse_unary()
            if tok.text == "+":
                return operand
            return ast.Unary(tok.text, operand, tok.pos)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        tok = self._tok
        if tok.kind == "NUMBER":
            self._advance()
            return ast.Number(int(tok.text.replace("_", "")), None, False, "d", tok.pos)
        if tok.kind == "BASEDNUM":
            self._advance()
            width, signed, base, value, xz_mask = parse_based_literal(tok.text)
            return ast.Number(value, width, signed, base, tok.pos, xz_mask)
        if tok.kind == "STRING":
            self._advance()
            return ast.String(tok.text, tok.pos)
        if tok.kind == "SYSID":
            self._advance()
            args: List[ast.Expr] = []
            if self._accept_op("("):
                while not self._tok.is_op(")"):
                    args.append(self.parse_expr())
                    if not self._accept_op(","):
                        break
                self._expect_op(")")
            return ast.SysCall(tok.text, tuple(args), tok.pos)
        if tok.is_op("("):
            self._advance()
            expr = self.parse_expr()
            self._expect_op(")")
            return self._parse_selects(expr)
        if tok.is_op("{"):
            self._advance()
            first = self.parse_expr()
            if self._tok.is_op("{"):
                # Replication {n{expr}}
                self._advance()
                value = self.parse_expr()
                while self._accept_op(","):
                    value = ast.Concat((value, self.parse_expr()))
                self._expect_op("}")
                self._expect_op("}")
                return ast.Repeat(first, value, tok.pos)
            parts = [first]
            while self._accept_op(","):
                parts.append(self.parse_expr())
            self._expect_op("}")
            return self._parse_selects(ast.Concat(tuple(parts), tok.pos))
        if tok.kind == "ID":
            self._advance()
            expr: ast.Expr = ast.Identifier(tok.text, tok.pos)
            return self._parse_selects(expr)
        raise ParseError(f"unexpected token {tok.text!r} in expression", tok.pos)


def parse(text: str, defines: Optional[dict] = None) -> ast.SourceFile:
    """Parse Verilog source *text* into a :class:`SourceFile`."""
    return Parser(tokenize(text, defines)).parse_source()


def parse_module(text: str, defines: Optional[dict] = None) -> ast.Module:
    """Parse source containing exactly one module and return it."""
    source = parse(text, defines)
    if len(source.modules) != 1:
        raise ParseError(
            f"expected exactly one module, found {len(source.modules)}", SourcePos()
        )
    return source.modules[0]


def parse_expr(text: str) -> ast.Expr:
    """Parse a standalone expression (used heavily in tests)."""
    parser = Parser(tokenize(text))
    expr = parser.parse_expr()
    if parser._tok.kind != "EOF":
        raise ParseError(f"trailing input {parser._tok.text!r}", parser._tok.pos)
    return expr


def parse_stmt(text: str) -> ast.Stmt:
    """Parse a standalone statement (used heavily in tests)."""
    parser = Parser(tokenize(text))
    stmt = parser.parse_stmt()
    if parser._tok.kind != "EOF":
        raise ParseError(f"trailing input {parser._tok.text!r}", parser._tok.pos)
    return stmt
