"""AST node definitions for the Verilog subset used by Synergy.

The node set covers the synthesizable core of Verilog-2005 plus the
unsynthesizable constructs the paper depends on (system tasks, file IO,
``$save``/``$restart``/``$yield``, ``fork``/``join``) and the ``(* ... *)``
attribute syntax used for ``non_volatile`` annotations.

All nodes are frozen dataclasses: passes build new trees rather than
mutating, and an assignment to a field raises, so a single parse result
can safely be shared between the software interpreter and several
compilation pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union


class SourcePos(NamedTuple):
    """Location of a construct in the original source text.

    A tuple, so the lexer builds one per token with ``tuple.__new__``.
    Node hashes, set order and ``repr`` of a tree read its hash,
    ``hash((line, column))``, and its repr, ``SourcePos(line=1,
    column=2)``; ``tests/verilog/frontend_golden.json`` pins them.
    """

    line: int = 0
    column: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class Node:
    """Base class for all AST nodes (expressions, statements, items)."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    """Base class for expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Number(Expr):
    """A literal, e.g. ``13``, ``32'hDEAD_BEEF``, ``1'b0``.

    ``width`` is ``None`` for unsized literals (which default to 32 bits in
    a context-determined position, per the standard).
    """

    value: int
    width: Optional[int] = None
    signed: bool = False
    base: str = "d"
    pos: SourcePos = SourcePos()
    #: Bits declared as x/z/? in the source literal.  Zero except in
    #: ``casez``/``casex`` labels, where it marks don't-care positions.
    xz_mask: int = 0

    def __str__(self) -> str:
        if self.width is None and self.base == "d" and not self.signed:
            return str(self.value)
        width = "" if self.width is None else str(self.width)
        sign = "s" if self.signed else ""
        if self.base == "d":
            digits = str(abs(self.value))
        else:
            fmt = {"h": "x", "o": "o", "b": "b"}[self.base]
            digits = format(abs(self.value), fmt)
        # a signed parameter holds its integer reading: -8'sd3
        minus = "-" if self.value < 0 else ""
        return f"{minus}{width}'{sign}{self.base}{digits}"


@dataclass(frozen=True)
class String(Expr):
    """A string literal, used as a system-task argument."""

    value: str
    pos: SourcePos = SourcePos()

    def __str__(self) -> str:
        return '"' + self.value.replace("\\", "\\\\").replace('"', '\\"') + '"'


@dataclass(frozen=True)
class Identifier(Expr):
    """A reference to a net, register, parameter or genvar."""

    name: str
    pos: SourcePos = SourcePos()

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Index(Expr):
    """Bit-select or memory-element select: ``base[index]``."""

    base: Expr
    index: Expr
    pos: SourcePos = SourcePos()

    def __str__(self) -> str:
        return f"{self.base}[{self.index}]"


@dataclass(frozen=True)
class RangeSelect(Expr):
    """Constant part-select ``base[msb:lsb]`` or indexed ``base[e +: w]``.

    ``mode`` is ``":"`` for a constant part select, ``"+:"`` / ``"-:"`` for
    indexed part selects.
    """

    base: Expr
    msb: Expr
    lsb: Expr
    mode: str = ":"
    pos: SourcePos = SourcePos()

    def __str__(self) -> str:
        return f"{self.base}[{self.msb}{self.mode}{self.lsb}]"


@dataclass(frozen=True)
class Concat(Expr):
    """Concatenation ``{a, b, c}``."""

    parts: Tuple[Expr, ...]
    pos: SourcePos = SourcePos()

    def __str__(self) -> str:
        return "{" + ", ".join(str(p) for p in self.parts) + "}"


@dataclass(frozen=True)
class Repeat(Expr):
    """Replication ``{n{expr}}``."""

    count: Expr
    value: Expr
    pos: SourcePos = SourcePos()

    def __str__(self) -> str:
        return "{" + f"{self.count}{{{self.value}}}" + "}"


@dataclass(frozen=True)
class Unary(Expr):
    """Unary operator application (``~``, ``!``, ``-``, reductions...)."""

    op: str
    operand: Expr
    pos: SourcePos = SourcePos()

    def __str__(self) -> str:
        return f"{self.op}({self.operand})"


@dataclass(frozen=True)
class Binary(Expr):
    """Binary operator application."""

    op: str
    left: Expr
    right: Expr
    pos: SourcePos = SourcePos()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Ternary(Expr):
    """Conditional expression ``cond ? a : b``."""

    cond: Expr
    if_true: Expr
    if_false: Expr
    pos: SourcePos = SourcePos()

    def __str__(self) -> str:
        return f"({self.cond} ? {self.if_true} : {self.if_false})"


@dataclass(frozen=True)
class SysCall(Expr):
    """System function call used in expression position.

    Examples: ``$feof(fd)``, ``$time``, ``$random``, ``$signed(x)``.
    """

    name: str
    args: Tuple[Expr, ...] = ()
    pos: SourcePos = SourcePos()

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}(" + ", ".join(str(a) for a in self.args) + ")"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    """Base class for procedural statements."""

    __slots__ = ()


@dataclass(frozen=True)
class Assign(Stmt):
    """Procedural assignment.  ``blocking`` selects ``=`` vs ``<=``."""

    lhs: Expr
    rhs: Expr
    blocking: bool = True
    pos: SourcePos = SourcePos()

    def __str__(self) -> str:
        op = "=" if self.blocking else "<="
        return f"{self.lhs} {op} {self.rhs};"


@dataclass(frozen=True)
class If(Stmt):
    """``if (cond) then_stmt else else_stmt``."""

    cond: Expr
    then_stmt: Optional[Stmt]
    else_stmt: Optional[Stmt] = None
    pos: SourcePos = SourcePos()


@dataclass(frozen=True)
class CaseItem(Node):
    """One arm of a case statement.  Empty ``labels`` means ``default``."""

    labels: Tuple[Expr, ...]
    stmt: Optional[Stmt]


@dataclass(frozen=True)
class Case(Stmt):
    """``case`` / ``casex`` / ``casez`` statement."""

    expr: Expr
    items: Tuple[CaseItem, ...]
    kind: str = "case"
    pos: SourcePos = SourcePos()


@dataclass(frozen=True)
class For(Stmt):
    """``for (init; cond; step) body`` — unrolled during elaboration."""

    init: Assign
    cond: Expr
    step: Assign
    body: Optional[Stmt]
    pos: SourcePos = SourcePos()


@dataclass(frozen=True)
class While(Stmt):
    """``while (cond) body``."""

    cond: Expr
    body: Optional[Stmt]
    pos: SourcePos = SourcePos()


@dataclass(frozen=True)
class RepeatStmt(Stmt):
    """``repeat (n) body``."""

    count: Expr
    body: Optional[Stmt]
    pos: SourcePos = SourcePos()


@dataclass(frozen=True)
class Block(Stmt):
    """A ``begin``/``end`` sequential block (optionally named)."""

    stmts: Tuple[Stmt, ...]
    name: Optional[str] = None
    pos: SourcePos = SourcePos()


@dataclass(frozen=True)
class ForkJoin(Stmt):
    """A ``fork``/``join`` parallel block."""

    stmts: Tuple[Stmt, ...]
    name: Optional[str] = None
    pos: SourcePos = SourcePos()


@dataclass(frozen=True)
class SysTask(Stmt):
    """System task invocation in statement position (``$display(...);``)."""

    name: str
    args: Tuple[Expr, ...] = ()
    pos: SourcePos = SourcePos()

    def __str__(self) -> str:
        if not self.args:
            return f"{self.name};"
        return f"{self.name}(" + ", ".join(str(a) for a in self.args) + ");"


@dataclass(frozen=True)
class NullStmt(Stmt):
    """An empty statement (lone ``;``)."""

    pos: SourcePos = SourcePos()


@dataclass(frozen=True)
class DelayStmt(Stmt):
    """``# delay stmt`` — parsed for testbench compatibility.

    The interpreter treats the delay as one simulation time unit per tick;
    the synthesis path rejects it.
    """

    delay: Expr
    stmt: Optional[Stmt]
    pos: SourcePos = SourcePos()


# ---------------------------------------------------------------------------
# Sensitivity lists / events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EventExpr(Node):
    """A single event in a sensitivity list.

    ``edge`` is ``"posedge"``, ``"negedge"`` or ``"any"``.  A wildcard
    ``@*`` / ``@(*)`` list is represented by :data:`STAR_SENSITIVITY`.
    """

    edge: str
    expr: Expr

    def __str__(self) -> str:
        if self.edge == "any":
            return str(self.expr)
        return f"{self.edge} {self.expr}"


STAR = "star"


# ---------------------------------------------------------------------------
# Module items
# ---------------------------------------------------------------------------


class Item(Node):
    """Base class for module-level items."""

    __slots__ = ()


@dataclass(frozen=True)
class Range(Node):
    """A packed range ``[msb:lsb]``; both bounds are constant expressions."""

    msb: Expr
    lsb: Expr

    def __str__(self) -> str:
        return f"[{self.msb}:{self.lsb}]"


@dataclass(frozen=True)
class Decl(Item):
    """Declaration of a net, variable, parameter, or port.

    ``kind`` is one of ``wire``, ``reg``, ``integer``, ``parameter``,
    ``localparam``, ``genvar``.  ``direction`` is ``input``/``output``/
    ``inout``/``None``.  ``unpacked`` holds memory dimensions.
    ``attributes`` carries ``(* ... *)`` annotations such as
    ``non_volatile``.
    """

    kind: str
    name: str
    range: Optional[Range] = None
    unpacked: Tuple[Range, ...] = ()
    init: Optional[Expr] = None
    direction: Optional[str] = None
    signed: bool = False
    attributes: Tuple[Tuple[str, Optional[Expr]], ...] = ()
    pos: SourcePos = SourcePos()

    def has_attribute(self, name: str) -> bool:
        return any(key == name for key, _ in self.attributes)


@dataclass(frozen=True)
class ContinuousAssign(Item):
    """A continuous assignment ``assign lhs = rhs;``."""

    lhs: Expr
    rhs: Expr
    pos: SourcePos = SourcePos()


@dataclass(frozen=True)
class Always(Item):
    """An ``always @(...) stmt`` block.

    ``sensitivity`` is a tuple of :class:`EventExpr`, or the string
    :data:`STAR` for ``@*``.
    """

    sensitivity: Union[Tuple[EventExpr, ...], str]
    stmt: Stmt
    pos: SourcePos = SourcePos()


@dataclass(frozen=True)
class Initial(Item):
    """An ``initial stmt`` block."""

    stmt: Stmt
    pos: SourcePos = SourcePos()


@dataclass(frozen=True)
class PortConn(Node):
    """A port connection in a module instantiation.

    ``name`` is ``None`` for positional connections.
    """

    name: Optional[str]
    expr: Optional[Expr]


@dataclass(frozen=True)
class Instance(Item):
    """A module instantiation."""

    module: str
    name: str
    params: Tuple[PortConn, ...] = ()
    ports: Tuple[PortConn, ...] = ()
    pos: SourcePos = SourcePos()


@dataclass(frozen=True)
class Module(Node):
    """A Verilog module definition.

    ``ports`` is the header port order (names); full port typing lives in
    the corresponding :class:`Decl` items.
    """

    name: str
    ports: Tuple[str, ...]
    items: Tuple[Item, ...]
    pos: SourcePos = SourcePos()

    def decls(self) -> List[Decl]:
        return [item for item in self.items if isinstance(item, Decl)]

    def decl(self, name: str) -> Optional[Decl]:
        for item in self.items:
            if isinstance(item, Decl) and item.name == name:
                return item
        return None

    def instances(self) -> List[Instance]:
        return [item for item in self.items if isinstance(item, Instance)]


@dataclass(frozen=True)
class SourceFile(Node):
    """A parsed source unit: an ordered collection of modules."""

    modules: Tuple[Module, ...]

    def module(self, name: str) -> Module:
        for mod in self.modules:
            if mod.name == name:
                return mod
        raise KeyError(f"no module named {name!r}")

    def module_names(self) -> List[str]:
        return [m.name for m in self.modules]


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------

_EXPR_CHILDREN = {
    Number: (),
    String: (),
    Identifier: (),
    Index: ("base", "index"),
    RangeSelect: ("base", "msb", "lsb"),
    Unary: ("operand",),
    Binary: ("left", "right"),
    Ternary: ("cond", "if_true", "if_false"),
}


def expr_children(expr: Expr) -> Sequence[Expr]:
    """Return the immediate sub-expressions of *expr*."""
    kind = type(expr)
    if kind in (Concat,):
        return expr.parts
    if kind is Repeat:
        return (expr.count, expr.value)
    if kind is SysCall:
        return expr.args
    names = _EXPR_CHILDREN.get(kind, ())
    return [getattr(expr, name) for name in names]


def walk_expr(expr: Expr):
    """Yield *expr* and every sub-expression, depth-first, pre-order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(list(expr_children(node))))


def stmt_children(stmt: Stmt) -> Sequence[Stmt]:
    """Return the immediate sub-statements of *stmt* (skipping ``None``)."""
    if isinstance(stmt, (Block, ForkJoin)):
        return stmt.stmts
    if isinstance(stmt, If):
        return [s for s in (stmt.then_stmt, stmt.else_stmt) if s is not None]
    if isinstance(stmt, Case):
        return [item.stmt for item in stmt.items if item.stmt is not None]
    if isinstance(stmt, (For, While, RepeatStmt, DelayStmt)):
        inner = stmt.body if not isinstance(stmt, DelayStmt) else stmt.stmt
        return [inner] if inner is not None else []
    return []


def walk_stmt(stmt: Stmt):
    """Yield *stmt* and every sub-statement, depth-first, pre-order."""
    stack = [stmt]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(list(stmt_children(node))))


def stmt_exprs(stmt: Stmt) -> Sequence[Expr]:
    """Return the expressions directly referenced by *stmt* (non-recursive
    over statements, recursive expression walking is the caller's job)."""
    if isinstance(stmt, Assign):
        return [stmt.lhs, stmt.rhs]
    if isinstance(stmt, If):
        return [stmt.cond]
    if isinstance(stmt, Case):
        exprs: List[Expr] = [stmt.expr]
        for item in stmt.items:
            exprs.extend(item.labels)
        return exprs
    if isinstance(stmt, For):
        return [stmt.init.lhs, stmt.init.rhs, stmt.cond, stmt.step.lhs, stmt.step.rhs]
    if isinstance(stmt, While):
        return [stmt.cond]
    if isinstance(stmt, RepeatStmt):
        return [stmt.count]
    if isinstance(stmt, SysTask):
        return list(stmt.args)
    if isinstance(stmt, DelayStmt):
        return [stmt.delay]
    return []
