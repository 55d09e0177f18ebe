"""Design elaboration: parameter resolution and hierarchy flattening.

Cascade's IR treats each module instance as a sub-program.  Our runtime
places engines at the granularity of *top-level instances*; each engine
receives a **flattened** module in which its instance subtree has been
inlined (children renamed ``inst$name``), so the interpreter and the
synthesis estimator never deal with hierarchy directly.

Flattening rules:

* parameters are resolved per instantiation (a module used with two
  different parameter bindings is specialized twice);
* child declarations are prefixed with ``<instance>$``;
* an ``input`` port connection becomes ``assign inst$port = <expr>;``
* an ``output`` port connection becomes ``assign <lvalue> = inst$port;``
* unconnected ports are left dangling (a warning-free no-op, as in most
  synthesis flows);
* ``inout`` ports are rejected — the paper's workloads do not use them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Mapping, Optional, Tuple

from . import ast_nodes as ast
from .fold import fold_expr
from .rewrite import map_expr, map_item_exprs, rename_item, substitute_expr
from .width import const_eval, const_number, const_value, mask, to_signed


class ElaborationError(Exception):
    """Raised when the design cannot be elaborated."""


HIER_SEP = "$"


def _resolve_params(
    module: ast.Module,
    overrides: Mapping[str, ast.Expr],
) -> Dict[str, ast.Number]:
    """Compute the full parameter binding for one instantiation.

    Each parameter is a literal (IEEE 1364-2005 §12.2): its initializer,
    or its override, with the earlier parameters substituted, valued by
    the one constant semantics (:func:`~repro.verilog.width.const_number`)
    at its own width and signedness.  Where a range is declared (an
    ``integer`` is ``[31:0]``, signed) the expression is valued as the
    right-hand side of an assignment to a reg of that range.
    """
    params: Dict[str, ast.Number] = {}
    for item in module.items:
        if isinstance(item, ast.Decl) and item.kind in ("parameter", "localparam"):
            if item.kind == "parameter" and item.name in overrides:
                expr = overrides[item.name]
            elif item.init is not None:
                expr = substitute_expr(item.init, params)
            else:
                raise ElaborationError(f"parameter {item.name} has no value")
            if item.range is None:
                value = const_number(expr)
            else:
                width = abs(const_eval(substitute_expr(item.range.msb, params))
                            - const_eval(substitute_expr(item.range.lsb, params))) + 1
                bits = const_value(expr, width)
                value = None if bits is None else ast.Number(mask(bits, width), width)
            if value is None:
                raise ElaborationError(f"parameter {item.name}: {expr!r} is not constant")
            params[item.name] = _integer(value, item.signed or value.signed)
    return params


def _integer(value: ast.Number, signed: bool) -> ast.Number:
    """*value* holding its integer reading where it is signed or unsized
    (an unsized parameter is an ``integer``, §12.2): two's complement,
    negative where the sign bit is set.  Every engine masks a literal to
    its context width, so a negative one extends its sign into a wider
    context, as the standard asks of a signed parameter."""
    if not signed and value.width is not None:
        return value
    width = 32 if value.width is None else value.width
    return replace(value, value=to_signed(mask(value.value, width), width), signed=signed)


def _instance_param_overrides(
    inst: ast.Instance,
    child: ast.Module,
    parent_params: Mapping[str, ast.Number],
) -> Dict[str, ast.Expr]:
    """The parameter overrides of *inst*, in the parent's scope: each
    expression with the parent's parameters substituted, valued by the
    child's :func:`_resolve_params` as its own initializer would be."""
    overrides: Dict[str, ast.Expr] = {}
    param_names = [
        item.name
        for item in child.items
        if isinstance(item, ast.Decl) and item.kind == "parameter"
    ]
    for position, conn in enumerate(inst.params):
        if conn.expr is None:
            continue
        if conn.name is None:
            if position >= len(param_names):
                raise ElaborationError(
                    f"{inst.name}: too many positional parameter overrides"
                )
            name = param_names[position]
        else:
            name = conn.name
        overrides[name] = substitute_expr(conn.expr, parent_params)
    return overrides


def _materialize_params(items: List[ast.Item],
                        params: Mapping[str, ast.Number]) -> List[ast.Item]:
    """Drop parameter declarations, substituting their literals."""
    out: List[ast.Item] = []
    for item in items:
        if isinstance(item, ast.Decl) and item.kind in ("parameter", "localparam"):
            continue
        out.append(_subst_item(item, params))
    return out


def _subst_item(item: ast.Item, mapping: Mapping[str, ast.Expr]) -> ast.Item:
    """Substitute identifiers with expressions across one item.

    Substituted literals are folded on the way up (width-safely — see
    :mod:`repro.verilog.fold`), so ``WIDTH-1``-style parameter
    arithmetic leaves elaboration as a single literal instead of a
    constant subtree every later stage re-walks.
    """

    def fn(node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.Identifier) and node.name in mapping:
            return mapping[node.name]
        return fold_expr(node)

    return map_item_exprs(item, lambda expr: map_expr(expr, fn))


def _port_bindings(
    inst: ast.Instance, child: ast.Module
) -> List[Tuple[str, Optional[ast.Expr]]]:
    """Pair child port names with the parent expressions they connect to."""
    bindings: List[Tuple[str, Optional[ast.Expr]]] = []
    named = any(conn.name is not None for conn in inst.ports)
    if named:
        if not all(conn.name is not None for conn in inst.ports):
            raise ElaborationError(
                f"{inst.name}: cannot mix named and positional connections"
            )
        port_set = set(child.ports)
        for conn in inst.ports:
            if conn.name not in port_set:
                raise ElaborationError(
                    f"{inst.name}: module {child.name} has no port {conn.name!r}"
                )
            bindings.append((conn.name, conn.expr))
    else:
        if len(inst.ports) > len(child.ports):
            raise ElaborationError(f"{inst.name}: too many port connections")
        for port_name, conn in zip(child.ports, inst.ports):
            bindings.append((port_name, conn.expr))
    return bindings


def flatten(
    source: ast.SourceFile,
    top: str,
    overrides: Optional[Mapping[str, ast.Expr]] = None,
    _depth: int = 0,
) -> ast.Module:
    """Flatten the hierarchy rooted at module *top* into a single module.

    Returns a new module with no :class:`Instance` items and no parameter
    declarations; all ranges and initializers are constant-folded against
    the resolved parameter values.
    """
    if _depth > 64:
        raise ElaborationError("instantiation depth exceeds 64 (recursive design?)")
    module = source.module(top)
    params = _resolve_params(module, overrides or {})
    items = _materialize_params(list(module.items), params)

    out_items: List[ast.Item] = []
    for item in items:
        if not isinstance(item, ast.Instance):
            out_items.append(item)
            continue
        try:
            child_def = source.module(item.module)
        except KeyError:
            raise ElaborationError(
                f"instance {item.name}: unknown module {item.module!r}"
            ) from None
        child_overrides = _instance_param_overrides(item, child_def, params)
        child_flat = flatten(source, item.module, child_overrides, _depth + 1)

        prefix = item.name + HIER_SEP
        mapping = {
            decl.name: prefix + decl.name
            for decl in child_flat.items
            if isinstance(decl, ast.Decl)
        }
        # Inline the child's items with renamed identifiers; ports lose
        # their direction (they are internal nets now).
        for child_item in child_flat.items:
            renamed = rename_item(child_item, mapping)
            if isinstance(renamed, ast.Decl) and renamed.direction is not None:
                renamed = ast.Decl(
                    renamed.kind, renamed.name, renamed.range, renamed.unpacked,
                    renamed.init, None, renamed.signed, renamed.attributes, renamed.pos,
                )
            out_items.append(renamed)
        # Bind ports.
        port_decls = {
            d.name: d for d in child_flat.items
            if isinstance(d, ast.Decl) and d.direction is not None
        }
        for port_name, parent_expr in _port_bindings(item, child_flat):
            if parent_expr is None:
                continue
            decl = port_decls.get(port_name)
            if decl is None:
                raise ElaborationError(
                    f"instance {item.name}: port {port_name!r} has no declaration"
                )
            inner = ast.Identifier(prefix + port_name)
            if decl.direction == "input":
                out_items.append(ast.ContinuousAssign(inner, parent_expr))
            elif decl.direction == "output":
                out_items.append(ast.ContinuousAssign(parent_expr, inner))
            else:
                raise ElaborationError(
                    f"instance {item.name}: inout ports are not supported"
                )
    return ast.Module(module.name, module.ports, tuple(out_items), module.pos)


def instance_tree(source: ast.SourceFile, top: str) -> Dict[str, str]:
    """Map hierarchical instance paths to module names (for reporting)."""
    tree: Dict[str, str] = {"": top}

    def visit(module_name: str, path: str) -> None:
        module = source.module(module_name)
        for inst in module.instances():
            child_path = f"{path}{HIER_SEP}{inst.name}" if path else inst.name
            tree[child_path] = inst.module
            visit(inst.module, child_path)

    visit(top, "")
    return tree
