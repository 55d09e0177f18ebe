"""Semantics-preserving mid-end passes.

Every pass takes a :class:`~repro.opt.ir.Design` and returns the
number of rewrites it performed (its reporting metric).  Legality
arguments lean on the deterministic schedule both simulation backends
implement — continuous assigns settle (in dependency-rank order)
before any procedural block runs — and on the conservative def/use
analysis in the IR.  The differential conformance oracle (interp vs
compiled-O0 vs compiled-O2 vs board vs lifecycle) is the enforcement
mechanism: a pass that breaks any of these arguments shows up as a
fuzz divergence, not as a silent wrong answer in production.

Shared restrictions (each pass re-checks what it needs):

* ports are externally driven/observed (the Cascade ABI ``set``/``get``
  data plane) — never propagated, forwarded, or eliminated;
* ``__``-prefixed names are transform/runtime bookkeeping (``__state``,
  ``__task``, query registers) — same treatment;
* registers, integers and memories are architectural state — the
  oracle compares them bit-for-bit and migration restores them by
  name — so they are always preserved;
* sensitivity lists are never rewritten: edge-trigger bookkeeping is
  keyed to the signals named there, and boot-time edges (a constant-1
  wire still produces one posedge during the initialization settle)
  must keep firing identically.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..verilog import ast_nodes as ast
from ..verilog.fold import fold_expr
from ..verilog.rewrite import collect_identifiers, map_expr
from .ir import Design, expr_pure, map_item_rvalues, map_stmt_rvalues


def _fold_in_item(item: ast.Item, counter: List[int]) -> ast.Item:
    def fn(expr: ast.Expr) -> ast.Expr:
        folded = fold_expr(expr)
        if folded is not expr:
            counter[0] += 1
        return folded

    if isinstance(item, ast.ContinuousAssign):
        return ast.ContinuousAssign(item.lhs, map_expr(item.rhs, fn), item.pos)
    if isinstance(item, ast.Always):
        return ast.Always(item.sensitivity,
                          map_stmt_rvalues(item.stmt, fn), item.pos)
    if isinstance(item, ast.Initial):
        return ast.Initial(map_stmt_rvalues(item.stmt, fn), item.pos)
    if isinstance(item, ast.Decl) and item.init is not None:
        return ast.Decl(item.kind, item.name, item.range, item.unpacked,
                        map_expr(item.init, fn), item.direction, item.signed,
                        item.attributes, item.pos)
    return item


def fold_constants(design: Design) -> int:
    """Collapse all-literal subtrees (width-safely; see verilog.fold)."""
    counter = [0]
    items = [_fold_in_item(item, counter) for item in design.items]
    if counter[0]:
        design.replace_items(items)
    return counter[0]


def _protected(name: str, design: Design) -> bool:
    return (name in design.ports or name.startswith("__")
            or name in design.keep)


def propagate_constants(design: Design) -> int:
    """Replace reads of constant-driven wires with their literal value.

    A wire qualifies when its *only* driver is a continuous assign (or
    declaration initializer) whose folded right-hand side is an
    unsigned literal, nothing writes it procedurally, and it is not a
    port or bookkeeping name.  The driver is kept — dead-code
    elimination removes it later if nothing observable still reads the
    wire — and sensitivity lists keep reading the wire so boot-time
    edge detection is untouched.
    """
    total = 0
    for _ in range(8):  # constants cascade through wire chains
        fold_constants(design)
        env = design.env
        drivers = design.drivers()
        proc_writers = design.procedural_writers()
        select_bases = _select_base_names(design)
        consts: Dict[str, ast.Number] = {}
        for name, idxs in drivers.items():
            if len(idxs) != 1 or _protected(name, design):
                continue
            if name in proc_writers or name in select_bases:
                # A literal cannot stand as a select base and keep the
                # output printable/parseable; skip such wires entirely.
                continue
            sig = env.signals.get(name)
            if sig is None or sig.kind != "wire" or sig.is_memory or sig.signed:
                continue
            item = design.items[idxs[0]]
            if isinstance(item, ast.ContinuousAssign):
                if not isinstance(item.lhs, ast.Identifier):
                    continue  # partial drivers (bit/range) are not constant
                rhs = item.rhs
            else:
                rhs = item.init
            if (isinstance(rhs, ast.Number) and not rhs.signed
                    and not rhs.xz_mask):
                value = rhs.value & ((1 << sig.width) - 1)
                consts[name] = ast.Number(value, sig.width)
        if not consts:
            break
        counter = [0]

        def fn(expr: ast.Expr) -> ast.Expr:
            if isinstance(expr, ast.Identifier) and expr.name in consts:
                counter[0] += 1
                return consts[expr.name]
            return expr

        items: List[ast.Item] = []
        for index, item in enumerate(design.items):
            if isinstance(item, ast.ContinuousAssign) and \
                    isinstance(item.lhs, ast.Identifier) and \
                    item.lhs.name in consts:
                items.append(item)  # keep the defining driver untouched
                continue
            if isinstance(item, ast.Decl) and item.name in consts:
                items.append(item)
                continue
            items.append(map_item_rvalues(item, fn))
        if not counter[0]:
            break
        design.replace_items(items)
        total += counter[0]
    fold_constants(design)
    return total


def _select_base_names(design: Design) -> Set[str]:
    """Names appearing as the base of any bit/range select."""
    out: Set[str] = set()

    def scan(expr: ast.Expr) -> None:
        for node in ast.walk_expr(expr):
            if isinstance(node, (ast.Index, ast.RangeSelect)) and \
                    isinstance(node.base, ast.Identifier):
                out.add(node.base.name)

    for item in design.items:
        if isinstance(item, ast.ContinuousAssign):
            scan(item.lhs)
            scan(item.rhs)
        elif isinstance(item, (ast.Always, ast.Initial)):
            if isinstance(item, ast.Always) and item.sensitivity != ast.STAR:
                for event in item.sensitivity:
                    scan(event.expr)
            for node in ast.walk_stmt(item.stmt):
                for expr in ast.stmt_exprs(node):
                    scan(expr)
        elif isinstance(item, ast.Decl) and item.init is not None:
            scan(item.init)
    return out


def forward_aliases(design: Design) -> int:
    """Continuous-assign inlining for the alias case: ``assign w = x``.

    Hierarchy flattening manufactures these port-binding wires in
    bulk; forwarding reads of ``w`` to ``x`` collapses the chains.
    Restrictions keep the rewrite schedule-invariant:

    * ``w`` has exactly one driver, no procedural writers, same width
      and signedness as ``x``, and is not a port/bookkeeping name;
    * sensitivity lists keep reading ``w`` (trigger timing);
    * a procedural body that blocking-writes ``x`` keeps reading ``w``
      — mid-block, ``w`` still holds the pre-write value until the
      assign re-settles, and forwarding would skip that staleness.
    """
    env = design.env
    drivers = design.drivers()
    proc_writers = design.procedural_writers()
    alias: Dict[str, str] = {}
    for name, idxs in drivers.items():
        if len(idxs) != 1 or _protected(name, design) or name in proc_writers:
            continue
        sig = env.signals.get(name)
        if sig is None or sig.kind != "wire" or sig.is_memory:
            continue
        item = design.items[idxs[0]]
        if not (isinstance(item, ast.ContinuousAssign)
                and isinstance(item.lhs, ast.Identifier)
                and isinstance(item.rhs, ast.Identifier)):
            continue
        src = env.signals.get(item.rhs.name)
        if src is None or src.is_memory:
            continue
        if src.width != sig.width or bool(src.signed) != bool(sig.signed):
            continue
        alias[name] = item.rhs.name

    if not alias:
        return 0

    def resolve(name: str) -> str:
        seen = {name}
        while name in alias and alias[name] not in seen:
            name = alias[name]
            seen.add(name)
        return name

    resolved = {name: resolve(name) for name in alias}
    resolved = {k: v for k, v in resolved.items() if v != k}
    counter = [0]

    def substituter(blocked: Set[str]):
        def fn(expr: ast.Expr) -> ast.Expr:
            if isinstance(expr, ast.Identifier):
                target = resolved.get(expr.name)
                if target is not None and target not in blocked \
                        and expr.name not in blocked:
                    counter[0] += 1
                    return ast.Identifier(target)
            return expr
        return fn

    items: List[ast.Item] = []
    by_index = {p.index: p for p in design.processes()}
    for index, item in enumerate(design.items):
        proc = by_index.get(index)
        if proc is None:
            items.append(item)
            continue
        if isinstance(item, ast.ContinuousAssign) and \
                isinstance(item.lhs, ast.Identifier) and \
                item.lhs.name in resolved:
            items.append(item)  # the alias definition itself stays
            continue
        # Forwarding inside a body that blocking-writes the source (or
        # the alias itself) would change mid-block staleness.
        blocked = proc.blocking
        items.append(map_item_rvalues(item, substituter(blocked)))
    if counter[0]:
        design.replace_items(items)
    return counter[0]


def fuse_always_blocks(design: Design) -> int:
    """Merge runs of consecutive edge-triggered blocks with identical
    sensitivity into one process.

    Legality: both blocks fire on exactly the same drains (identical
    sensitivity expressions share trigger values), and between two
    procedural activations the scheduler always settles continuous
    assigns first.  Fusion removes that intermediate settle, so it is
    blocked when a later body could observe it:

    * a later body reads a wire whose cone depends on an earlier
      body's blocking writes (it would see stale combinational state);
    * any member blocking-writes a signal in the (cone-closed)
      sensitivity support — re-trigger coalescing differs once the
      bodies share one queue slot;
    * a procedural process of a different shape sits between them —
      the shared FIFO would interleave it, so only adjacent runs fuse.
    """
    processes = design.processes()
    if len(processes) < 2:
        return 0
    cones = design.comb_sources()
    drivers = design.drivers()

    def cone_closure(names: Set[str]) -> Set[str]:
        out = set(names)
        for name in names:
            out |= cones.get(name, set())
        return out

    fused = 0
    out_items = list(design.items)
    removed: Set[int] = set()
    i = 0
    while i < len(processes):
        first = processes[i]
        if first.kind != "edge":
            i += 1
            continue
        group = [first]
        sens_support = cone_closure(
            {n for e in first.item.sensitivity
             for n in _event_reads(e)})
        cum_blocking = set(first.blocking)
        j = i + 1
        while j < len(processes):
            cand = processes[j]
            if cand.kind in ("star", "initial"):
                break
            if cand.kind == "assign":
                j += 1
                continue
            if cand.sens_key != first.sens_key:
                break
            if cum_blocking & sens_support or cand.blocking & sens_support:
                break
            # Would the candidate read combinational state the earlier
            # bodies invalidated?
            hazard = False
            for name in cand.reads:
                # Stale cone (inputs overwritten), or a driven wire the
                # earlier bodies blocking-wrote directly (its driver
                # would have re-settled over the write before the
                # candidate ran unfused).
                srcs = cones.get(name, ())
                if (srcs and srcs & cum_blocking) or \
                        (name in drivers and name in cum_blocking):
                    hazard = True
                    break
            if hazard:
                break
            group.append(cand)
            cum_blocking |= cand.blocking
            j += 1
        if len(group) > 1:
            body = ast.Block(tuple(p.item.stmt for p in group))
            out_items[first.index] = ast.Always(first.item.sensitivity, body,
                                                first.item.pos)
            for proc in group[1:]:
                removed.add(proc.index)
            fused += len(group) - 1
            i = j
        else:
            i += 1
    if fused:
        design.replace_items(
            [item for k, item in enumerate(out_items) if k not in removed])
    return fused


def _event_reads(event: ast.EventExpr) -> Set[str]:
    return collect_identifiers(event.expr)


def eliminate_dead(design: Design) -> Tuple[int, int]:
    """Dead-signal / dead-process elimination.

    Roots: ports, ``__`` bookkeeping, all architectural state
    (registers, integers, memories — the oracle compares them and
    migration restores them by name), and every *source-named* wire.
    Only hierarchy-generated nets (``inst$port`` and friends, the
    flattening residue carrying a ``$``) are eligible for removal:
    hand-written names stay part of the engine's ``get``/snapshot
    surface — the debugger's view — even when nothing inside the
    module reads them.  A process is live when it has side effects or
    writes a live signal; signals read by live processes become live;
    iterate to fixpoint.  What remains — dangling port-binding wires
    and cones feeding nothing observable — is dropped.

    Returns ``(processes_removed, signals_removed)``.
    """
    env = design.env
    processes = design.processes()
    live: Set[str] = set(design.ports) | set(design.keep)
    for name, sig in env.signals.items():
        if sig.is_state or name.startswith("__") or "$" not in name:
            live.add(name)
    live_procs: Set[int] = set()
    changed = True
    while changed:
        changed = False
        for proc in processes:
            if proc.index in live_procs:
                continue
            if not proc.pure or (proc.writes & live) or \
                    any(_protected(w, design) for w in proc.writes):
                live_procs.add(proc.index)
                # A kept process needs its reads *and* its write
                # targets declared — an impure assign survives on its
                # side effects even when its target is otherwise dead.
                live |= proc.reads
                live |= proc.writes
                changed = True
    dead_proc_idxs = {p.index for p in processes if p.index not in live_procs}
    # A wire declaration survives if it is live, a port, protected, or
    # anything still reads/writes it after process removal.
    items: List[ast.Item] = []
    removed_procs = 0
    removed_sigs = 0
    for index, item in enumerate(design.items):
        if index in dead_proc_idxs:
            if isinstance(item, ast.Decl):
                # wire-with-init acting as its own driver: drop only
                # the initializer's process role with the decl when
                # the signal itself is dead; else keep the whole decl.
                if item.name in live or _protected(item.name, design):
                    items.append(item)
                    continue
                removed_sigs += 1
                removed_procs += 1
                continue
            removed_procs += 1
            continue
        if isinstance(item, ast.Decl) and item.kind == "wire" \
                and item.init is None:
            if item.name not in live and not _protected(item.name, design):
                removed_sigs += 1
                continue
        items.append(item)
    if removed_procs or removed_sigs:
        design.replace_items(items, decls_changed=True)
    return removed_procs, removed_sigs


def _flat_stmts(stmt: ast.Stmt) -> List[ast.Stmt]:
    # Block fusion nests the merged bodies; a Block of Ifs is still
    # all-Ifs, so flatten the block structure before judging.
    if isinstance(stmt, ast.Block):
        out: List[ast.Stmt] = []
        for s in stmt.stmts:
            out.extend(_flat_stmts(s))
        return out
    return [stmt]


def detect_clock_gates(design: Design) -> int:
    """Tabulate enable-guarded clocked blocks for early-out dispatch.

    A clocked ``always`` whose body is nothing but top-level
    ``if (en) ... ;`` statements (no ``else`` arms) is a gated
    register bank: when every enable is low the activation writes
    nothing, prints nothing, and schedules nothing, so an event-driven
    scheduler may skip the whole block.  The gate recorded per item is
    the OR of the enables.

    Legality: every enable must be pure (re-evaluating it at dispatch
    time is unobservable), and a false gate means *no* body statement
    runs — so no write can occur between the enable evaluations, and
    evaluating them together at dispatch reads exactly the state each
    would have seen in place.  Blocks with any non-``if`` top-level
    statement, any ``else`` arm, or any impure condition are left
    ungated — the scheduler then always runs them, which is the
    behaviour-preserving default the differential oracle enforces.

    The table lives on ``design.clock_gates`` keyed by item index
    (``to_module`` preserves item order 1:1); the pipeline's schedule
    re-keys it by process (``Schedule.gates``) for the backend.

    Returns the number of gated blocks found.
    """
    design.clock_gates = {}
    found = 0
    for index, item in enumerate(design.items):
        if not isinstance(item, ast.Always) or item.sensitivity == ast.STAR:
            continue
        stmts = _flat_stmts(item.stmt)
        if not stmts:
            continue
        enables: List[ast.Expr] = []
        gated = True
        for s in stmts:
            if (isinstance(s, ast.If) and s.else_stmt is None
                    and expr_pure(s.cond)):
                enables.append(s.cond)
            else:
                gated = False
                break
        if not gated:
            continue
        gate = enables[0]
        for en in enables[1:]:
            gate = ast.Binary("||", gate, en)
        design.clock_gates[index] = gate
        found += 1
    return found
