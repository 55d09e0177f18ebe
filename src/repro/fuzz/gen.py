"""Seeded random-Verilog program generator.

Emits well-typed, synthesizable modules over the AST in
:mod:`repro.verilog.ast_nodes`: mixed blocking/non-blocking
assignments, multi-width arithmetic, ``case``/``if`` control, counters,
memories, and ``$display``/``$finish`` system tasks.  Production
choices are biased by a small :class:`GrammarWeights` config.

Every generated program is *equivalence-safe by construction* — it
stays inside the subset where all execution paths (interpreter,
compiled backend, transformed module on the board, lifecycle schedules)
are specified to agree:

* sequential logic is ``@(posedge clock)`` only, and each register is
  owned (written) by exactly one block;
* blocking assignments inside sequential blocks target block-local
  temporaries that never feed combinational logic — the state-machine
  transform settles ``@*`` blocks between native cycles, so a blocking
  write into a combinational cone would expose scheduling differences
  that the LRM calls nondeterminism, not bugs.  The compiled backend
  checks this rule rather than trusting it: its cone licence
  (``CompiledModuleCode._license_cones``, clause 3a) ranks an ``@*``
  block with the assigns only where no blocking write in a sequential
  block reaches its fan-in, so every generated ``@*`` block is
  licensed;
* combinational logic (continuous assigns and ``@*`` registers) forms
  a single-driver DAG, so its fixpoint is unique regardless of
  activation order;
* ``$write``/``$time``/``$random`` are excluded.  ``$random``'s PRNG
  state lives in the ``TaskHost``, which a migration context does not
  carry.  ``$write`` and ``$time`` do travel (``Context.write_buffer``,
  ``Context.time``); they stay out only so seeds 0-399 and the front-end
  golden keep their programs, and ``tests/corpus/write_across_moves.v``
  and ``time_across_moves.v`` put them through every path.

Everything is derived from one ``random.Random(seed)``, so a seed
fully reproduces a program (and its suggested tick count).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..verilog import ast_nodes as ast
from ..verilog.printer import print_module

#: Packed-width palette: mixes sub-byte, byte, odd, word and wide widths.
WIDTHS = (1, 2, 3, 4, 7, 8, 12, 16, 24, 32, 48, 64)

_CONTEXT_OPS = ("+", "-", "*", "&", "|", "^")
_RARE_OPS = ("/", "%")
_CMP_OPS = ("==", "!=", "<", ">", "<=", ">=")
_LOGIC_OPS = ("&&", "||")
_UNARY_OPS = ("~", "-", "!", "&", "|", "^")
_FMT_CONVS = ("%0d", "%d", "%h", "%b")


@dataclass(frozen=True)
class GrammarWeights:
    """Production biases and size bounds for the generator.

    Weights are relative within each choice point; bounds are inclusive
    ``(lo, hi)`` ranges drawn uniformly.
    """

    # -- module shape ------------------------------------------------------
    seq_blocks: Tuple[int, int] = (1, 3)
    seq_regs: Tuple[int, int] = (2, 5)
    temps_per_block: Tuple[int, int] = (0, 2)
    comb_regs: Tuple[int, int] = (0, 2)
    wires: Tuple[int, int] = (1, 3)
    stmts_per_block: Tuple[int, int] = (2, 5)
    ticks: Tuple[int, int] = (8, 40)
    memory_prob: float = 0.35
    memory_depth_log2: Tuple[int, int] = (2, 5)
    initial_prob: float = 0.6
    finish_prob: float = 0.5

    # -- statement weights (sequential blocks) -----------------------------
    w_nba: float = 6.0
    w_blocking: float = 2.0
    w_if: float = 3.0
    w_case: float = 1.5
    w_display: float = 1.4
    w_mem_write: float = 1.5
    w_for: float = 0.6
    max_stmt_depth: int = 3

    # -- expression weights ------------------------------------------------
    w_ident: float = 6.0
    w_number: float = 3.0
    w_binary: float = 5.0
    w_unary: float = 1.5
    w_ternary: float = 1.2
    w_concat: float = 0.8
    w_repeat: float = 0.4
    w_select: float = 1.2
    w_shift: float = 1.0
    w_mem_read: float = 1.0
    max_expr_depth: int = 3


@dataclass
class _Sig:
    name: str
    width: int


def _integer_decl(name: str) -> ast.Decl:
    """An ``integer`` declaration, desugared the way the parser does."""
    return ast.Decl("integer", name,
                    ast.Range(ast.Number(31), ast.Number(0)), signed=True)


@dataclass
class _Memory:
    name: str
    width: int
    depth: int  # power of two

    @property
    def addr_mask(self) -> int:
        return self.depth - 1


@dataclass
class GeneratedProgram:
    """One generated module plus the campaign metadata to replay it."""

    seed: int
    module: ast.Module
    ticks: int
    weights: GrammarWeights = field(default_factory=GrammarWeights)

    @property
    def source(self) -> str:
        return print_module(self.module)


class ModuleGenerator:
    """Builds one random module from a seed and a weight config."""

    def __init__(self, seed: int, weights: Optional[GrammarWeights] = None):
        self.seed = seed
        self.w = weights if weights is not None else GrammarWeights()
        self.rng = random.Random(seed)
        self._uid = 0

    # -- small helpers -----------------------------------------------------

    def _range(self, bounds: Tuple[int, int]) -> int:
        return self.rng.randint(bounds[0], bounds[1])

    def _choice_weighted(self, options: Sequence[Tuple[float, object]]):
        # Hand-rolled rather than rng.choices(): seeded campaigns must
        # generate byte-identical programs on every Python version, and
        # stdlib sampling internals are not part of that contract.
        total = sum(weight for weight, _ in options)
        x = self.rng.random() * total
        for weight, value in options:
            x -= weight
            if x <= 0:
                return value
        return options[-1][1]

    def _width(self) -> int:
        return self.rng.choice(WIDTHS)

    def _number(self, width: int) -> ast.Number:
        value = self.rng.getrandbits(min(width, 32))
        return ast.Number(value, width)

    # -- expressions -------------------------------------------------------

    def _leaf(self, pool: Sequence[_Sig], width_hint: int) -> ast.Expr:
        if pool and self.rng.random() < 0.7:
            sig = self.rng.choice(list(pool))
            return ast.Identifier(sig.name)
        return self._number(width_hint)

    def _expr(self, pool: Sequence[_Sig], depth: int,
              width_hint: int = 32,
              mem: Optional[_Memory] = None) -> ast.Expr:
        w = self.w
        if depth <= 0 or not pool:
            return self._leaf(pool, width_hint)
        options: List[Tuple[float, str]] = [
            (w.w_ident, "ident"), (w.w_number, "number"),
            (w.w_binary, "binary"), (w.w_unary, "unary"),
            (w.w_ternary, "ternary"), (w.w_concat, "concat"),
            (w.w_repeat, "repeat"), (w.w_select, "select"),
            (w.w_shift, "shift"),
        ]
        if mem is not None:
            options.append((w.w_mem_read, "mem_read"))
        kind = self._choice_weighted(options)
        sub = depth - 1
        if kind == "ident":
            return self._leaf(pool, width_hint)
        if kind == "number":
            return self._number(width_hint)
        if kind == "binary":
            group = self._choice_weighted(
                [(6.0, _CONTEXT_OPS), (1.0, _RARE_OPS),
                 (2.0, _CMP_OPS), (1.0, _LOGIC_OPS)]
            )
            op = self.rng.choice(group)
            return ast.Binary(op, self._expr(pool, sub, width_hint, mem),
                              self._expr(pool, sub, width_hint, mem))
        if kind == "unary":
            op = self.rng.choice(_UNARY_OPS)
            return ast.Unary(op, self._expr(pool, sub, width_hint, mem))
        if kind == "ternary":
            return ast.Ternary(self._expr(pool, sub, 1, mem),
                               self._expr(pool, sub, width_hint, mem),
                               self._expr(pool, sub, width_hint, mem))
        if kind == "concat":
            parts = tuple(self._expr(pool, sub, width_hint, mem)
                          for _ in range(self.rng.randint(2, 3)))
            return ast.Concat(parts)
        if kind == "repeat":
            return ast.Repeat(ast.Number(self.rng.randint(1, 3)),
                              self._expr(pool, sub, width_hint, mem))
        if kind == "select":
            sig = self.rng.choice(list(pool))
            if sig.width > 1 and self.rng.random() < 0.5:
                msb = self.rng.randrange(sig.width)
                lsb = self.rng.randrange(msb + 1)
                return ast.RangeSelect(ast.Identifier(sig.name),
                                       ast.Number(msb), ast.Number(lsb))
            return ast.Index(ast.Identifier(sig.name),
                             self._expr(pool, 0, 8, mem))
        if kind == "shift":
            op = self.rng.choice(("<<", ">>"))
            amount: ast.Expr = ast.Number(self.rng.randint(0, 15))
            if pool and self.rng.random() < 0.4:
                # Bounded data-dependent shift: `(sig & 15)`.
                sig = self.rng.choice(list(pool))
                amount = ast.Binary("&", ast.Identifier(sig.name),
                                    ast.Number(15))
            return ast.Binary(op, self._expr(pool, sub, width_hint, mem),
                              amount)
        # mem_read
        assert mem is not None
        addr = ast.Binary("&", self._expr(pool, 0, 8),
                          ast.Number(mem.addr_mask))
        return ast.Index(ast.Identifier(mem.name), addr)

    # -- statements --------------------------------------------------------

    def _display(self, pool: Sequence[_Sig], tag: str,
                 mem: Optional[_Memory]) -> ast.SysTask:
        n_args = self.rng.randint(0, 3)
        if n_args == 0:
            return ast.SysTask("$display", (ast.String(tag),))
        convs = [self.rng.choice(_FMT_CONVS) for _ in range(n_args)]
        fmt = tag + " " + " ".join(convs)
        args: List[ast.Expr] = [ast.String(fmt)]
        for _ in range(n_args):
            args.append(self._expr(pool, 1, 32, mem))
        return ast.SysTask("$display", tuple(args))

    def _seq_stmt(self, ctx: "_SeqContext", depth: int) -> ast.Stmt:
        w = self.w
        options: List[Tuple[float, str]] = [(w.w_nba, "nba"),
                                            (w.w_display, "display")]
        if ctx.temps:
            options.append((w.w_blocking, "blocking"))
        if ctx.mem is not None and ctx.owns_mem and ctx.mem_nba_open():
            # Looped memory NBAs are legal since the transform gave
            # indexed sites pending-update queues (see
            # tests/corpus/loop_nba_memory.v, formerly an xfail), and
            # multiple sites colliding on one memory are legal since
            # the update state merge-drains stamped sites in execution
            # order rather than site order.
            options.append((w.w_mem_write, "mem_write"))
        if depth > 0:
            options += [(w.w_if, "if"), (w.w_case, "case"), (w.w_for, "for")]
        kind = self._choice_weighted(options)
        pool, mem = ctx.read_pool, ctx.mem
        if kind == "nba":
            target = self.rng.choice(ctx.owned)
            return ast.Assign(ast.Identifier(target.name),
                              self._expr(pool, self.w.max_expr_depth,
                                         target.width, mem),
                              blocking=False)
        if kind == "blocking":
            target = self.rng.choice(ctx.temps)
            return ast.Assign(ast.Identifier(target.name),
                              self._expr(pool, self.w.max_expr_depth,
                                         target.width, mem),
                              blocking=True)
        if kind == "display":
            self._uid += 1
            return self._display(pool, f"b{ctx.block_id}s{self._uid}", mem)
        if kind == "mem_write":
            assert mem is not None
            if ctx.mem_nba_budget is not None:
                ctx.mem_nba_budget[0] -= 1
            addr = ast.Binary("&", self._expr(pool, 1, 8),
                              ast.Number(mem.addr_mask))
            return ast.Assign(ast.Index(ast.Identifier(mem.name), addr),
                              self._expr(pool, 2, mem.width, mem),
                              blocking=False)
        if kind == "if":
            cond = self._expr(pool, 2, 1, mem)
            then_stmt = self._seq_block_body(ctx, depth - 1,
                                             self.rng.randint(1, 3))
            else_stmt = None
            if self.rng.random() < 0.5:
                else_stmt = self._seq_block_body(ctx, depth - 1,
                                                 self.rng.randint(1, 2))
            return ast.If(cond, then_stmt, else_stmt)
        if kind == "case":
            subject = self.rng.choice(list(pool))
            label_width = min(subject.width, 6)
            n_arms = self.rng.randint(2, 3)
            values = self.rng.sample(range(1 << label_width),
                                     min(n_arms, 1 << label_width))
            items = []
            for value in values:
                items.append(ast.CaseItem(
                    (ast.Number(value, subject.width),),
                    self._seq_block_body(ctx, depth - 1, 1),
                ))
            items.append(ast.CaseItem(
                (), self._seq_block_body(ctx, depth - 1, 1)))
            return ast.Case(ast.Identifier(subject.name), tuple(items))
        # for: a small constant-bound loop over a dedicated index reg.
        self._uid += 1
        var = f"i{ctx.block_id}_{self._uid}"
        ctx.decls.append(_integer_decl(var))
        bound = self.rng.randint(2, 4)
        body = self._seq_block_body(
            self._loop_ctx(ctx, (_Sig(var, 32),)), 0,
            self.rng.randint(1, 2),
        )
        ident = ast.Identifier(var)
        return ast.For(
            ast.Assign(ident, ast.Number(0), blocking=True),
            ast.Binary("<", ident, ast.Number(bound)),
            ast.Assign(ident, ast.Binary("+", ident, ast.Number(1)),
                       blocking=True),
            body,
        )

    def _loop_ctx(self, ctx: "_SeqContext",
                  extra: Tuple[_Sig, ...]) -> "_SeqContext":
        clone = ctx.with_pool(ctx.read_pool + list(extra))
        clone.in_loop = True
        # Up to two memory-NBA sites per loop body (shared across the
        # body's statements): colliding sites exercise the stamped
        # merge-drain, which replays them in execution order.
        clone.mem_nba_budget = [2]
        return clone

    def _seq_block_body(self, ctx: "_SeqContext", depth: int,
                        n_stmts: int) -> ast.Stmt:
        stmts = tuple(self._seq_stmt(ctx, depth) for _ in range(n_stmts))
        if len(stmts) == 1:
            return stmts[0]
        return ast.Block(stmts)

    # -- combinational producers -------------------------------------------

    def _comb_expr(self, pool: Sequence[_Sig], width: int,
                   mem: Optional[_Memory]) -> ast.Expr:
        return self._expr(pool, self.w.max_expr_depth, width, mem)

    def _comb_always(self, target: _Sig, pool: Sequence[_Sig],
                     mem: Optional[_Memory]) -> ast.Always:
        """One ``always @(*)`` block driving exactly one register."""
        lhs = ast.Identifier(target.name)
        shape = self._choice_weighted([(3.0, "assign"), (2.0, "if"),
                                       (1.0, "case")])
        if shape == "assign" or not pool:
            stmt: ast.Stmt = ast.Assign(
                lhs, self._comb_expr(pool, target.width, mem), blocking=True)
        elif shape == "if":
            stmt = ast.If(
                self._expr(pool, 2, 1, mem),
                ast.Assign(lhs, self._comb_expr(pool, target.width, mem),
                           blocking=True),
                ast.Assign(lhs, self._comb_expr(pool, target.width, mem),
                           blocking=True),
            )
        else:
            subject = self.rng.choice(list(pool))
            items = []
            for value in range(self.rng.randint(1, 2)):
                items.append(ast.CaseItem(
                    (ast.Number(value, subject.width),),
                    ast.Assign(lhs, self._comb_expr(pool, target.width, mem),
                               blocking=True),
                ))
            items.append(ast.CaseItem((), ast.Assign(
                lhs, self._comb_expr(pool, target.width, mem),
                blocking=True)))
            stmt = ast.Case(ast.Identifier(subject.name), tuple(items))
        return ast.Always(ast.STAR, stmt)

    # -- the module --------------------------------------------------------

    def generate(self) -> GeneratedProgram:
        rng, w = self.rng, self.w
        ticks = self._range(w.ticks)
        items: List[ast.Item] = [
            ast.Decl("wire", "clock", direction="input"),
        ]

        # Architectural registers, partitioned among sequential blocks.
        n_blocks = self._range(w.seq_blocks)
        seq_regs = [_Sig(f"r{i}", self._width())
                    for i in range(max(n_blocks, self._range(w.seq_regs)))]
        # cyc always counts up from 0 — the $finish deadline below
        # compares against it, and a random initializer would park the
        # deadline out of reach of any bounded run.
        cyc = _Sig("cyc", 16)
        items.append(ast.Decl(
            "reg", cyc.name, ast.Range(ast.Number(15), ast.Number(0)),
            init=ast.Number(0, 16),
        ))
        for sig in seq_regs:
            init = self._number(sig.width) if rng.random() < 0.7 else None
            items.append(ast.Decl(
                "reg", sig.name,
                ast.Range(ast.Number(sig.width - 1), ast.Number(0))
                if sig.width > 1 else None,
                init=init,
            ))

        mem: Optional[_Memory] = None
        if rng.random() < w.memory_prob:
            depth = 1 << self._range(w.memory_depth_log2)
            mem = _Memory("mem", self.rng.choice((4, 8, 16, 32)), depth)
            items.append(ast.Decl(
                "reg", mem.name,
                ast.Range(ast.Number(mem.width - 1), ast.Number(0)),
                unpacked=(ast.Range(ast.Number(0), ast.Number(depth - 1)),),
            ))

        # Combinational DAG: wires and @*-driven regs in rank order; each
        # producer reads registers and strictly lower-ranked comb signals.
        comb_sigs: List[_Sig] = []
        comb_items: List[ast.Item] = []
        n_wires, n_cregs = self._range(w.wires), self._range(w.comb_regs)
        plan = ["wire"] * n_wires + ["creg"] * n_cregs
        rng.shuffle(plan)
        for rank, kind in enumerate(plan):
            width = self._width()
            pool = seq_regs + [cyc] + comb_sigs
            if kind == "wire":
                sig = _Sig(f"w{rank}", width)
                items.append(ast.Decl(
                    "wire", sig.name,
                    ast.Range(ast.Number(width - 1), ast.Number(0))
                    if width > 1 else None,
                ))
                comb_items.append(ast.ContinuousAssign(
                    ast.Identifier(sig.name),
                    self._comb_expr(pool, width, mem)))
            else:
                sig = _Sig(f"c{rank}", width)
                items.append(ast.Decl(
                    "reg", sig.name,
                    ast.Range(ast.Number(width - 1), ast.Number(0))
                    if width > 1 else None,
                ))
                comb_items.append(self._comb_always(sig, pool, mem))
            comb_sigs.append(sig)

        # Sequential blocks.  Every register (and the memory) has exactly
        # one owner block; blocking targets are block-local temporaries
        # that feed no combinational logic.
        owners: List[List[_Sig]] = [[] for _ in range(n_blocks)]
        for i, sig in enumerate(seq_regs):
            owners[i % n_blocks].append(sig)
        mem_owner = rng.randrange(n_blocks) if mem is not None else -1
        read_pool = [cyc] + seq_regs + comb_sigs
        seq_items: List[ast.Item] = []
        decls_extra: List[ast.Item] = []
        for block_id in range(n_blocks):
            temps = []
            for j in range(self._range(w.temps_per_block)):
                temp = _Sig(f"t{block_id}_{j}", self._width())
                temps.append(temp)
                decls_extra.append(ast.Decl(
                    "reg", temp.name,
                    ast.Range(ast.Number(temp.width - 1), ast.Number(0))
                    if temp.width > 1 else None,
                ))
            ctx = _SeqContext(
                block_id=block_id,
                owned=owners[block_id],
                temps=temps,
                read_pool=read_pool + temps,
                mem=mem,
                owns_mem=(block_id == mem_owner),
                decls=decls_extra,
            )
            stmts: List[ast.Stmt] = []
            if block_id == 0:
                stmts.append(ast.Assign(
                    ast.Identifier(cyc.name),
                    ast.Binary("+", ast.Identifier(cyc.name), ast.Number(1)),
                    blocking=False,
                ))
                if rng.random() < w.finish_prob:
                    deadline = rng.randint(2, ticks + ticks // 2 + 2)
                    stmts.append(ast.If(
                        ast.Binary("==", ast.Identifier(cyc.name),
                                   ast.Number(deadline, 16)),
                        ast.Block((
                            ast.SysTask("$display", (
                                ast.String("finish @%0d"),
                                ast.Identifier(cyc.name))),
                            ast.SysTask("$finish"),
                        )),
                        None,
                    ))
            for _ in range(self._range(w.stmts_per_block)):
                stmts.append(self._seq_stmt(ctx, w.max_stmt_depth))
            seq_items.append(ast.Always(
                (ast.EventExpr("posedge", ast.Identifier("clock")),),
                ast.Block(tuple(stmts)),
            ))

        # Optional initial block: architectural presets, memory fill,
        # and boot output — executed in software before any handoff.
        init_items: List[ast.Item] = []
        if rng.random() < w.initial_prob:
            boot: List[ast.Stmt] = []
            for sig in rng.sample(seq_regs, rng.randint(0, len(seq_regs))):
                boot.append(ast.Assign(ast.Identifier(sig.name),
                                       self._number(sig.width),
                                       blocking=True))
            if mem is not None and rng.random() < 0.7:
                var = "i_init"
                decls_extra.append(_integer_decl(var))
                ident = ast.Identifier(var)
                boot.append(ast.For(
                    ast.Assign(ident, ast.Number(0), blocking=True),
                    ast.Binary("<", ident, ast.Number(mem.depth)),
                    ast.Assign(ident, ast.Binary("+", ident, ast.Number(1)),
                               blocking=True),
                    ast.Assign(
                        ast.Index(ast.Identifier(mem.name), ident),
                        ast.Binary("&",
                                   ast.Binary("*", ident,
                                              self._number(mem.width)),
                                   ast.Number((1 << mem.width) - 1)),
                        blocking=True),
                ))
            if rng.random() < 0.5:
                boot.append(ast.SysTask("$display", (ast.String("boot"),)))
            if boot:
                init_items.append(ast.Initial(ast.Block(tuple(boot))))

        module = ast.Module(
            name=f"fz{self.seed}",
            ports=("clock",),
            items=tuple(items + decls_extra + comb_items
                        + init_items + seq_items),
        )
        return GeneratedProgram(self.seed, module, ticks, w)


@dataclass
class _SeqContext:
    """What one sequential block may read and write."""

    block_id: int
    owned: List[_Sig]
    temps: List[_Sig]
    read_pool: List[_Sig]
    mem: Optional[_Memory]
    owns_mem: bool
    decls: List[ast.Item]
    in_loop: bool = False
    #: shared [remaining] memory-NBA sites for the current loop body;
    #: None outside loops (each site then executes at most once/tick)
    mem_nba_budget: Optional[List[int]] = None

    def mem_nba_open(self) -> bool:
        return self.mem_nba_budget is None or self.mem_nba_budget[0] > 0

    def with_pool(self, pool: List[_Sig]) -> "_SeqContext":
        return _SeqContext(self.block_id, self.owned, self.temps, pool,
                           self.mem, self.owns_mem, self.decls, self.in_loop,
                           self.mem_nba_budget)


def generate(seed: int,
             weights: Optional[GrammarWeights] = None) -> GeneratedProgram:
    """Generate the program for *seed* (convenience wrapper)."""
    return ModuleGenerator(seed, weights).generate()
