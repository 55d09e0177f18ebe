"""Rotations lower as one shifted doubled word — checked against the oracles.

``{b[k-1:0], b[W-1:k]}`` at context width ``W`` is ``b`` rotated right
by ``k``.  The scalar emitter spells it ``(D >> k)`` over the doubled
word ``D = b * (2^W + 1)``, and a ``^``/``|``/``&`` chain whose members
are such shifts takes one mask at its root
(``ExprCompiler._rotation``/``_bitwise``).  Inside a procedural
assignment ``D`` is bound once per statement through the hoist sink;
everywhere else (conditions, continuous assigns) it is inline.

Every module below runs three ways, as in ``test_counted_loops.py``:
the reference interpreter, the compiled backend at ``-O0`` and at
``-O2``.  Architectural state and ``stmts_executed`` must be identical
on all three, ``ops_evaluated`` between the two compiled levels (the
compiled backend counts right-hand-side nodes only).

No fuzz seed (0-399) and no corpus file spells a rotation; bitcoin's
SHA-256 is the only one in the tree, so this file is where the oracle
sees the idiom at other widths, bases and contexts.

Mutation checks (run by hand when ``_rotation``/``_bitwise`` change;
each must turn this file red):

* drop the root mask of a dirty chain (``return src`` whatever
  ``clean`` says, in ``_ex_binary``) — every rotation leaks bits;
* call ``|`` clean when either side is, like ``&``;
* drop the ``low != k`` test — the gapped look-alike lowers as a
  rotation;
* drop the ``width_of(base) != w`` test — a memory word wider than
  its concat lowers as a rotation and reads the bits above it.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.interp import CompiledSimulator, InterpSimulator, TaskHost
from repro.interp.compile import CompiledModuleCode
from repro.verilog import flatten, parse


def _rot(base, k, width):
    return f"{{{base}[{k - 1}:0], {base}[{width - 1}:{k}]}}"


def _flat(width, body, words=(1, 2, 3, 4), x=5, y=6):
    top = width - 1
    text = f"""
    module r(input wire clock);
      integer i;
      reg [1:0] sel = 0;
      reg [{top}:0] x = {width}'d{x}, y = {width}'d{y}, acc = 0, acc2 = 0;
      reg [{top}:0] m [0:3];
      reg [{width + 5}:0] wide = 0;
      reg [{width + 5}:0] wm [0:1];
      reg [{max(width - 2, 0)}:0] narrow = 0;
      initial begin
        {" ".join(f"m[{n}] = {width}'d{w};" for n, w in enumerate(words))}
      end
      always @(posedge clock) begin
        sel <= sel + 1;
        {body}
      end
    endmodule
    """
    source = parse(text)
    return flatten(source, source.modules[-1].name)


def _agree(flat, ticks=4):
    """Run *flat* three ways; return the (-O0, -O2) simulators."""
    interp = InterpSimulator(flat, TaskHost())
    compiled = [CompiledSimulator(flat, TaskHost(), code=CompiledModuleCode(
        flat, opt_level=level)) for level in (0, 2)]
    for sim in [interp] + compiled:
        sim.tick(cycles=ticks)
    o0, o2 = compiled
    assert o0.store.snapshot() == interp.store.snapshot()
    assert o2.store.snapshot() == interp.store.snapshot()
    assert o0.stmts_executed == o2.stmts_executed == interp.stmts_executed
    assert o0.evaluator.ops_evaluated == o2.evaluator.ops_evaluated
    return o0, o2


def _body(width, k, k2):
    r = lambda base, amount=k: _rot(base, amount, width)  # noqa: E731
    one = f"{width}'d1"
    return f"""
        // a signal, one doubled word shared by two amounts, a clean leaf
        acc = {r("x")} ^ (x >> 3) ^ {r("x", k2)};
        // a memory word; a literal and ~y are clean, so & needs no mask
        acc2 = ({r("m[sel]")} | {one}) & ~y;
        // a repeated subexpression as the base: hoisted, then doubled
        y = {r("m[sel + 1]")} ^ {r("m[sel + 1]", k2)} ^ (m[sel + 1] >> 3);
        // a loop-indexed word, & of two dirty sides
        for (i = 0; i < 4; i = i + 1)
          m[i] = {r("m[i]")} & (y ^ {r("m[i]", k2)});
        // contexts wider and narrower than the rotation
        wide = {r("x")} ^ y;
        narrow = {r("acc")} | y;
        // inside a + chain, and in a condition (no hoist sink: inline)
        x <= {r("x")} + y + {one};
        if ({r("acc2")} == y) acc = acc + {one};
    """


@settings(max_examples=40, deadline=None)
@given(data=st.data(), width=st.integers(2, 130))
@example(data=None, width=32)
@example(data=None, width=64)
@example(data=None, width=2)
def test_rotations_agree_with_the_interpreter(data, width):
    full = (1 << width) - 1
    if data is None:  # the pinned examples: SHA-256's amounts and corners
        k, k2 = min(7, width - 1), width - 1
        words, x, y = (full, 0, 1 << (width - 1), full >> 1), full, 0x5A & full
    else:
        k = data.draw(st.integers(1, width - 1), label="k")
        k2 = data.draw(st.integers(1, width - 1), label="k2")
        value = st.integers(0, full)
        words = data.draw(st.tuples(value, value, value, value), label="m")
        x, y = data.draw(value, label="x"), data.draw(value, label="y")
    o0, o2 = _agree(_flat(width, _body(width, k, k2), words, x, y))
    assert o0.code.facts["rotations"] > 0 and o2.code.facts["rotations"] > 0


def _rotations(flat):
    """Rotations lowered at -O2, after agreeing with the interpreter."""
    _, o2 = _agree(flat)
    return o2.code.facts["rotations"], o2.code.source


def test_sigma_is_one_doubled_word_and_one_mask():
    # SHA-256's sigma0 over a loop-indexed memory word, as bitcoin spells it
    count, source = _rotations(_flat(32, f"""
        for (i = 1; i < 4; i = i + 1)
          m[i] = ({_rot("m[i-1]", 7, 32)} ^ {_rot("m[i-1]", 18, 32)})
                 ^ (m[i-1] >> 3);
    """))
    assert count == 2
    line = next(ln for ln in source.splitlines() if ">> 18)" in ln)
    assert line.count("4294967295") == 1           # the root mask, once
    assert ">> 7))" in line and ">> 18))" in line  # the shifts, bare
    assert source.count("* 4294967297)") == 1      # D bound once


def test_each_context_width():
    body = f"""
        acc = {_rot("x", 5, 32)} ^ y;
        wide = {_rot("x", 5, 32)} ^ y;
        narrow = {_rot("x", 5, 32)} ^ y;
    """
    # equal and narrower lower (the narrow store masks); wider does not
    count, _ = _rotations(_flat(32, body, x=0x80000001, y=0x12345678))
    assert count == 2


@pytest.mark.parametrize("rhs", [
    "{x[6:0], y[31:7]}",            # two bases
    "{x[6:0], x[31:6]}",            # overlapping bounds (33 bits)
    "{x[6:0], x[31:8]}",            # a gap (31 bits)
    "{x[31:7], x[6:0]}",            # the identity, not a rotation
    "{x[6:0], x[15:8], x[31:16]}",  # three parts
    "{wide[6:0], wide[31:7]}",      # a base wider than the concat
    "{wm[1][6:0], wm[1][31:7]}",    # ... read without a mask: a word
])
def test_look_alikes_keep_todays_spelling(rhs):
    # from the second tick on, the wide words hold bits above the
    # concat's 32 that are clear in their low bits
    high = "{6'h2a, acc[31:6], 6'd0}"
    flat = _flat(32, f"acc = {rhs} ^ (y >> 1); "
                     f"wide <= {high}; wm[1] <= {high};",
                 x=0xDEADBEEF, y=0x0F0F0F0F)
    count, source = _rotations(flat)
    assert count == 0
    assert "4294967297" not in source


def test_a_hoisted_member_stays_hoisted():
    # the rotation occurs twice in one statement: the statement hoists
    # it as a whole (masked once), and the chain reads the local
    r = _rot("x", 9, 32)
    count, source = _rotations(_flat(32, f"acc = ({r} ^ y) + ({r} & ~y);",
                                     x=0xCAFEF00D, y=0x31415926))
    assert count == 1
    assert source.count("* 4294967297)") == 1


def test_the_lane_carrier_keeps_todays_spelling():
    # 2W bits need not fit a uint64 lane: the lane program keeps the
    # two-select spelling (its correctness is test_expr_carriers.py's)
    pytest.importorskip("numpy")
    from repro.interp.compile.batch import batch_code_for

    source = parse(f"""
    module l(input wire clock);
      reg [31:0] acc = 1, x = 3;
      wire [31:0] w;
      assign w = acc + x;
      always @(posedge clock)
        acc <= {_rot("acc", 7, 32)} ^ {_rot("acc", 13, 32)} ^ w;
    endmodule""")
    code = CompiledModuleCode(flatten(source, "l"), opt_level=2)
    assert code.facts["rotations"] == 2
    assert "4294967297" not in batch_code_for(code).source
