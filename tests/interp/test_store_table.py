"""One store table, held equal across the interpreter, both compiled
levels and a two-lane cohort.

Every lvalue form ``Evaluator.assign`` takes — a whole signal, a bit
at a constant or a dynamic index, ``[m:l]``, ``+:`` and ``-:``, a
memory word at a constant, a dynamic or an out-of-range address, and a
concat of a select and a whole signal — is crossed with six declared
ranges, blocking and non-blocking, and four kinds of dynamic start: in
range, at the top index (a field straddling the top bit), a negative
``integer`` and one at or above 2^63.  A fifth start sweeps from
negative into range.  Constant bit, ``+:`` and ``-:`` starts that the
reference evaluates at their own width (``-2`` is 2^32 - 2, ``3'd7 +
3'd1`` is 0) and a memory address that wraps the same way ride with
the in-range rows.  Each row is one ``always`` block storing a value
that changes every tick into its own register, so a group of rows is
one module run as a whole: by the interpreter, by compiled engines at
``-O0`` and ``-O2``, and as a two-lane cohort, one lane joining from a
scalar twin ahead.  Every engine must land in the interpreter's state.

The fuzz grammar makes no select or concat lvalue, so this table is
what holds those stores to the reference.
"""

import pytest

from repro.core import compile_program
from repro.interp import TaskHost
from repro.interp.compile import CompiledModuleCode, CompiledSimulator
from repro.interp.compile.batch import HAVE_NUMPY, BatchedCohort, batch_code_for
from repro.interp.simulator import InterpSimulator

#: odd, as is AHEAD + TICKS: a row whose value's low bit alternates
#: ends on a tick that stores a 1
TICKS = 7
AHEAD = 2
RANGES = ((7, 0), (0, 7), (10, 3), (3, 10), (-4, 3), (3, -4))
#: start kind -> (declaration of ``j``, what the counter process does to it)
STARTS = {
    "in": ("reg [7:0] j = {mid};", ""),
    "top": ("reg [7:0] j = {top};", ""),
    "negative": ("integer j = -2;", ""),
    "huge": ("reg [63:0] j = 64'hFFFF_FFFF_FFFF_FFF0;", ""),
    "sweep": ("integer j = 0;", "j <= n - 3;"),
}
#: each value a store writes: changes every tick, wider than any field
VALUE = "(n * 8'd37 + 8'd5)"
#: a constant start of 8 unbounded, 0 at its own width
WRAP = "3'd7 + 3'd1"
#: a register row also reads its register, so a concat whose first part
#: changes it must not evaluate the value again for the next part
REG_VALUE = f"({VALUE} ^ R)"


def _selects(msb, lsb):
    """The rows of one declared range: (form, lvalue with ``R`` for the
    row's register); the dynamic forms start at ``j``."""
    lo, hi = min(msb, lsb), max(msb, lsb)
    part = f"[{lo + 4}:{lo + 1}]" if msb >= lsb else f"[{lo + 1}:{lo + 4}]"
    return {
        "whole": "R", "bit_const": f"R[{lo + 2}]", "part_const": f"R{part}",
        "bit_dyn": "R[j]", "plus": "R[j +: 3]", "minus": "R[j -: 3]",
        "concat": "{R[j +: 2], q}",
        "bit_neg": "R[-2]", "plus_neg": "R[-2 +: 2]", "minus_neg": "R[-2 -: 2]",
        "bit_wrap": f"R[{WRAP}]", "plus_wrap": f"R[{WRAP} +: 2]",
        "minus_wrap": f"R[{WRAP} -: 2]",
    }, (lo + hi) // 2, hi


def _module(decl, start, rows, op, extra=""):
    """A module of *rows* (form -> lvalue over its own register)."""
    j_decl, j_step = STARTS[start]
    regs = "".join(f"  {decl.replace('NAME', f'r_{form}')}\n" for form in rows)
    procs = "".join(
        f"  always @(posedge clock) {lvalue} {op} {REG_VALUE};\n".replace("R", f"r_{form}")
        for form, lvalue in rows.items())
    return (f"module t(input wire clock);\n  reg [7:0] n = 0;\n  reg [3:0] q = 0;\n"
            f"  {j_decl}\n{regs}{extra}  wire [7:0] s;\n  assign s = n ^ q;\n"
            f"  always @(posedge clock) begin n <= n + 1; {j_step} end\n"
            f"{procs}endmodule\n")


def _vector_groups():
    for msb, lsb in RANGES:
        forms, mid, top = _selects(msb, lsb)
        for start in STARTS:
            rows = {f: lv for f, lv in forms.items()
                    if start == "in" or "j" in lv}
            decl = f"reg [{msb}:{lsb}] NAME = 0;"
            for op in ("=", "<="):
                name = f"[{msb}:{lsb}] {op} {start}"
                text = _module(decl, start, rows, op).replace(
                    "{mid}", str(mid)).replace("{top}", str(top))
                yield name, text


def _memory_groups():
    for base in (0, 4):
        words = f"[{base}:{base + 3}]"
        rows = {"mem_const": f"[{base + 1}]", "mem_out": f"[{base + 9}]",
                "mem_wrap": f"[{WRAP}]", "mem_dyn": "[j]"}
        for start in STARTS:
            for op in ("=", "<="):
                procs = "".join(
                    f"  always @(posedge clock) m_{form}{addr} {op} {VALUE};\n"
                    for form, addr in rows.items()
                    if start == "in" or "j" in addr)
                mems = "".join(f"  reg [7:0] m_{form} {words};\n" for form in rows)
                text = _module("", start, {}, op, mems + procs)
                yield (f"mem{words} {op} {start}",
                       text.replace("{mid}", str(base + 2))
                       .replace("{top}", str(base + 3)))


GROUPS = dict(list(_vector_groups()) + list(_memory_groups()))


def _interp(program, ticks):
    sim = InterpSimulator(program.flat, TaskHost(), env=program.env)
    sim.tick(cycles=ticks)
    return sim.store.snapshot()


def _compiled(program, code, ticks):
    sim = CompiledSimulator(program.flat, TaskHost(), code=code)
    sim.tick(cycles=ticks)
    return sim


def _cohort(program, code):
    """Two lanes, lane 1 joining from a scalar twin AHEAD ticks ahead."""
    cohort = BatchedCohort(batch_code_for(code))
    cohort.join(TaskHost())
    twin = _compiled(program, code, AHEAD)
    cohort.join(twin.host, state=twin.store.snapshot())
    cohort.times[1] = twin.time
    cohort.tick(TICKS)
    return [cohort.snapshot_lane(lane) for lane in (0, 1)]


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_every_engine_stores_where_the_interpreter_does(group):
    program = compile_program(GROUPS[group])
    want = _interp(program, TICKS)
    for level in (0, 2):
        code = CompiledModuleCode(program.flat, env=program.env, opt_level=level)
        assert _compiled(program, code, TICKS).store.snapshot() == want, (group, level)
    if HAVE_NUMPY:  # every group is inside the vector licence
        lanes = _cohort(program, code)
        assert lanes[0] == want, (group, "lane 0")
        assert lanes[1] == _interp(program, AHEAD + TICKS), (group, "lane 1")


FAR_OUT = """
module t(input wire clock);
  reg [7:0] n = 0;
  reg [7:0] r = 0;
  reg [7:0] r2 = 0;
  reg [7:0] r3 = 0;
  reg [63:0] j = 64'hFFFF_FFFF_FFFF_FFF0;
  integer i;
  wire [7:0] s;
  assign s = r ^ n;
  always @(posedge clock) begin
    i = n - 6;
    r[i +: 3] = 3'b101;
    r2[j +: 2] = 2'b11;
    r3[j -: 2] <= 2'b11;
    n <= n + 1;
  end
endmodule
"""


def test_a_start_far_outside_the_word_stores_nothing():
    """A field whose low offset lies at or past the top of the word
    lands nowhere, and no engine may build the field before it looks:
    shifted by such an offset it is a ``MemoryError`` (2^64) or
    gigabytes (a negative ``integer``).  ``i`` reaches 0 and 1 on the
    last two ticks, so only those stores land: 3'b101 at bit 0, then
    at bit 1."""
    program = compile_program(FAR_OUT)
    want = _interp(program, 8)
    assert (want["r"], want["r2"], want["r3"]) == (0b1011, 0, 0)
    for level in (0, 2):
        code = CompiledModuleCode(program.flat, env=program.env, opt_level=level)
        assert _compiled(program, code, 8).store.snapshot() == want, level


CONCAT_INDEX = """
module t(input wire clock);
  reg [7:0] n = 0;
  reg [15:0] w = 0;
  wire [7:0] s;
  assign s = n ^ w[7:0];
  always @(posedge clock) begin
    n <= n + 1;
    w[({1{8'd192}} & 15)] <= ~n[0];
    w[{4'd1, 1'b0}] = 1'b1;
  end
endmodule
"""


def test_a_constant_concat_index_stores_as_a_constant():
    """An index that is a literal tree through a replication or a concat
    (``({1{8'd192}} & 15)`` is 0, ``{4'd1, 1'b0}`` is 2) is a constant to
    both carriers, as to the interpreter: the field is placed when the
    source is made, so no bounds guard and no frozen NBA index is left in
    either carrier's generated source, and the state is the interpreter's."""
    program = compile_program(CONCAT_INDEX)
    want = _interp(program, TICKS)
    assert want["w"] == 0b101  # bit 0: ~n[0] of the last tick (n = 6); bit 2 set
    code = CompiledModuleCode(program.flat, env=program.env, opt_level=2)
    assert "if 0 <= " not in code.source and "_x0" not in code.source
    assert _compiled(program, code, TICKS).store.snapshot() == want
    if HAVE_NUMPY:
        lanes = batch_code_for(code).source
        assert "H_low(" not in lanes and "x0" not in lanes
        cohort = BatchedCohort(batch_code_for(code))
        cohort.join(TaskHost())
        cohort.tick(TICKS)
        assert cohort.snapshot_lane(0) == want
