"""The lane program, shape by shape, against four scalar runs.

Each shape is a small licensed module (an ``assign`` gives it the
combinational layer the vector licence asks for) that exercises one
construct of the generated lane program.  It runs as a four-lane,
two-phase cohort: lanes 0 and 2 boot fresh, lanes 1 and 3 join from a
scalar twin ``AHEAD`` ticks ahead, so every branch on state can split
the cohort.  After ``TICKS`` vector ticks each lane must hold the
state, display text, finish status and ``$time`` of a scalar run of
the same length, and the cohort's ``stmts_executed``, ``settle_rounds``
and ``divergence`` must equal the numbers pinned below.  Those are the
counts the masked closure tree (the lane carrier before it emitted
source) produced on the same runs, so a lowering that skips, repeats or
reorders statements shows here even when the values still agree.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.interp import TaskHost
from repro.interp.compile import CompiledModuleCode, CompiledSimulator
from repro.interp.compile.batch import BatchedCohort, batch_code_for
from repro.verilog import flatten, parse

AHEAD = 3
TICKS = 14

SHAPES = {
    "if_uniform_and_divergent": """
module shape(input wire clock);
  reg [7:0] n = 0;
  reg [7:0] a = 1;
  reg [7:0] b = 2;
  reg [7:0] t;
  wire [7:0] s;
  assign s = a + b;
  always @(posedge clock) begin
    t = a ^ n;
    n <= n + 1;
    if (n < 8'd200) a <= a + 1;
    if (n[0]) b <= b + 3; else b <= b ^ 8'h5a;
    if (t[1]) begin
      t = t + 1;
      if (n[2]) a <= a + t;
    end else if (s[0])
      b <= b + s;
  end
endmodule
""",
    "case_constant_labels": """
module shape(input wire clock);
  reg [7:0] n = 0;
  reg [7:0] a = 0;
  reg [7:0] b = 1;
  reg [2:0] op;
  wire [7:0] s;
  assign s = a ^ b;
  always @(posedge clock) begin
    op = n[2:0];
    case (op)
      3'd0: a <= a + 1;
      3'd1, 3'd5: a <= a - 1;
      3'd2: begin b <= b + a; op = 3'd7; end
      3'd1: a <= 8'hff;
      default: b <= b ^ n;
    endcase
    case (s[1:0])
      2'd3: b <= b + 1;
    endcase
    n <= n + 1;
  end
endmodule
""",
    # Subjects every lane agrees on: a counted loop's variable, a local
    # holding a constant, a literal.
    "case_lane_uniform_subject": """
module shape(input wire clock);
  reg [7:0] n = 0;
  reg [7:0] a = 0;
  reg [7:0] k = 0;
  integer i;
  wire [7:0] s;
  assign s = a + k;
  always @(posedge clock) begin
    for (i = 0; i < 4; i = i + 1)
      case (i)
        0: a = a + n;
        2: a = a ^ 8'h33;
        default: a = a + 1;
      endcase
    k = 8'd2;
    case (k[2:0])
      3'd2: a <= a + 7;
      default: a <= 0;
    endcase
    case (3'd5)
      3'd5: k <= k + n;
    endcase
    n <= n + 1;
  end
endmodule
""",
    "casez_wildcards": """
module shape(input wire clock);
  reg [7:0] n = 0;
  reg [7:0] a = 0;
  reg [7:0] b = 0;
  wire [7:0] s;
  assign s = a + n;
  always @(posedge clock) begin
    casez (n[3:0])
      4'b1??0: a <= a + 1;
      4'b?1?1: b <= b + 1;
      4'b00??: a <= a ^ b;
      default: ;
    endcase
    n <= n + 1;
  end
endmodule
""",
    # Locals holding Python ints (constants, an out-of-range select)
    # overwritten by constants in divergent arms stay uint64 rows.
    "constant_locals_in_divergent_arms": """
module shape(input wire clock);
  reg [7:0] n = 0;
  reg [63:0] x;
  reg [63:0] y = 64'hffff_ffff_ffff_fff0;
  reg [7:0] z;
  wire [63:0] s;
  assign s = x ^ y;
  always @(posedge clock) begin
    x = 64'h8000_0000_0000_0001;
    if (n[0]) x = 3;
    z = y[71:64];
    if (n[1]) z = 5;
    y <= y + x + z;
    n <= n + 1;
  end
endmodule
""",
    "counted_for": """
module shape(input wire clock);
  reg [7:0] n = 0;
  reg [15:0] acc;
  reg [7:0] mem [0:7];
  integer i;
  wire [15:0] s;
  assign s = acc + 1;
  initial for (i = 0; i < 8; i = i + 1) mem[i] = i;
  always @(posedge clock) begin
    acc = 0;
    for (i = 0; i < 5; i = i + 1) acc = acc + (n >> i);
    if (n[0])
      for (i = 1; i < 7; i = i + 2) mem[(n + i) & 7] <= mem[(n + i) & 7] + i;
    n <= n + 1;
  end
endmodule
""",
    # A counted loop's variable is a lane-uniform local inside its body:
    # a store it indexes is per trip (blocking) or frozen per trip (NBA).
    "counted_for_blocking_index": """
module shape(input wire clock);
  reg [7:0] n = 0;
  reg [7:0] r = 0;
  reg [7:0] mem [0:7];
  integer i;
  wire [7:0] s;
  assign s = mem[n[2:0]] ^ r;
  always @(posedge clock) begin
    for (i = 0; i < 8; i = i + 1) mem[i] = mem[i] + n + i;
    if (n[0])
      for (i = 0; i < 8; i = i + 2) r[i] = ~r[i];
    n <= n + 1;
  end
endmodule
""",
    "counted_for_nba_memory": """
module shape(input wire clock);
  reg [7:0] n = 0;
  reg [7:0] mem [0:7];
  integer i;
  wire [7:0] s;
  assign s = mem[n[2:0]] + mem[7];
  always @(posedge clock) begin
    if (n[0])
      for (i = 0; i < 8; i = i + 1) mem[i] <= mem[i] ^ (n + i);
    n <= n + 1;
  end
endmodule
""",
    "counted_for_nba_part_select": """
module shape(input wire clock);
  reg [7:0] n = 0;
  reg [15:0] w = 0;
  integer i;
  wire [15:0] s;
  assign s = w + n;
  always @(posedge clock) begin
    if (n[1])
      for (i = 0; i < 4; i = i + 1) w[i*4 +: 4] <= n[3:0] + i;
    n <= n + 1;
  end
endmodule
""",
    # Swaps through bare state rows: a local still holding its row, taken
    # as an NBA value or another local, must be copied first.
    "swaps_through_state_rows": """
module shape(input wire clock);
  reg [7:0] n = 0;
  reg [7:0] a = 1;
  reg [7:0] b = 2;
  reg [7:0] c = 3;
  reg [7:0] d = 4;
  reg [7:0] t;
  wire [7:0] s;
  assign s = a - b + c - d;
  always @(posedge clock) begin
    a <= b;
    b <= a;
    t = c;
    c = d;
    d = t;
    n <= n + 1;
  end
endmodule
""",
    "while_loop": """
module shape(input wire clock);
  reg [7:0] n = 0;
  reg [7:0] k;
  reg [15:0] sum = 0;
  wire [15:0] s;
  assign s = sum ^ n;
  always @(posedge clock) begin
    k = n[2:0];
    while (k != 0) begin
      sum = sum + k;
      k = k - 1;
    end
    n <= n + 1;
  end
endmodule
""",
    "repeat_loop": """
module shape(input wire clock);
  reg [7:0] n = 0;
  reg [7:0] c = 0;
  wire [7:0] s;
  assign s = c + n;
  always @(posedge clock) begin
    repeat (n[1:0]) c = c + 1;
    repeat (2) c = c ^ 8'h11;
    n <= n + 1;
  end
endmodule
""",
    "display_and_write": """
module shape(input wire clock);
  reg [7:0] n = 0;
  reg [7:0] a = 5;
  wire [7:0] s;
  assign s = a + n;
  always @(posedge clock) begin
    $write("w%0d ", n);
    if (n[0])
      $display("odd n=%0d a=%h s=%0d", n, a, s);
    else
      $display("even", n, "a", a);
    a <= a + n;
    n <= n + 1;
  end
endmodule
""",
    "finish_on_some_lanes": """
module shape(input wire clock);
  reg [7:0] n = 0;
  reg [7:0] a = 0;
  reg [7:0] b = 0;
  wire [7:0] s;
  assign s = a + b;
  always @(posedge clock) begin
    n <= n + 1;
    if (n == 8'd9) begin
      $display("bye n=%0d s=%0d", n, s);
      $finish(2);
      a = a + 100;
    end
    a <= a + 1;
  end
  always @(posedge clock) begin
    b <= b + 2;
    $display("sibling b=%0d", b);
  end
endmodule
""",
    "memory_nba_out_of_range": """
module shape(input wire clock);
  reg [7:0] n = 0;
  reg [7:0] mem [0:5];
  reg [7:0] hi [4:11];
  wire [7:0] s;
  assign s = mem[1] + hi[5];
  always @(posedge clock) begin
    mem[n[2:0]] <= n;
    hi[n[3:0]] <= n + 8'd1;
    mem[7] <= 8'd99;
    n <= n + 1;
  end
endmodule
""",
    "concat_lvalue": """
module shape(input wire clock);
  reg [7:0] n = 0;
  reg [7:0] a = 1;
  reg [7:0] b = 2;
  reg [3:0] c;
  reg [3:0] d;
  wire [7:0] s;
  assign s = {c, d};
  always @(posedge clock) begin
    {a, b} <= {b, a} + 16'h0101;
    if (n[0]) {c, d} = n * 3; else {d, c} = n;
    n <= n + 1;
  end
endmodule
""",
    "dynamic_part_select_store": """
module shape(input wire clock);
  reg [7:0] n = 0;
  reg [15:0] w = 0;
  reg [7:0] x = 0;
  reg [7:0] y = 8'h0f;
  wire [15:0] s;
  assign s = w ^ {x, y};
  always @(posedge clock) begin
    w[n[1:0]*4 +: 4] <= n[3:0];
    x[n[2:0] -: 2] = 2'b11;
    y[n[2:0]] = ~y[n[2:0]];
    n <= n + 1;
  end
endmodule
""",
}

#: (stmts_executed, settle_rounds, divergence) of each shape's run
PINNED = {
    "case_constant_labels": (102, 28, 10),
    "case_lane_uniform_subject": (308, 42, 0),
    "casez_wildcards": (61, 28, 12),
    "concat_lvalue": (84, 28, 14),
    "constant_locals_in_divergent_arms": (136, 42, 21),
    "counted_for": (336, 28, 14),
    "counted_for_blocking_index": (448, 42, 14),
    "counted_for_nba_memory": (294, 28, 14),
    "counted_for_nba_part_select": (142, 28, 7),
    "display_and_write": (98, 28, 14),
    "dynamic_part_select_store": (84, 42, 0),
    "finish_on_some_lanes": (65, 19, 2),
    "if_uniform_and_divergent": (165, 28, 20),
    "memory_nba_out_of_range": (70, 28, 0),
    "repeat_loop": (129, 42, 0),
    "swaps_through_state_rows": (112, 42, 0),
    "while_loop": (216, 42, 0),
}


def _module(source):
    return flatten(parse(source), "shape")


def _scalar(flat, code, ticks):
    sim = CompiledSimulator(flat, TaskHost(), code=code)
    sim.tick(cycles=ticks)
    return sim


def _observed(state, host, time):
    return {"state": state, "display": list(host.display_log),
            "finished": (host.finished, host.finish_code), "time": time}


def run_shape(source):
    """Four-lane, two-phase cohort over *source*: each lane's landing,
    its scalar reference, and the cohort's counters."""
    flat = _module(source)
    code = CompiledModuleCode(flat, opt_level=2)
    cohort = BatchedCohort(batch_code_for(code))
    heads = [0, AHEAD, 0, AHEAD]
    for head in heads:
        if head:
            twin = _scalar(flat, code, head)
            lane = cohort.join(twin.host, state=twin.store.snapshot())
            cohort.times[lane] = twin.time
        else:
            cohort.join(TaskHost())
    cohort.tick(TICKS)
    landed, wanted = [], []
    for lane, head in enumerate(heads):
        landed.append(_observed(cohort.snapshot_lane(lane), cohort.hosts[lane],
                                int(cohort.times[lane])))
        ref = _scalar(flat, code, head + TICKS)
        wanted.append(_observed(ref.store.snapshot(), ref.host, ref.time))
    counts = (cohort.stmts_executed, cohort.settle_rounds, cohort.divergence)
    return landed, wanted, counts


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_lanes_land_where_scalar_runs_do(shape):
    landed, wanted, counts = run_shape(SHAPES[shape])
    for lane, (got, want) in enumerate(zip(landed, wanted)):
        assert got == want, (shape, lane)
    assert counts == PINNED[shape]
