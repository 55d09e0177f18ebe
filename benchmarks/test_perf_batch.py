"""Batched backend benchmark: one vector dispatch vs N scalar engines.

Measures aggregate wall-clock throughput (tenant-ticks per second) of a
:class:`~repro.interp.compile.batch.BatchedCohort` over N same-program
tenant lanes against N scalar compiled simulators sharing the same
codegen artifact — the hypervisor's dominant workload shape (the
artifact store's ~93% hit rate is N tenants of one bitstream).

Results land in ``benchmarks/out/BENCH_batch.json``: per-workload,
per-N aggregate rates plus cohort telemetry (lane divergence, vector
statement counts) and the compiler service's batch-artifact cache
stats.  The acceptance bar is a >=10x aggregate advantage at N=256 on
at least one workload.

Skips cleanly when NumPy is absent — the batched backend is an
optional extra (``pip install .[batch]``).
"""

import time

import pytest

np = pytest.importorskip("numpy")

from repro.bench import BENCHMARKS
from repro.compiler.service import CompilerService, KIND_BATCH
from repro.interp import Simulator, TaskHost, VirtualFS
from repro.interp.compile.batch import BatchedCohort, BatchUnsupported
from repro.verilog import flatten, parse

LANE_COUNTS = (1, 16, 64, 256)

MIN_SPEEDUP = 10.0

#: Synthetic two-state tenant: a counter datapath with an always-active
#: comb layer (``assign``s keep the module in static mode) and a
#: ``seed``-dependent branch so lanes diverge under masking the way
#: real per-tenant configs do.
def _synth_src(stages=24):
    """A pipelined mix network: *stages* registers deep, two comb
    layers per stage — the per-tick statement count a mid-size tenant
    carries, which is where the vector dispatch amortizes."""
    decls, combs, seqs = [], [], []
    for i in range(stages):
        decls.append(f"  reg [31:0] r{i};")
        decls.append(f"  wire [31:0] m{i};")
        decls.append(f"  wire [31:0] f{i};")
        prev = f"r{(i - 1) % stages}"
        combs.append(f"  assign m{i} = (r{i} ^ ({prev} << 3)) + {{16'd0, n}};")
        combs.append(f"  assign f{i} = m{i} ^ (m{i} >> 7);")
        seqs.append(f"    r{i} <= f{i} + {i};")
    return "\n".join(
        ["module synth(clock);", "  input wire clock;",
         "  reg [7:0] seed;", "  reg [15:0] n;", "  reg [31:0] acc;"]
        + decls + combs
        + ["  always @(posedge clock) begin", "    n <= n + 1;"]
        + seqs
        + ["    if (n[3:0] == {4{seed[0]}})",
           "      acc <= acc + f0;",
           "    else",
           "      acc <= acc ^ f0;",
           "  end", "endmodule"]) + "\n"


SYNTH_SRC = _synth_src()

#: (label, flat-module thunk, measured ticks per lane)
def _cases():
    yield ("synth", flatten(parse(SYNTH_SRC), "synth"), 64)
    yield ("mips32", flatten(parse(BENCHMARKS["mips32"].source()),
                             "mips32"), 16)


def _scalar_rate(flat, code, n, ticks):
    sims = [Simulator(flat, TaskHost(VirtualFS()), backend="compiled",
                      code=code) for _ in range(n)]
    for sim in sims:
        sim.tick(cycles=2)  # warm outside the window
    start = time.perf_counter()
    for sim in sims:
        sim.tick(cycles=ticks)
    elapsed = time.perf_counter() - start
    return (n * ticks) / max(elapsed, 1e-9)


def _batched_rate(batch, n, ticks, seed_name=None):
    cohort = BatchedCohort(batch)
    for i in range(n):
        lane = cohort.join(TaskHost(VirtualFS()))
        if seed_name is not None:
            cohort.set_value(seed_name, i & 0xFF, lane=lane)
    cohort.tick(2)  # warm outside the window
    start = time.perf_counter()
    cohort.tick(ticks)
    elapsed = time.perf_counter() - start
    return (n * ticks) / max(elapsed, 1e-9), cohort


def test_batched_backend_speedup(write_result):
    service = CompilerService()
    results = {}
    best = {}
    for label, flat, ticks in _cases():
        code = service.codegen(flat)
        try:
            batch = service.batch(flat)
        except BatchUnsupported as exc:
            results[label] = {"licensed": False, "reason": str(exc)}
            continue
        seed_name = "seed" if label == "synth" else None
        rows = {}
        for n in LANE_COUNTS:
            scalar = _scalar_rate(flat, code, n, ticks)
            batched, cohort = _batched_rate(batch, n, ticks, seed_name)
            rows[str(n)] = {
                "ticks_per_lane": ticks,
                "scalar_ticks_per_sec": round(scalar, 1),
                "batched_ticks_per_sec": round(batched, 1),
                "speedup": round(batched / scalar, 2),
                "lane_divergence": cohort.divergence,
                "vector_stmts": cohort.stmts_executed,
            }
        results[label] = {"licensed": True, "lanes": rows}
        best[label] = rows[str(LANE_COUNTS[-1])]["speedup"]
    batch_stats = service.stats(KIND_BATCH)
    results["batch_artifacts"] = {
        "entries": service.store.count(KIND_BATCH),
        "hits": batch_stats.hits,
        "misses": batch_stats.misses,
    }
    result_path = write_result("BENCH_batch", results)
    assert best, "no workload licensed for the batched backend"
    top = max(best.values())
    assert top >= MIN_SPEEDUP, (
        f"batched backend peaked at {top}x aggregate over "
        f"{LANE_COUNTS[-1]} scalar engines (need >={MIN_SPEEDUP}x); "
        f"see {result_path}"
    )
