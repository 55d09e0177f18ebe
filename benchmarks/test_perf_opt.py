"""Mid-end micro-benchmark: compiled O0 vs O2 ticks/sec.

Measures the value of the word-level pass pipeline plus specialized
codegen (``REPRO_OPT_LEVEL``) on the two heaviest Table 1 workloads
and records the numbers in ``benchmarks/out/BENCH_opt.json``:
per-level real ticks/sec, the speedup, and per-pass IR reduction
counts for both the flat (software) and transformed (hardware)
modules.  Runs are interleaved (alternating O0/O2, best-of) so
machine drift cancels out of the ratio.
"""

import time

from repro.bench import BENCHMARKS
from repro.compiler import CompilerService
from repro.interp import Simulator, TaskHost, VirtualFS
from repro.verilog import flatten, parse

#: (workload, measured ticks) — sized for a stable ratio in seconds.
CASES = [("mips32", 400), ("bitcoin", 48)]

#: At least one workload must clear this O2-over-O0 bar (the compute-
#: bound miner does comfortably; the MIPS core is dominated by fixed
#: per-tick scheduling cost, where the mid-end has less to amortize).
MIN_BEST_SPEEDUP = 1.3

REPS = 5


def _one_run(flat, code, ticks):
    sim = Simulator(flat, TaskHost(VirtualFS()), code=code)
    sim.tick(cycles=3)  # warm caches / first-touch outside the window
    start = time.perf_counter()
    sim.tick(cycles=ticks)
    return ticks / max(time.perf_counter() - start, 1e-9)


def _opt_stats(result):
    return {
        "fingerprint": result.fingerprint,
        "two_state": result.two_state,
        "pass_counts": dict(result.pass_counts),
        "ir_nodes": [result.nodes_before, result.nodes_after],
        "processes": [result.processes_before, result.processes_after],
    }


def test_opt_pipeline_speedup(write_result):
    service = CompilerService()
    results = {}
    for name, ticks in CASES:
        flat = flatten(parse(BENCHMARKS[name].source()), name)
        program = service.compile_program(flat)
        codes = {
            level: service.codegen(program.flat, env=program.env,
                                   digest=program.digest, opt_level=level)
            for level in (0, 2)
        }
        best = {0: 0.0, 2: 0.0}
        for _ in range(REPS):
            for level in (0, 2):  # interleaved: drift hits both levels
                best[level] = max(best[level],
                                  _one_run(program.flat, codes[level], ticks))
        hardware_opt = service.optimize(
            program.transform.module, env=program.hardware_env,
            digest=program.hardware_digest, opt_level=2,
            keep=program.transform.external_names())
        results[name] = {
            "ticks": ticks,
            "o0_ticks_per_sec": round(best[0], 1),
            "o2_ticks_per_sec": round(best[2], 1),
            "speedup": round(best[2] / best[0], 2),
            "flat_opt": _opt_stats(codes[2].opt),
            "hardware_opt": _opt_stats(hardware_opt),
        }
    result_path = write_result("BENCH_opt", results)
    top = max(row["speedup"] for row in results.values())
    assert top >= MIN_BEST_SPEEDUP, (
        f"best O2-over-O0 speedup only {top}x "
        f"(need >={MIN_BEST_SPEEDUP}x on at least one workload); "
        f"see {result_path}"
    )
