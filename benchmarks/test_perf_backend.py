"""Backend micro-benchmark: interp vs compiled ticks/sec.

Measures real wall-clock simulation throughput (not the modeled
seconds) for the two heaviest Table 1 workloads and records the
numbers in ``benchmarks/out/BENCH_backend.json``, so future PRs have
a perf trajectory to compare against.  The compiled backend must hold
a >=5x advantage on both — that is the tentpole's acceptance bar.
"""

import time

from repro.bench import BENCHMARKS
from repro.interp import Simulator, TaskHost, VirtualFS
from repro.verilog import flatten, parse

#: (workload, ticks per backend) — sized for stable timing on the slow
#: oracle while keeping the whole benchmark under a few seconds.
CASES = [("mips32", 192), ("bitcoin", 24)]

MIN_SPEEDUP = 5.0


def _ticks_per_sec(flat, backend, ticks):
    sim = Simulator(flat, TaskHost(VirtualFS()), backend=backend)
    sim.tick(cycles=2)  # warm caches / first-touch outside the window
    start = time.perf_counter()
    sim.tick(cycles=ticks)
    elapsed = time.perf_counter() - start
    return ticks / max(elapsed, 1e-9)


def test_compiled_backend_speedup(write_result):
    results = {}
    for name, ticks in CASES:
        flat = flatten(parse(BENCHMARKS[name].source()), name)
        interp_rate = _ticks_per_sec(flat, "interp", ticks)
        compiled_rate = _ticks_per_sec(flat, "compiled", ticks)
        results[name] = {
            "ticks": ticks,
            "interp_ticks_per_sec": round(interp_rate, 1),
            "compiled_ticks_per_sec": round(compiled_rate, 1),
            "speedup": round(compiled_rate / interp_rate, 2),
        }
    result_path = write_result("BENCH_backend", results)
    for name, row in results.items():
        assert row["speedup"] >= MIN_SPEEDUP, (
            f"{name}: compiled backend only {row['speedup']}x over interp "
            f"(need >={MIN_SPEEDUP}x); see {result_path}"
        )
