"""Serving-layer benchmark: sustained throughput and fair-share latency.

Drives the asyncio frontend the way a saturated deployment would: a
seeded Poisson arrival trace of mixed designs submitted all at once
(every tenant in flight before the first scheduler turn), over a small
FAST-board fleet with software spillover.  Records sustained completed
tenants/sec and the TTFT / completion-latency distribution at >=256
concurrent tenants, then a second phase that floods the fleet with
saturating low-priority work and measures how far the deficit-round-
robin slicer bounds high-priority time-to-first-tick.

Results land in ``benchmarks/out/BENCH_serve.json``.  Wall-clock
numbers are machine-dependent; the acceptance bars are structural:
>=256 tenants concurrently in flight, every tenant served, and a
high-priority p99 TTFT under saturating low-priority load no worse
than half the low class's.
"""

import asyncio
import dataclasses
import time

from repro.compiler import CompilerService
from repro.fabric import DE10
from repro.harness.common import arrival_trace
from repro.hypervisor import Hypervisor
from repro.serve import Fleet, FleetConfig, ServeConfig, ServeFrontend

#: the concurrency the paper-scale serving claim is measured at
MIN_CONCURRENT = 256

TRACE_SEED = 11
TRACE_N = 288

#: near-instant compiles: the benchmark measures the serving layer,
#: not the modeled synthesis latency
FAST = dataclasses.replace(DE10, compile_seconds=0.05,
                           reconfig_seconds=0.01)

SATURATE = """
module sat(input wire clock);
  reg [31:0] n;
  wire [31:0] spin;
  assign spin = n ^ (n << 5);
  initial n = 0;
  always @(posedge clock) n <= n + spin[3:0] + 1;
endmodule
"""


def _fleet(service, boards=3, **config):
    hypervisors = [Hypervisor(FAST, compiler=service)
                   for _ in range(boards)]
    return Fleet(hypervisors, FleetConfig(**config))


def _pct(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _throughput_phase(service):
    trace = arrival_trace(TRACE_SEED, TRACE_N)
    fleet = _fleet(service, boards=3, board_capacity=4)
    config = ServeConfig(max_running=TRACE_N + 8, max_queue=TRACE_N + 8,
                         per_tenant=TRACE_N, quantum_ticks=32,
                         checkpoint_on_preempt=False, capture_state=False)

    async def main():
        async with ServeFrontend(fleet, config) as fe:
            start = time.monotonic()
            # submit() never awaits after validation: the whole trace
            # is queued before the scheduler's first turn, so the peak
            # in-flight count is the full trace.
            handles = [
                await fe.submit(a.source, ticks=a.ticks,
                                priority=a.priority, tenant=a.tenant,
                                name=a.name)
                for a in trace
            ]
            results = [await h.result() for h in handles]
            elapsed = time.monotonic() - start
            return results, elapsed, fe.stats()

    results, elapsed, stats = asyncio.run(main())
    assert len(results) == TRACE_N
    assert all(r.status in ("completed", "finished") for r in results)
    ttfts = [r.ttft_s for r in results if r.ttft_s is not None]
    latencies = [r.latency_s for r in results]
    return {
        "tenants": TRACE_N,
        "boards": 3,
        "elapsed_s": round(elapsed, 4),
        "tenants_per_sec": round(TRACE_N / elapsed, 2),
        "peak_in_flight": stats["admission"]["peak_running"],
        "ttft_p50_s": round(_pct(ttfts, 0.50), 5),
        "ttft_p99_s": round(_pct(ttfts, 0.99), 5),
        "latency_p50_s": round(_pct(latencies, 0.50), 5),
        "latency_p99_s": round(_pct(latencies, 0.99), 5),
        "preemptions": stats["slicer"]["preemptions"],
        "cohorts_formed": stats["fleet"]["cohorts"]["formed"],
        "placement": stats["placement"],
    }


def _fair_share_phase(service):
    """Saturating low-priority load must not starve high-priority TTFT."""
    n_low, n_high = 128, 16
    fleet = _fleet(service, boards=1, board_capacity=0, cohorts=False)
    config = ServeConfig(max_running=n_low + n_high + 8,
                         max_queue=n_low + n_high + 8,
                         per_tenant=n_low + n_high,
                         quantum_ticks=16,
                         checkpoint_on_preempt=False, capture_state=False)

    async def main():
        async with ServeFrontend(fleet, config) as fe:
            low = [await fe.submit(SATURATE, ticks=96, priority="low",
                                   name=f"low-{i}")
                   for i in range(n_low)]
            high = [await fe.submit(SATURATE, ticks=16, priority="high",
                                    name=f"high-{i}")
                    for i in range(n_high)]
            low_r = [await h.result() for h in low]
            high_r = [await h.result() for h in high]
            return low_r, high_r

    low_r, high_r = asyncio.run(main())
    low_ttft = [r.ttft_s for r in low_r]
    high_ttft = [r.ttft_s for r in high_r]
    return {
        "low_tenants": n_low,
        "high_tenants": n_high,
        "low_ttft_p50_s": round(_pct(low_ttft, 0.50), 5),
        "low_ttft_p99_s": round(_pct(low_ttft, 0.99), 5),
        "high_ttft_p50_s": round(_pct(high_ttft, 0.50), 5),
        "high_ttft_p99_s": round(_pct(high_ttft, 0.99), 5),
        "low_latency_p50_s": round(_pct([r.latency_s for r in low_r],
                                        0.50), 5),
        "high_latency_p99_s": round(_pct([r.latency_s for r in high_r],
                                         0.99), 5),
    }


def test_serve_throughput_and_fair_share(write_result):
    service = CompilerService()
    throughput = _throughput_phase(service)
    fair = _fair_share_phase(service)
    results = {
        "workload": {
            "trace_seed": TRACE_SEED,
            "trace_n": TRACE_N,
            "device": "de10-fast",
            "quantum_ticks": 32,
        },
        "throughput": throughput,
        "fair_share": fair,
    }
    result_path = write_result("BENCH_serve", results)

    assert throughput["peak_in_flight"] >= MIN_CONCURRENT, (
        f"only {throughput['peak_in_flight']} tenants in flight "
        f"(need >={MIN_CONCURRENT}); see {result_path}")
    # The DRR slicer's bounds: the worst high-priority tenant gets its
    # first tick no later than the worst low one (despite every high
    # submission arriving after the whole low flood), and *completes*
    # before the median low tenant does — the 4:1 weight turns into
    # end-to-end service, not just an earlier first tick.
    assert fair["high_ttft_p99_s"] <= fair["low_ttft_p99_s"], (
        f"high-priority p99 TTFT {fair['high_ttft_p99_s']}s not bounded "
        f"vs low p99 {fair['low_ttft_p99_s']}s; see {result_path}")
    assert fair["high_latency_p99_s"] <= fair["low_latency_p50_s"] * 0.5, (
        f"high-priority p99 completion {fair['high_latency_p99_s']}s not "
        f"bounded vs low p50 {fair['low_latency_p50_s']}s; "
        f"see {result_path}")
