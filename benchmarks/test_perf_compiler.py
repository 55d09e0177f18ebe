"""Compiler-service benchmark: artifact reuse across engine spin-ups.

Measures real wall-clock spin-up cost (not modeled seconds) for the
one-compiler-many-instances deployment the paper's §4/§7 argue for:

* **cold vs warm engines** — 32 same-source ``Runtime`` instances,
  each service private (cold: full parse→flatten→machinify→codegen per
  tenant) vs all sharing one compiler service (warm: content-addressed
  hits for every stage; per-engine work is slot-store allocation,
  namespace exec and initialization).  The acceptance bar is >=10x.
* **mixed-workload hypervisor arrival sweep** — tenants of three
  workloads arriving and departing on one hypervisor, cold store vs a
  store pre-warmed by an identical sweep; reports the artifact-store
  hit/miss aggregate from ``ArtifactStore.stats()``.

Results land in ``benchmarks/out/BENCH_compiler.json`` so future PRs
have a spin-up trajectory to compare against.
"""

import time

from repro.bench import BENCHMARKS
from repro.compiler import ArtifactStore, CompilerService
from repro.fabric import F1
from repro.hypervisor import Hypervisor
from repro.runtime import Runtime

ENGINES = 32
MIN_SPEEDUP = 10.0

SWEEP_WORKLOADS = ("df", "bitcoin", "regex")
SWEEP_ARRIVALS = 12


def _spin_up_seconds(source: str, shared: bool) -> float:
    """Wall time to spin up ENGINES runtimes of one source."""
    service = CompilerService(ArtifactStore())
    if shared:
        Runtime(source, compiler=service)  # prime the store once
    start = time.perf_counter()
    for _ in range(ENGINES):
        runtime = Runtime(
            source,
            compiler=service if shared else CompilerService(ArtifactStore()),
        )
        runtime.tick(1)  # prove the engine is live, not lazily deferred
    return time.perf_counter() - start


def _arrival_sweep(service: CompilerService) -> float:
    """Admit/retire a mixed-workload tenant stream on one hypervisor."""
    hypervisor = Hypervisor(F1, compiler=service, use_hull=True)
    clients = []
    start = time.perf_counter()
    for i in range(SWEEP_ARRIVALS):
        name = SWEEP_WORKLOADS[i % len(SWEEP_WORKLOADS)]
        program = service.compile_program(BENCHMARKS[name].source())
        client = hypervisor.connect(f"tenant-{i}")
        placement = client.place(program)
        clients.append((client, placement.engine_id))
        if i % 4 == 3:  # periodic departures force re-coalescing
            client, engine_id = clients.pop(0)
            client.release(engine_id)
    for client, engine_id in clients:
        client.release(engine_id)
    return time.perf_counter() - start


def test_compiler_service_reuse(write_result):
    results = {}

    for name in ("mips32", "bitcoin"):
        source = BENCHMARKS[name].source()
        cold = _spin_up_seconds(source, shared=False)
        warm = _spin_up_seconds(source, shared=True)
        results[f"spinup_{name}"] = {
            "engines": ENGINES,
            "cold_seconds": round(cold, 4),
            "warm_seconds": round(warm, 4),
            "speedup": round(cold / warm, 1),
        }

    # Mixed-workload hypervisor sweep: one store, cold then pre-warmed.
    store = ArtifactStore()
    cold_sweep = _arrival_sweep(CompilerService(store))
    warm_sweep = _arrival_sweep(CompilerService(store))
    aggregate = store.stats()
    results["hypervisor_sweep"] = {
        "arrivals": SWEEP_ARRIVALS,
        "workloads": list(SWEEP_WORKLOADS),
        "cold_seconds": round(cold_sweep, 4),
        "warm_seconds": round(warm_sweep, 4),
        "speedup": round(cold_sweep / max(warm_sweep, 1e-9), 1),
        "store": {
            "hits": aggregate.hits,
            "misses": aggregate.misses,
            "hit_rate": round(aggregate.hit_rate, 3),
            "seconds_saved": round(aggregate.seconds_saved, 4),
        },
    }

    result_path = write_result("BENCH_compiler", results)

    for name in ("mips32", "bitcoin"):
        row = results[f"spinup_{name}"]
        assert row["speedup"] >= MIN_SPEEDUP, (
            f"{name}: warm spin-up only {row['speedup']}x over cold "
            f"(need >={MIN_SPEEDUP}x); see {result_path}"
        )
    sweep = results["hypervisor_sweep"]
    assert sweep["warm_seconds"] <= sweep["cold_seconds"], (
        f"pre-warmed hypervisor sweep slower than cold: {sweep}"
    )
    assert sweep["store"]["hits"] > 0
