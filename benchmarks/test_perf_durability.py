"""Durability benchmark: cross-process warm starts and journal overhead.

Two costs the durable tier introduces, measured in real wall-clock:

* **cross-process warm spin-up** — ``BENCH_compiler.json`` shows warm
  in-process spin-up beating cold by ~two orders of magnitude, but that
  warmth dies with the process.  Here a *fresh* service (empty memory
  store) mounts a ``DiskArtifactStore`` directory populated by an
  earlier "process" and spins up the same engines: every stage is a
  disk hit, so the restarted worker should sit between fully-cold and
  fully-warm — far closer to warm.
* **journal overhead per tenant** — a serve run over journaled
  checkpoints vs the identical run without a journal; reports the added
  wall-clock per tenant at the configured checkpoint cadence, plus the
  journal's own write counters.

Results land in ``benchmarks/out/BENCH_durability.json``.
"""

import asyncio
import shutil
import tempfile
import time
from pathlib import Path

from repro.bench import BENCHMARKS
from repro.compiler import ArtifactStore, CompilerService, DiskArtifactStore
from repro.hypervisor import TenantJournal
from repro.runtime import Runtime
from repro.serve import ServeConfig, ServeFrontend

import sys

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests" / "serve"))
from serve_helpers import APP, make_fleet  # noqa: E402

ENGINES = 32
TENANTS = 16
#: a restarted worker over a populated disk dir must beat cold spin-up
MIN_RESTART_SPEEDUP = 2.0


def _spin_up(source: str, service_for) -> float:
    """Wall time for ENGINES spin-ups, one service per `service_for`."""
    start = time.perf_counter()
    for i in range(ENGINES):
        Runtime(source, compiler=service_for(i)).tick(1)
    return time.perf_counter() - start


def _spinup_rows(tmp: Path):
    rows = {}
    for name in ("mips32", "bitcoin"):
        source = BENCHMARKS[name].source()
        art = tmp / f"art-{name}"

        cold = _spin_up(source, lambda i: CompilerService(ArtifactStore()))

        shared = CompilerService(ArtifactStore())
        shared.compile_program(source)
        warm = _spin_up(source, lambda i: shared)

        # Populate the disk tier in one "process"...
        seeder = CompilerService(ArtifactStore(disk=DiskArtifactStore(art)))
        Runtime(source, compiler=seeder).tick(1)
        # ...then restart: fresh memory stores, same directory.
        restarted = _spin_up(source, lambda i: CompilerService(
            ArtifactStore(disk=DiskArtifactStore(art))))

        rows[f"spinup_{name}"] = {
            "engines": ENGINES,
            "cold_seconds": round(cold, 4),
            "warm_in_process_seconds": round(warm, 4),
            "warm_cross_process_seconds": round(restarted, 4),
            "in_process_speedup": round(cold / max(warm, 1e-9), 1),
            "cross_process_speedup": round(cold / max(restarted, 1e-9), 1),
        }
    return rows


async def _serve_round(art, jnl):
    service = CompilerService(
        ArtifactStore(disk=DiskArtifactStore(art)) if art else ArtifactStore())
    fleet = make_fleet(service, boards=2)
    fleet.supervisor.checkpoint_every = 4
    journal = TenantJournal(jnl) if jnl else None
    config = ServeConfig(max_running=8, quantum_ticks=8, quiescence_every=64,
                         per_tenant=TENANTS)
    frontend = ServeFrontend(fleet, config, journal=journal)
    start = time.perf_counter()
    handles = [await frontend.submit(APP, ticks=60, name=f"t-{i}")
               for i in range(TENANTS)]
    for handle in handles:
        await handle.result()
    elapsed = time.perf_counter() - start
    stats = journal.stats() if journal else {}
    await frontend.close()
    if journal:
        journal.close()
    return elapsed, stats


def _journal_rows(tmp: Path):
    plain, _ = asyncio.run(_serve_round(None, None))
    durable, jstats = asyncio.run(
        _serve_round(tmp / "serve-art", tmp / "serve-jnl"))
    overhead = durable - plain
    return {
        "journal_overhead": {
            "tenants": TENANTS,
            "checkpoint_every": 4,
            "plain_seconds": round(plain, 4),
            "durable_seconds": round(durable, 4),
            "overhead_seconds_per_tenant": round(overhead / TENANTS, 5),
            "journal": jstats,
        }
    }


def test_durability_costs(write_result):
    tmp = Path(tempfile.mkdtemp(prefix="repro-bench-durability-"))
    try:
        results = {}
        results.update(_spinup_rows(tmp))
        results.update(_journal_rows(tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result_path = write_result("BENCH_durability", results)

    for name in ("mips32", "bitcoin"):
        row = results[f"spinup_{name}"]
        assert row["cross_process_speedup"] >= MIN_RESTART_SPEEDUP, (
            f"{name}: disk-tier restart only {row['cross_process_speedup']}x "
            f"over cold (need >={MIN_RESTART_SPEEDUP}x); see {result_path}"
        )
    journal = results["journal_overhead"]["journal"]
    assert journal["records_written"] > 0
    assert journal["snapshots_written"] > 0
