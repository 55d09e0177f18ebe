"""The seven workloads: inputs from a seed, one fresh stack per round.

Every workload goes through the public front door
(``ServeFrontend.submit`` → ``TenantHandle.result``) from one process,
one asyncio loop and no extra threads; the only child processes are the
two sequential phases of ``durable_restart`` (``e2e_durable_child.py``).

Sizes are chosen so one timed round lasts 1.5–2.5 s on the 2-core
reference box: the driver allows about twenty seconds per invocation,
set-up and warm-up included, and a run needs three rounds or more.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench import BENCHMARKS
from repro.compiler import ArtifactStore
from repro.fabric import DE10
from repro.fuzz.gen import GrammarWeights, generate
from repro.harness.common import (
    DEFAULT_SERVE_MIX, arrival_trace, bench_source_kwargs, bench_vfs,
)
from repro.serve import FleetConfig, ServeConfig, ServeFrontend

from e2e_check import Reference, served_digest
from e2e_trace import Plain, Proxies, Span, Tracer

HERE = Path(__file__).resolve().parent

#: near-instant modeled synthesis, as in benchmarks/test_perf_serve.py:
#: the benchmark measures the serving stack, not the modeled
#: place-and-route latency
FAST = dataclasses.replace(DE10, compile_seconds=0.05, reconfig_seconds=0.01)

#: latency limit of the open-loop workload (``slo_attainment``)
SLO_MS = 100.0

#: an enable-gated counter that parks itself: once n reaches the park
#: value nothing is sensitive to the clock any more, so the event
#: scheduler can prove the design idle and fast-forward it
SLEEPER = """
module sleeper(input wire clock);
  reg [7:0] n = 0;
  wire go;
  assign go = (n != {park});
  always @(posedge clock) if (go) n <= n + 1;
endmodule
"""

#: free-running counter with output: the text of tests/serve's APP_FOREVER
#: (copied, so the benchmark imports nothing from tests/).  The
#: combinational mix keeps it inside the vectorizable subset.
COUNTER = """
module app(input wire clock);
  reg [31:0] n;
  reg [31:0] acc;
  wire [31:0] twist;
  assign twist = acc ^ (n << {shift});
  initial n = 0;
  initial acc = 1;
  always @(posedge clock) begin
    n <= n + 1;
    acc <= acc + (acc << 1) + n + (twist & 32'h f);
    if (n % 7 == 0) $display("n=%0d acc=%0d", n, acc);
  end
endmodule
"""


@dataclass(frozen=True)
class Job:
    """One tenant to submit."""

    name: str
    label: str              #: design label; (label, ticks) keys the checks
    source: str
    ticks: int
    priority: str = "normal"
    tenant: str = "default"
    bench: Optional[str] = None   #: Table-1 name whose input file it reads
    at: float = 0.0               #: due time, open loop only

    @property
    def key(self) -> str:
        return f"{self.label}@{self.ticks}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: Callable[[int, bool], List[Job]]   #: (seed, smoke) → tenants
    boards: int
    fleet: Dict[str, object]
    serve: Dict[str, object]
    warm: bool = True         #: canaries served over the round's store first
    #: False when the workload's own tenants are canary-length already
    canary_pass: bool = True
    open_loop: bool = False
    durable: bool = False
    checkpoint_every: int = 8
    #: listed in BENCHMARK.json, i.e. gated by the driver's bounds.  Two
    #: workloads are measured and checked but too noisy on a shared host
    #: to gate on (README: "Not gated").
    gated: bool = True


# -- inputs ------------------------------------------------------------------


# A seed picks *which* inputs, never *how much* work: a run is compared
# with runs on other seeds, so designs, orders, data blocks and tick
# budgets vary while mix and total size are held to fixed profiles.


def _mips32() -> str:
    return BENCHMARKS["mips32"].source(imem_words=64, dmem_words=64)


def _bitcoin(rng: random.Random) -> str:
    return BENCHMARKS["bitcoin"].source(rng.randbytes(32), target=1)


def _df() -> str:
    # Its LCG seed stays the default: df's work per tick follows its data.
    return BENCHMARKS["df"].source(iters=1 << 30)


#: source length (chars) of ``generate(seed, GrammarWeights(finish_prob=0))``
#: at the 5th, 10th, ... 95th percentile, measured over 400 seeds
_FUZZ_CHARS = (635, 794, 916, 1059, 1169, 1314, 1471, 1604, 1713, 1884,
               2024, 2195, 2300, 2457, 2666, 2881, 3191, 3551, 4212)


def _fuzz_designs(seed: int, n: int) -> List[Tuple[int, str]]:
    """*n* distinct generated designs whose sizes follow ``_FUZZ_CHARS``.

    Compile cost tracks source size (r = 0.91), and a plain draw of 110
    designs moves the total by +-6 % from seed to seed; so 2n candidates
    are generated and each rung of the fixed size ladder takes the
    unused candidate nearest to it.
    """
    weights = GrammarWeights(finish_prob=0.0)
    pool = []
    for i in range(2 * n):
        gen_seed = seed * 10000 + i
        pool.append((gen_seed, generate(gen_seed, weights).source))
    picked = []
    for rung in range(n):
        position = (rung + 0.5) / n * (len(_FUZZ_CHARS) - 1)
        low = int(position)
        high = min(low + 1, len(_FUZZ_CHARS) - 1)
        chars = _FUZZ_CHARS[low] + (position - low) * (
            _FUZZ_CHARS[high] - _FUZZ_CHARS[low])
        best = min(range(len(pool)),
                   key=lambda i: abs(len(pool[i][1]) - chars))
        picked.append(pool.pop(best))
    random.Random(seed).shuffle(picked)
    return picked


def cold_compile_jobs(seed: int, smoke: bool) -> List[Job]:
    names = ("mips32", "regex") if smoke else tuple(BENCHMARKS)
    jobs = [Job(f"t1-{n}", f"table1-{n}",
                BENCHMARKS[n].source(**bench_source_kwargs(n)), 8, bench=n)
            for n in names]
    for i, (gen_seed, source) in enumerate(
            _fuzz_designs(seed, 6 if smoke else 110)):
        jobs.append(Job(f"fz-{i}", f"fuzz-{gen_seed}", source, 8))
    return jobs


def steady_tick_jobs(seed: int, smoke: bool) -> List[Job]:
    rng = random.Random(seed)
    mips, coin, df = _mips32(), _bitcoin(rng), _df()
    m, b, d = (200, 16, 200) if smoke else (20000, 800, 13000)
    # Submission order is fixed: with eight tenants the median TTFT is
    # whoever is fourth in line.
    return [Job("mips-0", "mips32", mips, m), Job("df-0", "df", df, d),
            Job("coin-0", "bitcoin", coin, b), Job("mips-1", "mips32", mips, m),
            Job("df-1", "df", df, d), Job("coin-1", "bitcoin", coin, b),
            Job("mips-2", "mips32", mips, m), Job("df-2", "df", df, d)]


def cohort_burst_jobs(seed: int, smoke: bool) -> List[Job]:
    rng = random.Random(seed)
    lanes, side, ticks = (8, 3, 64) if smoke else (128, 12, 3000)
    mips, df = _mips32(), _df()
    counter = COUNTER.format(shift=1 + rng.randrange(7))
    jobs = [Job(f"mips-{i}", "mips32", mips, ticks) for i in range(lanes)]
    jobs += [Job(f"df-{i}", "df", df, ticks) for i in range(side)]
    jobs += [Job(f"ctr-{i}", "counter", counter, ticks) for i in range(side)]
    return jobs


#: tick-budget bands a trace's budgets are dealt evenly across
_TICK_BANDS = 4
#: the trace seed whose designs every trace serves
DESIGN_SEED = 11


#: the mix of a smoke trace: no bitcoin (its reference interpreter runs
#: at 30 ticks/s) and three smalls instead of six
_SMOKE_MIX = (("mips32", 2.0), ("fuzz", 5.0))


def _trace_jobs(seed: int, n: int, *, rate_hz: float = 50.0,
                mix=DEFAULT_SERVE_MIX, fuzz_pool: int = 6,
                ticks_range: Tuple[int, int] = (8, 48)) -> List[Job]:
    """*n* arrivals of ``arrival_trace(seed, ...)``, stratified.

    The generator draws design, tick budget and priority independently
    per arrival, so the bitcoin share (a tick of it costs ~100 mips32
    ticks) moves total work by +-10 % between seeds.  Here a six times
    longer trace is walked in order and an arrival is kept only while
    its (design, tick band) cell has room: every seed gets the same
    mix and the same spread of budgets, in its own order and Poisson
    gaps.  Due times are the first *n* of the trace, scaled to end at
    n / rate.
    """
    trace = dict(rate_hz=rate_hz, mix=mix, fuzz_pool=fuzz_pool,
                 ticks_range=ticks_range)
    pool = arrival_trace(seed, 6 * n, **trace)
    shares = {name: weight for name, weight in mix if name != "fuzz"}
    shares.update({f"fuzz-{i}": dict(mix).get("fuzz", 0.0) / fuzz_pool
                   for i in range(fuzz_pool)})
    total = sum(shares.values())
    quota = {name: int(n * share / total) for name, share in shares.items()}
    for name in sorted(shares, key=lambda k: -shares[k]):   # hand out the rest
        if sum(quota.values()) < n:
            quota[name] += 1
    low, high = ticks_range
    width = (high - low + 1) / _TICK_BANDS
    room: Dict[Tuple[str, int], int] = {}
    for name, count in quota.items():
        for band in range(_TICK_BANDS):
            room[(name, band)] = (count + _TICK_BANDS - 1 - band) // _TICK_BANDS
    kept = []
    for arrival in pool:
        cell = (arrival.design, int((arrival.ticks - low) / width))
        if room.get(cell, 0) > 0:
            room[cell] -= 1
            kept.append(arrival)
            if len(kept) == n:
                break
    if len(kept) < n:
        raise RuntimeError(f"trace of {len(pool)} arrivals cannot fill the "
                           f"mix for {n} tenants (seed {seed})")
    scale = (n / rate_hz) / pool[n - 1].at
    # The designs themselves are those of one fixed trace seed: a
    # latency percentile sits inside one design's service time, and six
    # freshly generated smalls per seed move it by a third.
    sources = {a.design: a.source
               for a in arrival_trace(DESIGN_SEED, 64 * len(shares), **trace)}
    return [Job(a.name, a.design, sources[a.design], a.ticks, a.priority,
                a.tenant, at=due.at * scale)
            for a, due in zip(kept, pool)]


def _smoke_trace(seed: int, n: int, **kwargs) -> List[Job]:
    return _trace_jobs(seed, n, mix=_SMOKE_MIX, fuzz_pool=3, **kwargs)


def serve_burst_jobs(seed: int, smoke: bool) -> List[Job]:
    if smoke:
        return _smoke_trace(seed, 16)
    return _trace_jobs(seed, 768)


#: fixed offered rate of ``serve_paced`` (tenants/s)
PACED_RATE_HZ = 120.0


def serve_paced_jobs(seed: int, smoke: bool,
                     rate_hz: float = PACED_RATE_HZ) -> List[Job]:
    if smoke:
        return _smoke_trace(seed + 1, 16, rate_hz=200.0)
    # No bitcoin here: one 12-17 ms bitcoin turn blocks the loop for four
    # median service times, and which tenants queue behind it decides p50
    # and p95 anew on every run (IQR 11 % / 40 % over seeds, against
    # 3 % / 13 % without).  serve_burst and durable_restart keep it.
    return _trace_jobs(seed + 1, int(rate_hz * 2.5), rate_hz=rate_hz,
                       mix=(("mips32", 2.0), ("fuzz", 5.0)))


def idle_fleet_jobs(seed: int, smoke: bool) -> List[Job]:
    rng = random.Random(seed)
    sleeper = SLEEPER.format(park=3 + rng.randrange(5))
    active, idle, a_ticks, i_ticks = ((2, 14, 100, 2000) if smoke
                                      else (12, 300, 2000, 4000))
    jobs = [Job(f"mips-{i}", "mips32", _mips32(), a_ticks)
            for i in range(active)]
    jobs += [Job(f"idle-{i}", "sleeper", sleeper, i_ticks)
             for i in range(idle)]
    return jobs


def durable_restart_jobs(seed: int, smoke: bool) -> List[Job]:
    if smoke:
        return _smoke_trace(seed + 2, 8, ticks_range=(48, 160))
    return _trace_jobs(seed + 2, 96, ticks_range=(48, 160))


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "cold_compile",
        "6 Table-1 + 110 distinct fuzz designs x 8 ticks on a cold store: "
        "every tenant is a store miss, so parse..codegen do the work and "
        "ticking almost none",
        cold_compile_jobs, boards=1,
        fleet=dict(board_capacity=0, cohorts=False),
        serve=dict(max_running=8, checkpoint_on_preempt=False),
        warm=False, canary_pass=False),
    Workload(
        "steady_tick",
        "8 long tenants (3 mips32, 2 bitcoin, 3 df; 101k ticks) on a warm "
        "store, cohorts off: the scalar event-plan tick loop does the work "
        "and the compiler almost none",
        steady_tick_jobs, boards=1,
        fleet=dict(board_capacity=0, cohorts=False),
        serve=dict(max_running=8, quantum_ticks=256,
                   checkpoint_on_preempt=False)),
    Workload(
        "cohort_burst",
        "128 mips32 + 12 counter + 12 df x 3000 ticks, cohorts on: the "
        "vector carrier does the ticks, one cohort above and one below its "
        "~16-lane break-even; df (128-bit signals) falls back to scalar",
        cohort_burst_jobs, boards=1,
        fleet=dict(board_capacity=0, cohorts=True),
        serve=dict(max_running=None, quantum_ticks=64,
                   checkpoint_on_preempt=False)),
    Workload(
        "serve_burst",
        "768-tenant mixed trace all in flight at once on 3 boards + "
        "software: saturated multi-tenant mix where admission, slicing and "
        "cohort forming are themselves hot",
        serve_burst_jobs, boards=3,
        fleet=dict(board_capacity=4, cohorts=True),
        serve=dict(max_running=None, quantum_ticks=32,
                   checkpoint_on_preempt=False)),
    Workload(
        "serve_paced",
        "open loop, Poisson at a fixed 120 tenants/s, designs registered: "
        "boards drain as they fill, so tenants take the hardware path that "
        "serve_burst barely touches",
        serve_paced_jobs, boards=3,
        fleet=dict(board_capacity=4, cohorts=True),
        serve=dict(max_running=64, quantum_ticks=32,
                   checkpoint_on_preempt=False),
        open_loop=True),
    Workload(
        "idle_fleet",
        "300 self-parking sleepers (4000-tick target) + 12 active mips32, "
        "cohorts on: the idle proof and fast-forward retire most sleepers; "
        "the ones caught in cohort lanes tick every tick",
        idle_fleet_jobs, boards=1,
        fleet=dict(board_capacity=0, cohorts=True),
        serve=dict(max_running=16, checkpoint_on_preempt=False),
        gated=False),
    Workload(
        "durable_restart",
        "96-tenant trace over a disk store + journal, killed at half done, "
        "recovered by a second process: journal and disk writes, then "
        "replay, disk loads and interpreter start",
        durable_restart_jobs, boards=2,
        fleet=dict(board_capacity=4, cohorts=True),
        serve=dict(max_running=32, quantum_ticks=16,
                   checkpoint_on_preempt=True),
        warm=False, durable=True, checkpoint_every=4, gated=False),
)}


def canary_ticks(label: str, smoke: bool = False) -> int:
    """A target short enough for the reference interpreter (bitcoin and
    nw run at tens to hundreds of reference ticks a second)."""
    if "bitcoin" in label or label.endswith("nw"):
        return 2 if smoke else 8
    return 128


def canaries(jobs: List[Job], smoke: bool = False) -> List[Job]:
    """One short tenant per distinct design, in first-seen order."""
    seen: Dict[str, Job] = {}
    for job in jobs:
        if job.label not in seen:
            seen[job.label] = Job(f"canary-{job.label}", job.label,
                                  job.source, canary_ticks(job.label, smoke),
                                  bench=job.bench)
    return list(seen.values())


# -- one stack ---------------------------------------------------------------


def build_stack(workload: Workload, classes, store, n_jobs: int):
    """Fresh service, hypervisors, fleet and serve policy over *store*."""
    service = classes.CompilerService(store)
    hypervisors = [classes.Hypervisor(FAST, compiler=service)
                   for _ in range(workload.boards)]
    fleet = classes.Fleet(hypervisors, FleetConfig(**workload.fleet),
                          checkpoint_every=workload.checkpoint_every)
    serve = dict(workload.serve)
    if serve.get("max_running") is None:
        serve["max_running"] = n_jobs + 8   # everything in flight at once
    config = ServeConfig(max_queue=n_jobs + 8, per_tenant=n_jobs + 8,
                         **serve)
    return service, fleet, config


async def _submit(frontend: ServeFrontend, job: Job, digest=None):
    vfs = bench_vfs(job.bench) if job.bench else None
    if digest is not None:
        return await frontend.submit(digest=digest, ticks=job.ticks,
                                     priority=job.priority,
                                     tenant=job.tenant, name=job.name,
                                     vfs=vfs)
    return await frontend.submit(job.source, ticks=job.ticks,
                                 priority=job.priority, tenant=job.tenant,
                                 name=job.name, vfs=vfs)


def sample_of(job: Job, submit: float, done: float, result=None,
              error: Optional[BaseException] = None, late: float = 0.0) -> dict:
    """What the benchmark keeps of one tenant (times on its own clock)."""
    ok = result is not None and result.status in ("completed", "finished")
    return {
        "name": job.name, "key": job.key, "priority": job.priority,
        "submit": submit, "done": done, "late_s": late,
        "ok": ok,
        "error": repr(error) if error is not None else None,
        "digest": served_digest(result) if ok else None,
        "ttft_s": result.ttft_s if ok else None,
        "ticks": result.ticks if ok else 0,
        "sim_time": result.sim_time if ok else 0.0,
        "destination": result.destination if ok else None,
    }


async def serve_jobs(frontend: ServeFrontend, jobs: List[Job],
                     open_loop: bool = False,
                     stop_after: Optional[int] = None,
                     clock=time.perf_counter) -> Tuple[List[dict], float, int]:
    """Drive *jobs* through *frontend*; returns (samples, wall, refused).

    Closed burst: every tenant is submitted before the scheduler's first
    turn (``submit`` never yields), latency runs from its own submit.
    Open loop: tenants are sent at their due times whatever has
    completed, by digest, and latency runs from the *due* time.  One
    waiter task per handle stamps the moment ``result()`` resolves.
    *stop_after* ends the round once that many tenants are done (the
    no-journal twin of ``durable_restart``'s phase A).
    """
    samples: List[dict] = []
    waiters: List[asyncio.Task] = []
    refused = 0
    half = asyncio.Event()

    async def wait(job: Job, handle, submit: float, late: float) -> None:
        try:
            result = await handle.result()
            samples.append(sample_of(job, submit, clock(), result, late=late))
        except Exception as err:   # a failed tenant is a sample, not a crash
            samples.append(sample_of(job, submit, clock(), error=err,
                                     late=late))
        if stop_after is not None and len(samples) >= stop_after:
            half.set()

    digests: Dict[str, str] = {}
    if open_loop:
        for job in jobs:
            if job.source not in digests:
                digests[job.source] = frontend.register(job.source)
    start = clock()
    for job in jobs:
        due, late = clock(), 0.0
        if open_loop:
            due = start + job.at
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            late = max(0.0, clock() - due)
        try:
            handle = await _submit(frontend, job, digests.get(job.source))
        except Exception as err:   # refused at the door: counts as failed
            refused += 1
            samples.append(sample_of(job, due, clock(), error=err, late=late))
            continue
        waiters.append(asyncio.ensure_future(wait(job, handle, due, late)))
    if stop_after is not None:
        await half.wait()
        for task in waiters:
            task.cancel()
        await asyncio.gather(*waiters, return_exceptions=True)
    else:
        await asyncio.gather(*waiters)
    return samples, clock() - start, refused


# -- one round ---------------------------------------------------------------


@dataclass
class Round:
    """Everything measured in one round of one workload."""

    wall_s: float
    setup_s: float
    samples: List[dict]
    refused: int = 0
    #: counts read from public ``stats()`` after the round
    counters: Dict[str, float] = field(default_factory=dict)
    #: span groups (``serve``, or ``phase-A``/``phase-B``) — traced rounds
    spans: Dict[str, List[Span]] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    #: durable_restart only: phase walls on the shared monotonic clock
    phases: Dict[str, float] = field(default_factory=dict)
    canary_samples: List[dict] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        """Wall time with at least one tenant in flight (the whole wall
        for a closed burst; excludes generator waits in the open loop)."""
        busy, edge = 0.0, None
        for s in sorted(self.samples, key=lambda s: s["submit"]):
            if edge is None or s["submit"] > edge:
                busy += s["done"] - s["submit"]
                edge = s["done"]
            elif s["done"] > edge:
                busy += s["done"] - edge
                edge = s["done"]
        return busy


def rss_mb() -> float:
    """This process's peak resident set.  ``VmHWM`` where /proc has it:
    ``ru_maxrss`` survives exec, so in a child it starts at the size of
    the parent that spawned it."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def read_counters(frontend: ServeFrontend, service) -> Dict[str, float]:
    """The counts the per-layer metrics take from public ``stats()``."""
    stats = frontend.stats()
    fleet = stats["fleet"]
    total = service.stats()
    out = {
        "serve.turns": stats["turns"],
        "serve.preemptions": stats["slicer"]["preemptions"],
        "serve.idle_skips": stats["slicer"]["idle_skips"],
        "serve.placements_hw": stats["placement"]["hardware"],
        "serve.placements_sw": stats["placement"]["software"],
        "serve.rebalances": stats["placement"]["rebalances"],
        "hypervisor.cohorts_formed": fleet["cohorts"]["formed"],
        "hypervisor.lane_divergence": fleet["cohorts"]["lane_divergence"],
        "hypervisor.idle_fastforwards": fleet["idle_fastforwards"],
        "hypervisor.recoveries": fleet["recoveries"],
        "hypervisor.abi_msgs": sum(h["abi_requests"]
                                   for h in stats["hypervisors"]),
        "fabric.reprograms": sum(h["reconfigurations"]
                                 for h in stats["hypervisors"]),
        "compiler.hits": total.hits,
        "compiler.misses": total.misses,
        "compiler.disk_hits": total.disk_hits,
    }
    journal = stats.get("journal")
    if journal is not None:
        out["hypervisor.durable.records"] = journal["records_written"]
        out["hypervisor.durable.snapshots"] = journal["snapshots_written"]
    return out


class Runner:
    """Generates one workload's inputs and runs rounds of it."""

    def __init__(self, workload: Workload, seed: int, smoke: bool,
                 out_dir: Path, reference: Optional[Reference] = None):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.out_dir = out_dir
        self.reference = reference or Reference()
        self.reference_s = 0.0

    # -- set-up: inputs, store, canary pass ---------------------------------

    def _serve_canaries(self, store, jobs: List[Job]) -> List[dict]:
        """Serve one short tenant per design through a scratch stack of
        the workload's shape.  Over the round's own store this is also
        the priming that makes a workload *warm*."""
        probes = canaries(jobs, self.smoke)

        async def main():
            _, fleet, config = build_stack(self.workload, Plain, store,
                                           len(probes))
            async with ServeFrontend(fleet, config) as frontend:
                samples, _, _ = await serve_jobs(frontend, probes)
                return samples

        samples = asyncio.run(main())
        if self.workload.fleet["board_capacity"] > 0:
            # A first placement waits out the modeled synthesis and a
            # short canary retires before it ends; the second pass hits
            # the bitstream cache, moves onto the board at once, and so
            # builds the slot code the first pass never reached.
            samples += [dict(s, name=s["name"] + "-hw")
                        for s in asyncio.run(main())]
        return samples

    def run(self, traced: bool = False) -> Round:
        """Set up (timed as ``setup_s``), then one measured round."""
        workload = self.workload
        t0 = time.perf_counter()
        jobs = workload.jobs(self.seed, self.smoke)
        store = ArtifactStore()
        canary_samples = []
        if workload.canary_pass:
            # A cold workload keeps its store cold: scratch store instead.
            canary_samples = self._serve_canaries(
                store if workload.warm else ArtifactStore(), jobs)
        if workload.durable:
            return self._run_durable(jobs, traced, t0, canary_samples)
        classes = Proxies(Tracer()) if traced else Plain
        service, fleet, config = build_stack(workload, classes, store,
                                             len(jobs))
        # What the harness holds (earlier rounds' samples, reference
        # results, the canary stacks) is not the server's garbage: take
        # it out of the collector's way, or full collections over it
        # land as 30 ms stalls on whichever tenant is in service.
        gc.collect()
        gc.freeze()
        setup_s = time.perf_counter() - t0

        async def main():
            async with ServeFrontend(fleet, config) as frontend:
                samples, wall, refused = await serve_jobs(
                    frontend, jobs, open_loop=workload.open_loop)
                return samples, wall, refused, read_counters(frontend,
                                                             service)

        try:
            samples, wall, refused, counters = asyncio.run(main())
        finally:
            gc.unfreeze()
        spans = {"serve": classes.tracer.spans} if traced else {}
        return Round(wall, setup_s, samples, refused, counters, spans,
                     rss_mb(), canary_samples=canary_samples)

    # -- durable_restart: two child processes -------------------------------

    def _child(self, phase: str, workdir: str, traced: bool) -> dict:
        """Run one phase to its end; returns what it wrote.  ``spawn`` is
        stamped on the monotonic clock both processes share."""
        spec = {"phase": phase, "seed": self.seed, "smoke": self.smoke,
                "traced": traced, "workdir": workdir}
        spawn = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "e2e_durable_child.py"),
             json.dumps(spec)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=150)
        expected = 9 if phase == "A" else 0
        report_path = os.path.join(workdir, f"phase-{phase}.json")
        if proc.returncode != expected or not os.path.exists(report_path):
            raise RuntimeError(
                f"durable_restart phase {phase} exited {proc.returncode}: "
                f"{proc.stderr.decode(errors='replace')[-2000:]}")
        with open(report_path) as fh:
            report = json.load(fh)
        report["spawn"] = spawn
        return report

    def _run_durable(self, jobs: List[Job], traced: bool, t0: float,
                     canary_samples: List[dict]) -> Round:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="durable-", dir=self.out_dir)
        setup_s = time.perf_counter() - t0
        try:
            a = self._child("A", workdir, traced)
            # What recovery has to read: bytes on disk at the crash.
            disk_bytes = _tree_bytes(os.path.join(workdir, "art"))
            snapshot_bytes = _tree_bytes(
                os.path.join(workdir, "jnl", "snapshots"))
            b = self._child("B", workdir, traced)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        phases = {
            "a_wall_s": a["crash"] - a["spawn"],
            "recovery_s": b["last_done"] - b["spawn"],
            "restart_import_s": b["imported"] - b["spawn"],
            "a_serve_s": a["crash"] - a["first_submit"],
            "b_serve_s": b["last_done"] - b["recover_start"],
        }
        # A tenant retired by B was submitted in A: its latency spans the
        # crash and the restart (one monotonic clock across processes).
        submitted = a["submitted"]
        samples = list(a["samples"])
        for sample in b["samples"]:
            sample["submit"] = submitted.get(sample["name"], sample["submit"])
            samples.append(sample)
        lost = set(submitted) - {s["name"] for s in samples}
        by_name = {job.name: job for job in jobs}
        for name in sorted(lost):   # neither retired nor recovered
            samples.append(sample_of(by_name[name], submitted[name],
                                     b["last_done"],
                                     error=RuntimeError("lost in restart")))
        counters = dict(b["counters"])
        for key, value in a["counters"].items():
            counters[key] = counters.get(key, 0) + value
        counters["compiler.disk_bytes"] = disk_bytes
        counters["hypervisor.durable.snapshot_bytes"] = snapshot_bytes
        spans = {}
        if traced:
            spans = {"phase-A": [_span_from(d) for d in a["spans"]],
                     "phase-B": [_span_from(d) for d in b["spans"]]}
        wall = phases["a_wall_s"] + phases["recovery_s"]
        return Round(wall, setup_s, samples, a["refused"], counters, spans,
                     max(a["rss_mb"], b["rss_mb"]), phases, canary_samples)

    def plain_half_wall(self) -> float:
        """``durable_restart``'s trace served in-process with no journal
        and no disk until half the tenants are done: what phase A costs
        without durability."""
        jobs = self.workload.jobs(self.seed, self.smoke)
        _, fleet, config = build_stack(self.workload, Plain, ArtifactStore(),
                                       len(jobs))

        async def main():
            frontend = ServeFrontend(fleet, config)
            try:
                _, wall, _ = await serve_jobs(frontend, jobs,
                                              stop_after=len(jobs) // 2)
                return wall
            finally:
                await frontend.close()

        return asyncio.run(main())

    # -- checks -------------------------------------------------------------

    def wrong_canaries(self, round_: Round, jobs: List[Job]) -> List[str]:
        """Served tenants that differ from the reference interpreter.

        Warm workloads: the canary pass.  ``cold_compile``: its tenants
        are canary-length already, so the round's own results are
        compared (Table-1 designs and every fourth generated one — the
        reference costs about what the cold compile does).
        """
        t0 = time.perf_counter()
        served = {s["key"]: s for s in round_.canary_samples}
        if self.workload.canary_pass:
            probes = canaries(jobs, self.smoke)
        else:
            probes = [j for i, j in enumerate(jobs) if j.bench or i % 4 == 0]
            served = {s["key"]: s for s in round_.samples}
        wrong = []
        for job in probes:
            sample = served.get(job.key)
            if sample is None:
                continue
            vfs = bench_vfs(job.bench) if job.bench else None
            expected = self.reference.digests(job.source, [job.ticks],
                                              vfs)[job.ticks]
            if sample["digest"] != expected:
                wrong.append(sample["name"])
        self.reference_s += time.perf_counter() - t0
        return wrong


def _tree_bytes(root: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(root):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total


def _span_from(data: dict) -> Span:
    span = Span(data["name"], data["start"], data["parent"], data["tenant"])
    span.end = data["end"]
    span.attrs = data.get("attrs")
    return span
