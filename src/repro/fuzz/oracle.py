"""The differential conformance oracle.

Runs one program through every execution path the stack offers and
compares the observable behaviour bit-for-bit:

* ``interp`` — the reference tree-walking interpreter (the oracle);
* ``compiled`` — the compile-to-closures simulation backend;
* ``batched`` — the vector carrier as cohorts ship it: the program as
  lane 0 of a two-lane :class:`~repro.interp.compile.batch.BatchedCohort`
  beside a twin a few ticks ahead, a default lane whenever NumPy is
  importable (a program outside the vector subset is reported as not
  vectorized, not compared);
* ``board`` — a :class:`~repro.runtime.runtime.Runtime` that JITs onto
  a single-tenant :class:`~repro.runtime.backends.DirectBoardBackend`
  after its first software tick, exercising the §3 transform, the
  Cascade ABI, trap servicing, and the content-addressed compiler
  cache;
* ``lifecycle`` — a hypervisor schedule that injects suspend/resume,
  software evacuation, and cross-device migration at seeded random
  cycles (the §3.5/§6.1 flows), with an optional co-tenant to force
  coalescing handshakes, over a cold private store: the program rents
  the interpreter for a seeded prefix and tiers up mid-run.

Equality basis: the ``$display`` trace, the finish status/code, and
the final values of every architectural register, integer and memory
of the flattened module.  Wires are excluded — after a mid-tick
``$finish`` both paths abort evaluation at the same *logical* point
but at different micro-steps of combinational settling, and wire
values are a pure function of the compared registers anyway.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..compiler.artifacts import ArtifactStore
from ..compiler.service import CompilerService
from ..core.pipeline import CompiledProgram
from ..fabric import DE10, F1
from ..hypervisor import Hypervisor
from ..hypervisor.migration import migrate, resume, suspend
from ..interp import Simulator, TaskHost
from ..interp.compile import CompiledSimulator
from ..interp.compile.batch import HAVE_NUMPY, BatchedCohort, BatchUnsupported
from ..runtime import DirectBoardBackend, Runtime
from ..verilog import ast_nodes as ast

#: Execution paths, in comparison order; ``interp`` is the reference.
#: ``compiled`` is the scalar event plan (heap prefix, gates, generated
#: period, idle proof).  The vectorized ``batched`` lane (bit-for-bit
#: against the same oracle) joins the defaults whenever NumPy is
#: importable.
DEFAULT_PATHS = ("interp", "compiled", "board", "lifecycle")
if HAVE_NUMPY:
    DEFAULT_PATHS = DEFAULT_PATHS + ("batched",)

#: All recognized paths: the defaults plus the batched lane (opt-in
#: without NumPy, where selecting it raises ``UnsupportedBackend``),
#: the crash-recovery schedule (``python -m repro.fuzz --schedule
#: crash``), and the restart-recovery schedule (``--schedule
#: restart``), which kills a whole serving process mid-flight and
#: recovers a fresh one from the durable journal.  Both are opt-in
#: because they exercise the supervisor/serving layers rather than the
#: compiler pipeline.
ALL_PATHS = ("interp", "compiled", "board", "lifecycle",
             "batched", "crash", "restart")

#: Tiny co-resident tenant used to force coalescing/handshake traffic
#: on the lifecycle path's first hypervisor.
_COTENANT_SRC = """
module cotenant(input wire clock);
  reg [15:0] n = 0;
  always @(posedge clock) n <= n + 1;
endmodule
"""


def state_names(flat: ast.Module) -> List[str]:
    """Architectural state of a flattened module: regs, integers, mems."""
    return [decl.name for decl in flat.decls()
            if decl.kind in ("reg", "integer")]


@dataclass
class RunResult:
    """Observable behaviour of one program along one execution path."""

    path: str
    display: Tuple[str, ...] = ()
    finished: bool = False
    finish_code: int = 0
    state: Dict[str, object] = field(default_factory=dict)
    error: Optional[str] = None
    #: why the path did not run this program (nothing to compare)
    skipped: Optional[str] = None
    #: runtimes that left the interpreter for compiled code mid-run
    tier_ups: int = 0

    def summary(self) -> str:
        if self.error is not None:
            return f"{self.path}: ERROR {self.error}"
        if self.skipped is not None:
            return f"{self.path}: {self.skipped}"
        return (f"{self.path}: {len(self.display)} lines, "
                f"finished={self.finished}({self.finish_code})")


@dataclass
class Mismatch:
    """One field where a path disagrees with the reference."""

    path: str
    field: str
    expected: object
    actual: object

    def describe(self) -> str:
        return (f"[{self.path}] {self.field}: "
                f"expected {self.expected!r}, got {self.actual!r}")


@dataclass
class Report:
    """Everything one conformance check produced."""

    label: str
    ticks: int
    results: Dict[str, RunResult]
    mismatches: List[Mismatch]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        lines = [f"{self.label}: {len(self.mismatches)} divergence(s) "
                 f"over {self.ticks} ticks"]
        lines += ["  " + m.describe() for m in self.mismatches[:12]]
        return "\n".join(lines)


# -- path runners ----------------------------------------------------------


def _result_from_host(path: str, host: TaskHost, display: Sequence[str],
                      state: Dict[str, object]) -> RunResult:
    return RunResult(
        path=path,
        display=tuple(display),
        finished=host.finished,
        finish_code=host.finish_code,
        state=state,
    )


def _run_sim(program: CompiledProgram, ticks: int, backend: str,
             service: CompilerService,
             opt_level: Optional[int] = None,
             path_name: Optional[str] = None) -> RunResult:
    host = TaskHost()
    code = None
    if backend == "compiled":
        code = service.codegen(program.flat, env=program.env,
                               digest=program.digest, opt_level=opt_level)
    sim = Simulator(program.flat, host, env=program.env,
                    backend=backend, code=code)
    sim.tick(cycles=ticks)
    names = state_names(program.flat)
    return _result_from_host(path_name or backend, host, host.display_log,
                             sim.store.snapshot(names))


def _run_batched(program: CompiledProgram, ticks: int,
                 service: CompilerService, seed: int) -> RunResult:
    """The program as lane 0 of a cohort, built from the artifact
    ``CohortEngine`` ships, beside a twin lane restored from a scalar
    run ``1 + seed % 7`` ticks ahead — so the lanes hold different
    states from the first tick and a branch on state diverges."""
    try:
        batch = service.batch(program.flat, env=program.env,
                              digest=program.digest)
    except BatchUnsupported as exc:
        return RunResult(path="batched", skipped=f"not vectorized: {exc}")
    cohort = BatchedCohort(batch)
    host = TaskHost()
    cohort.join(host)
    twin = CompiledSimulator(program.flat, TaskHost(), code=batch.code)
    twin.tick(cycles=1 + seed % 7)
    # A twin that has finished joins finished (and may hold its clock
    # high: the join re-primes edge detection rather than fire it).
    cohort.join(twin.host, state=twin.store.snapshot())
    cohort.times[1] = twin.time
    cohort.tick(ticks, "clock")
    return _result_from_host("batched", host, host.display_log,
                             cohort.snapshot_lane(0, state_names(program.flat)))


def _run_board(program: CompiledProgram, ticks: int,
               service: CompilerService) -> RunResult:
    runtime = Runtime(program, name="fz-board", compiler=service)
    backend = DirectBoardBackend(DE10, compiler=service)
    # JIT after one software tick: the first tick runs in software (as
    # every program starts, §2.1), the rest on the transformed module.
    runtime.tick(min(ticks, 1))
    if not runtime.finished and ticks > 1:
        runtime.attach(backend)
        runtime.transition_to_hardware()
        runtime.tick(ticks - 1)
    names = state_names(program.flat)
    return _result_from_host("board", runtime.host, runtime.host.display_log,
                             runtime.engine.snapshot(names))


#: Lifecycle actions legal from each engine mode.
_SW_ACTIONS = ("to_hw", "suspend_resume")
_HW_ACTIONS = ("migrate", "suspend_resume", "to_software")


def _run_lifecycle(program: CompiledProgram, ticks: int,
                   service: CompilerService, rng: random.Random) -> RunResult:
    hv_a = Hypervisor(DE10, compiler=service)
    hv_b = Hypervisor(F1, compiler=service)
    if rng.random() < 0.5:
        # Co-tenant arrival before ours: the placement below coalesces.
        cotenant = Runtime(_COTENANT_SRC, name="cotenant", compiler=service)
        cotenant.attach(hv_a.connect("cotenant"))
        cotenant.transition_to_hardware()
        cotenant.tick(3)

    n_events = min(rng.randint(1, 3), max(ticks - 1, 0))
    cycles = sorted(rng.sample(range(1, ticks), n_events)) if n_events else []

    cold = CompilerService(ArtifactStore())  # nobody bought codegen here
    current = Runtime(program, name="fz-0", compiler=cold)
    runtimes = [current]
    display: List[str] = []
    hypervisors = [hv_a, hv_b]
    generation = 0

    def fresh_runtime() -> Runtime:
        # Restore destinations boot quietly (quiet_boot) — their whole
        # display log counts toward the trace, so a regression that
        # replays initial-block output here shows up as a divergence.
        nonlocal generation
        generation += 1
        runtimes.append(Runtime(program, name=f"fz-{generation}",
                                compiler=cold, quiet_boot=True))
        return runtimes[-1]

    def attach_hw(runtime: Runtime, hv: Hypervisor) -> None:
        nonlocal generation
        generation += 1
        runtime.attach(hv.connect(f"fz-conn-{generation}"))
        runtime.transition_to_hardware()

    done = 0
    for cycle in cycles:
        # the first stretch promises its own length; later ones nothing
        current.tick(cycle - done, horizon=None if done else cycle)
        done = cycle
        if current.finished:
            break
        on_hw = current.mode == "hardware"
        action = rng.choice(_HW_ACTIONS if on_hw else _SW_ACTIONS)
        if action == "to_hw":
            attach_hw(current, rng.choice(hypervisors))
        elif action == "to_software":
            current.transition_to_software()
        elif action == "suspend_resume":
            context = suspend(current)
            display.extend(current.host.display_log)
            current = fresh_runtime()
            resume(current, context)
        else:  # migrate: hardware -> hardware on the other device
            target_hv = hv_b if current.backend is not None and \
                current.backend.device is DE10 else hv_a
            destination = fresh_runtime()
            attach_hw(destination, target_hv)
            display.extend(current.host.display_log)
            migrate(current, destination)
            current = destination
    current.tick(ticks - done)
    display.extend(current.host.display_log)
    names = state_names(program.flat)
    result = _result_from_host("lifecycle", current.host, display,
                               current.engine.snapshot(names))
    result.tier_ups = sum(event.tag == "tier_up" for runtime in runtimes
                          for event in runtime.telemetry)
    return result


def _run_crash(program: CompiledProgram, ticks: int,
               service: CompilerService, rng: random.Random) -> RunResult:
    """Crash-recovery schedule: kill the board at a random quiescence
    point and compare the supervised recovery against the reference.

    The timeline is seeded: one supervised stretch with checkpoints, a
    stretch *without* checkpoints (so recovery has real ticks to
    replay), then board death at a tick boundary.  The supervisor must
    quarantine, restore the last checkpoint onto the second hypervisor,
    and replay — with ``$display`` output and architectural state
    bit-identical to an uninterrupted run.
    """
    from ..hypervisor import Supervisor

    hv_a = Hypervisor(DE10, compiler=service)
    hv_b = Hypervisor(F1, compiler=service)
    supervisor = Supervisor([hv_a, hv_b],
                            checkpoint_every=rng.randint(2, 6))
    tenant = supervisor.admit("fz-crash", program)
    runtime = tenant.runtime
    if ticks >= 4 and not runtime.finished:
        supervisor.run("fz-crash", 1)  # first tick in software (§2.1)
        if runtime.mode != "hardware" and not runtime.finished:
            runtime.transition_to_hardware()
        budget = ticks - 1
        checkpointed = rng.randint(0, budget - 2)
        unprotected = rng.randint(1, budget - 1 - checkpointed)
        supervisor.run("fz-crash", checkpointed)
        # Advance past the last checkpoint outside the supervisor's
        # discipline, then kill the board between ticks.
        runtime.tick(unprotected)
        if not runtime.finished and tenant.host is not None:
            tenant.host.board.kill()
        supervisor.run("fz-crash", ticks - runtime.ticks)
    else:
        supervisor.run("fz-crash", ticks)
    runtime = tenant.runtime  # recovery may have re-hosted the tenant
    names = state_names(program.flat)
    return _result_from_host("crash", runtime.host,
                             runtime.host.display_log,
                             runtime.engine.snapshot(names))


def _run_restart(program: CompiledProgram, ticks: int,
                 service: CompilerService, rng: random.Random) -> RunResult:
    """Restart-recovery schedule: serve, die mid-flight, recover, finish.

    Phase one serves the program through a journaled
    :class:`~repro.serve.frontend.ServeFrontend` until roughly half the
    tick target, then hard-cancels the scheduler task — for a
    single-threaded cooperative process this *is* process death, which
    can only land at a turn boundary — and drops every in-memory
    object.  Phase two rebuilds compiler service, fleet, and frontend
    from nothing but the same on-disk artifact directory and tenant
    journal, replays, re-admits, and runs to completion.  The observed
    behaviour (display trace via the exactly-once replay cursor,
    finish status, architectural state) must be bit-identical to the
    uninterrupted reference.
    """
    import asyncio
    import tempfile

    from ..compiler.diskstore import DiskArtifactStore
    from ..hypervisor.durable import TenantJournal
    from ..serve import Fleet, ServeConfig, ServeFrontend

    name = "fz-restart"
    checkpoint_every = rng.randint(2, 6)
    quantum = rng.randint(2, 6)
    prewarm = rng.random() < 0.5  # else a short tenant stays interpreted

    def build_frontend(art: str, jnl: str) -> ServeFrontend:
        svc = CompilerService(ArtifactStore(disk=DiskArtifactStore(art)))
        if prewarm:
            svc.codegen(program.flat, env=program.env, digest=program.digest)
        fleet = Fleet([Hypervisor(DE10, compiler=svc),
                       Hypervisor(F1, compiler=svc)],
                      checkpoint_every=checkpoint_every)
        config = ServeConfig(max_running=2, quantum_ticks=quantum,
                             quiescence_every=64)
        return ServeFrontend(fleet, config, journal=TenantJournal(jnl))

    async def serve_with_restart(art: str, jnl: str):
        fe = build_frontend(art, jnl)
        handle = await fe.submit(program.source, ticks=ticks, name=name)
        kill_at = ticks // 2
        while not handle.done:
            tenant = fe.fleet.supervisor.tenants.get(name)
            if tenant is not None and tenant.runtime.ticks >= kill_at:
                break
            await asyncio.sleep(0)
        if handle.done:  # outran the killer: nothing to recover
            result = await handle.result()
            fe.journal.close()
            return result
        fe._task.cancel()
        try:
            await fe._task
        except asyncio.CancelledError:
            pass
        fe.journal.close()
        del fe  # the process is dead; only the disk survives

        fe2 = build_frontend(art, jnl)
        handles = await fe2.recover()
        result = await handles[name].result()
        await fe2.close()
        fe2.journal.close()
        return result

    with tempfile.TemporaryDirectory(prefix="repro-fz-restart-") as tmp:
        import os

        art = os.path.join(tmp, "artifacts")
        jnl = os.path.join(tmp, "journal")
        tenant_result = asyncio.run(serve_with_restart(art, jnl))
    return RunResult(
        path="restart",
        display=tuple(tenant_result.display),
        finished=tenant_result.finished,
        finish_code=tenant_result.finish_code,
        state=dict(tenant_result.state),
    )


# -- the oracle ------------------------------------------------------------


def _compare(reference: RunResult, candidate: RunResult) -> List[Mismatch]:
    out: List[Mismatch] = []
    if candidate.skipped is not None:
        return out
    if candidate.error is not None or reference.error is not None:
        # Crash behaviour must also conform: identical error text on
        # both paths (e.g. a shared iteration-limit guard) is the only
        # acceptable form of failure.
        if candidate.error != reference.error:
            out.append(Mismatch(candidate.path, "error",
                                reference.error, candidate.error))
        return out
    for fieldname in ("display", "finished", "finish_code"):
        expected = getattr(reference, fieldname)
        actual = getattr(candidate, fieldname)
        if expected != actual:
            out.append(Mismatch(candidate.path, fieldname, expected, actual))
    diff = {name for name in reference.state
            if reference.state[name] != candidate.state.get(name)}
    for name in sorted(diff):
        out.append(Mismatch(candidate.path, f"state[{name}]",
                            reference.state[name],
                            candidate.state.get(name)))
    return out


def check(source: Union[str, ast.Module, CompiledProgram], ticks: int,
          paths: Sequence[str] = DEFAULT_PATHS,
          service: Optional[CompilerService] = None,
          lifecycle_seed: int = 0,
          label: str = "program",
          opt_levels: Optional[Sequence[int]] = None) -> Report:
    """Run *source* along *paths* and compare against the interpreter.

    *service* is the (shared) compiler service — a long fuzz campaign
    passes one so every program exercises the content-addressed
    artifact store with fresh digests.  *lifecycle_seed* drives the
    random suspend/resume/migration schedule.  *opt_levels* expands
    the ``compiled`` path into one run per mid-end optimization level
    (e.g. ``(0, 2)`` cross-checks the O0 and O2 event plans, both
    against the interpreter); the board and
    lifecycle paths keep the ambient default level.
    """
    unknown = set(paths) - set(ALL_PATHS)
    if unknown:
        raise ValueError(f"unknown execution paths: {sorted(unknown)}; "
                         f"choose from {ALL_PATHS}")
    if ticks < 0:
        raise ValueError(f"ticks must be non-negative, got {ticks}")
    if service is None:
        service = CompilerService()
    program = (source if isinstance(source, CompiledProgram)
               else service.compile_program(source))
    results: Dict[str, RunResult] = {}
    runs: List[Tuple[str, "object"]] = []
    for path in ["interp"] + [p for p in paths if p != "interp"]:
        if path == "interp":
            runs.append((path, lambda: _run_sim(program, ticks, "interp",
                                                service)))
        elif path == "compiled" and opt_levels is not None:
            for level in opt_levels:
                name = f"compiled[O{level}]"
                runs.append((name, lambda lv=level, nm=name: _run_sim(
                    program, ticks, "compiled", service,
                    opt_level=lv, path_name=nm)))
        elif path == "compiled":
            runs.append((path, lambda: _run_sim(program, ticks, "compiled",
                                                service)))
        elif path == "batched":
            runs.append((path, lambda: _run_batched(program, ticks, service,
                                                    lifecycle_seed)))
        elif path == "board":
            runs.append((path, lambda: _run_board(program, ticks, service)))
        elif path == "crash":
            runs.append((path, lambda: _run_crash(
                program, ticks, service, random.Random(lifecycle_seed))))
        elif path == "restart":
            runs.append((path, lambda: _run_restart(
                program, ticks, service, random.Random(lifecycle_seed))))
        else:
            runs.append((path, lambda: _run_lifecycle(
                program, ticks, service, random.Random(lifecycle_seed))))
    for name, runner in runs:
        try:
            results[name] = runner()
        except Exception as exc:  # noqa: BLE001 — recorded, compared below
            results[name] = RunResult(path=name,
                                      error=f"{type(exc).__name__}: {exc}")
    reference = results["interp"]
    mismatches: List[Mismatch] = []
    for name, _ in runs:
        if name != "interp":
            mismatches.extend(_compare(reference, results[name]))
    return Report(label, ticks, results, mismatches)
