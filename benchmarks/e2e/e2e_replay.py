"""Stage replay: split what ``compile_program`` and ``admit_job`` hide.

After the traced round, each distinct design of the workload goes once
through the stage functions in pipeline order, every call under a span
of the same tracer.  This is the benchmark calling the stages, not a
patch of them: the numbers say what each stage costs on this
workload's designs, in isolation and single-shot.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from repro.compiler import ArtifactStore, CompilerService
from repro.harness.common import bench_vfs
from repro.core.machinify import machinify
from repro.core.statevars import analyze_state
from repro.hypervisor import rehydrate, suspend
from repro.interp.compile import CompiledModuleCode
from repro.opt import optimize_module
from repro.runtime import Runtime
from repro.serve import FleetConfig
from repro.verilog.elaborate import flatten
from repro.verilog.parser import parse
from repro.verilog.printer import print_module
from repro.verilog.width import WidthEnv

from e2e_trace import Plain, Tracer
from e2e_workloads import FAST, Job

#: scalar-run length per Table-1 family (bitcoin ticks are ~100x dearer)
SCALAR_TICKS = {"mips32": 2000, "bitcoin": 200, "df": 2000}
IDLE_TICKS = 100_000


def _family(label: str) -> str:
    return label.split("-")[-1] if label.startswith("table1-") else label


def replay(jobs: List[Job], tracer: Tracer,
           cohort_lanes: Dict[str, Tuple[str, int]],
           smoke: bool) -> Dict[str, float]:
    """Per-stage sums over the distinct designs of *jobs*.

    *cohort_lanes* maps design label → (metric suffix, lane count) for
    the vector dispatch runs (``cohort_burst`` only).
    """
    designs: Dict[str, Job] = {}
    for job in jobs:
        designs.setdefault(job.label, job)
    span = tracer.span
    chars = flat_chars = hw_chars = 0
    passes = nodes = 0
    parse_s = 0.0
    warm = CompilerService(ArtifactStore())
    instantiate, suspends, resumes = [], [], []
    out: Dict[str, float] = {}
    stmts = ticks_run = 0
    for label, job in designs.items():
        text = job.source
        chars += len(text)
        with span("replay.verilog.parse", label) as s:
            parsed = parse(text)
        parse_s += s.duration
        top = parsed.modules[-1].name
        with span("replay.verilog.elaborate", label):
            flat = flatten(parsed, top)
            env = WidthEnv(flat)
        with span("replay.verilog.print", label):
            flat_text = print_module(flat)
        with span("replay.core.machinify", label):
            transform = machinify(flat, env)
        with span("replay.core.statevars", label):
            analyze_state(flat, env)
        flat_chars += len(flat_text)
        hw_chars += len(print_module(transform.module))
        with span("replay.opt.pipeline", label):
            opt = optimize_module(flat, env=env)
        passes += sum(opt.pass_counts.values())
        nodes += opt.nodes_after
        with span("replay.interp.compile.codegen", label):
            CompiledModuleCode(flat, env=env, opt=opt)

        Runtime(text, compiler=warm)            # builds the artifacts
        vfs = bench_vfs(job.bench) if job.bench else None
        with span("replay.interp.compile.instantiate", label) as s:
            runtime = Runtime(text, compiler=warm, vfs=vfs)
        instantiate.append(s.duration)
        family = _family(label)
        n = SCALAR_TICKS.get(family)
        if n is not None:
            n = max(8, n // 20) if smoke else n
            before = runtime.engine.sim.stmts_executed
            with span("replay.runtime.tick", label) as s:
                runtime.tick(n)
            out[f"interp.compile.scalar_ticks_per_s.{family}"] = (
                runtime.ticks / s.duration)
            stmts += runtime.engine.sim.stmts_executed - before
            ticks_run += runtime.ticks
        elif label == "sleeper":
            runtime.tick(64)                    # park, then prove idle
            with span("replay.runtime.tick_idle", label) as s:
                runtime.tick(IDLE_TICKS)
            out["interp.compile.idle_tick_ns"] = (
                s.duration / IDLE_TICKS * 1e9)
        else:
            runtime.tick(8)
        with span("replay.hypervisor.suspend", label) as s:
            context = suspend(runtime)
        suspends.append(s.duration)
        with span("replay.hypervisor.rehydrate", label) as s:
            rehydrate(context, name=label, compiler=warm)
        resumes.append(s.duration)

    by_name: Dict[str, float] = {}
    for recorded in tracer.spans:
        if recorded.name.startswith("replay."):
            by_name[recorded.name] = (by_name.get(recorded.name, 0.0)
                                      + recorded.duration)

    def ms(name: str) -> float:
        return by_name.get(f"replay.{name}", 0.0) * 1e3

    out.update({
        "verilog.parse_ms": ms("verilog.parse"),
        "verilog.parse_kchars_per_s": chars / 1e3 / parse_s,
        "verilog.elaborate_ms": ms("verilog.elaborate"),
        "verilog.print_ms": ms("verilog.print"),
        "core.machinify_ms": ms("core.machinify"),
        "core.statevars_ms": ms("core.statevars"),
        "core.hw_text_ratio": hw_chars / flat_chars,
        "opt.pipeline_ms": ms("opt.pipeline"),
        "opt.pass_applications": passes,
        "opt.ir_nodes_after": nodes,
        "interp.compile.codegen_ms": ms("interp.compile.codegen"),
        "interp.compile.instantiate_us": statistics.median(instantiate) * 1e6,
        "interp.compile.stmts_per_tick": (stmts / ticks_run
                                          if ticks_run else 0.0),
        "runtime.suspend_us": statistics.median(suspends) * 1e6,
        "runtime.resume_us": statistics.median(resumes) * 1e6,
    })
    for label, (suffix, lanes) in cohort_lanes.items():
        out[f"interp.compile.batch_ticks_per_s.{suffix}"] = (
            _vector_rate(designs[label], lanes, warm, tracer, smoke))
    return out


def _vector_rate(job: Job, lanes: int, service: CompilerService,
                 tracer: Tracer, smoke: bool) -> float:
    """Lane-ticks per second of one cohort of *lanes* same-design
    software tenants, advanced through the fleet's own cohort path."""
    fleet = Plain.Fleet([Plain.Hypervisor(FAST, compiler=service)],
                        FleetConfig(board_capacity=0, cohorts=True))
    names = [f"lane-{i}" for i in range(lanes)]
    digest = service.compile_program(job.source).digest
    for name in names:
        fleet.admit_job(name, job.source, digest)
    ticks = 16 if smoke else 200
    try:
        if fleet.form_cohorts(names) == 0:
            return 0.0
        fleet.advance_cohort(names, 8)          # first dispatch builds
        with tracer.span("replay.runtime.cohort_dispatch", job.label) as s:
            fleet.advance_cohort(names, ticks)
        return lanes * ticks / s.duration
    finally:
        for name in names:
            fleet.release(name)
