"""The two halves of a compiled program.

A software resident needs parse → flatten → state (→ opt → codegen);
only a board needs machinify → hardware text → bitstream → slot code.
``CompiledProgram.transform`` is therefore built the first time a
board-side consumer reads it — once per program object, shared through
the store exactly as the program is.  The first test is the guard: it
fails if any line on the software path reads the hardware half again.
"""

import asyncio
import os
import pickle

import pytest

from repro.bench import BENCHMARKS
from repro.compiler import ArtifactStore, CompilerService, DiskArtifactStore
from repro.compiler.artifacts import text_digest
from repro.compiler.service import KIND_PROGRAM
from repro.core import pipeline
from repro.core.machinify import machinify
from repro.fabric import DE10
from repro.fuzz.gen import generate
from repro.harness.common import bench_source_kwargs, bench_vfs
from repro.hypervisor import Hypervisor, Supervisor
from repro.serve import Fleet, FleetConfig, ServeConfig, ServeFrontend
from repro.verilog import print_module

HARDWARE_HALF = {"transform", "hardware_text", "hardware_digest",
                 "hardware_env"}

COUNTER = """
module counter(input wire clock);
  reg [7:0] n = 0;
  always @(posedge clock) begin
    n <= n + 1;
    if (n == 3) $display("n=%0d", n);
  end
endmodule
"""


def stored_programs(service):
    return [entry.value for (kind, _), entry in service.store._entries.items()
            if kind == KIND_PROGRAM]


def table1_sources(**kwargs):
    return {name: bench.source(**bench_source_kwargs(name), **kwargs)
            for name, bench in BENCHMARKS.items()}


def test_software_only_serve_never_builds_the_hardware_half():
    service = CompilerService(ArtifactStore())
    fleet = Fleet([Hypervisor(DE10, compiler=service)],
                  FleetConfig(board_capacity=0, cohorts=False))
    config = ServeConfig(max_running=8, per_tenant=32, quantum_ticks=4)
    jobs = [(f"t1-{name}", source, bench_vfs(name))
            for name, source in table1_sources().items()]
    jobs += [(f"fz-{seed}", generate(seed).source, None)
             for seed in range(20)]

    async def main():
        async with ServeFrontend(fleet, config) as frontend:
            handles = [await frontend.submit(source, ticks=12, name=name,
                                             vfs=vfs)
                       for name, source, vfs in jobs]
            return [await handle.result() for handle in handles]

    results = asyncio.run(main())
    assert all(r.status in ("completed", "finished") for r in results)
    assert any(r.preemptions for r in results)
    assert fleet.supervisor.ring.saved > len(jobs)  # baseline + preemptions
    programs = stored_programs(service)
    assert len(programs) == len(jobs)
    for program in programs:
        assert not HARDWARE_HALF & vars(program).keys(), program.name


def test_same_digest_tenants_on_boards_share_one_transform(monkeypatch):
    calls = []

    def spy(flat, env):
        calls.append(flat.name)
        return machinify(flat, env)

    monkeypatch.setattr(pipeline, "machinify", spy)
    service = CompilerService(ArtifactStore())
    sup = Supervisor([Hypervisor(DE10, compiler=service)])
    tenants = [sup.admit(name, COUNTER) for name in ("a", "b")]
    for tenant in tenants:
        assert tenant.host is not None
        sup.run(tenant.name, 6)
    first, second = (t.runtime.program for t in tenants)
    assert first is second
    assert first.transform is second.transform
    assert calls == ["counter"]


def assert_halves_match(source):
    program = CompilerService(ArtifactStore()).compile_program(source)
    assert "transform" not in vars(program)
    direct = machinify(program.flat, program.env)
    assert program.transform.n_states == direct.n_states
    assert len(program.transform.tasks) == len(direct.tasks)
    assert program.hardware_digest == text_digest(print_module(direct.module))


@pytest.mark.parametrize("quiescence", [False, True])
def test_lazy_transform_equals_machinify_on_table1(quiescence):
    for source in table1_sources(quiescence=quiescence).values():
        assert_halves_match(source)


def test_lazy_transform_equals_machinify_on_fuzz_seeds():
    for seed in range(200):
        assert_halves_match(generate(seed).source)


def test_disk_round_trip_before_and_after_the_transform_exists(tmp_path):
    disk = DiskArtifactStore(tmp_path)
    built = CompilerService(ArtifactStore()).compile_program(COUNTER)
    disk.store(KIND_PROGRAM, "before", built)
    before, _ = disk.load(KIND_PROGRAM, "before")
    assert "transform" not in vars(before)
    assert before.hardware_digest == built.hardware_digest
    assert "transform" in vars(built)
    disk.store(KIND_PROGRAM, "after", built)
    after, _ = disk.load(KIND_PROGRAM, "after")
    assert after.transform.n_states == built.transform.n_states
    assert after.hardware_digest == built.hardware_digest
    assert "transform" in vars(after)
    assert os.path.getsize(disk.path_for(KIND_PROGRAM, "before")) \
        < os.path.getsize(disk.path_for(KIND_PROGRAM, "after"))


def test_a_program_pickled_with_its_transform_does_not_rebuild(monkeypatch):
    """What the eager build wrote to disk: ``transform`` in the state
    dict, between ``env`` and ``state``.  It lands in ``__dict__``,
    which is where ``cached_property`` looks first."""
    built = CompilerService(ArtifactStore()).compile_program(COUNTER)
    eager = object.__new__(pipeline.CompiledProgram)
    vars(eager).update(
        source=built.source, flat=built.flat, env=built.env,
        transform=machinify(built.flat, built.env), state=built.state)
    payload, want = pickle.dumps(eager), built.hardware_digest
    monkeypatch.setattr(pipeline, "machinify", None)  # a rebuild raises
    loaded = pickle.loads(payload)
    assert loaded.transform.n_states == eager.transform.n_states
    assert loaded.hardware_digest == want
