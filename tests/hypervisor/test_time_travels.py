"""``$time`` is part of what moves.

A design that prints ``$time`` every tick must produce the trace of an
uninterrupted run whatever happens to it on the way: a migration, a
board death, a process restart, an evacuation to software, or simply a
hardware batch of more than one tick.  (``tests/corpus/
time_across_moves.v`` puts the same design through the fuzz oracle's
``board``, ``lifecycle`` and ``batched`` paths.)
"""

import asyncio
import dataclasses

import pytest

from repro.compiler import ArtifactStore, CompilerService, DiskArtifactStore
from repro.fabric import DE10
from repro.hypervisor import Hypervisor, Supervisor, TenantJournal
from repro.runtime import DirectBoardBackend, Runtime
from repro.serve import Fleet, ServeConfig, ServeFrontend

FAST = dataclasses.replace(DE10, compile_seconds=0.5, reconfig_seconds=0.01)

CLOCK = """
module clockface(input wire clock);
  reg [7:0] n = 0;
  always @(posedge clock) begin
    n <= n + 1;
    $display("n=%0d t=%0d", n, $time);
  end
endmodule
"""

TICKS = 12
EXPECTED = [f"n={i} t={i}" for i in range(TICKS)]


@pytest.fixture(scope="module")
def service():
    return CompilerService()


def test_the_reference_counts_from_zero(service):
    runtime = Runtime(CLOCK, compiler=service, sim_backend="interp")
    runtime.tick(TICKS)
    assert runtime.host.display_log == EXPECTED


def test_software_to_software_migration(service):
    sup = Supervisor([Hypervisor(FAST, compiler=service)])
    sup.admit("t", CLOCK, software=True)
    sup.run("t", 4)
    sup.migrate_tenant("t", destination=None)
    sup.run("t", TICKS - 4)
    assert sup.tenants["t"].runtime.host.display_log == EXPECTED


def test_board_death_then_software_fallback(service):
    sup = Supervisor([Hypervisor(FAST, compiler=service)], checkpoint_every=2)
    tenant = sup.admit("t", CLOCK)
    sup.run("t", 5)
    tenant.host.board.kill()
    sup.run("t", TICKS - 5)
    assert tenant.recoveries == 1 and tenant.host is None
    assert tenant.runtime.host.display_log == EXPECTED


def test_process_restart_recovery(tmp_path):
    def build():
        svc = CompilerService(
            ArtifactStore(disk=DiskArtifactStore(tmp_path / "art")))
        fleet = Fleet([Hypervisor(FAST, compiler=svc)], checkpoint_every=2)
        config = ServeConfig(quantum_ticks=3, quiescence_every=64)
        return ServeFrontend(fleet, config,
                             journal=TenantJournal(tmp_path / "jnl"))

    async def main():
        frontend = build()
        handle = await frontend.submit(CLOCK, ticks=TICKS, name="t")
        tenants = frontend.fleet.supervisor.tenants
        while "t" not in tenants or tenants["t"].runtime.ticks < TICKS // 2:
            await asyncio.sleep(0)
        assert not handle.done
        frontend._task.cancel()         # the process dies here
        try:
            await frontend._task
        except asyncio.CancelledError:
            pass
        frontend.journal.close()
        revived = build()
        handles = await revived.recover()
        result = await handles["t"].result()
        await revived.close()
        revived.journal.close()
        return result

    assert list(asyncio.run(main()).display) == EXPECTED


def test_evacuation_to_software(service):
    runtime = Runtime(CLOCK, compiler=service)
    runtime.tick(2)
    runtime.attach(DirectBoardBackend(DE10, compiler=service))
    runtime.transition_to_hardware()
    runtime.tick(4)
    runtime.transition_to_software()
    runtime.tick(TICKS - 6)
    assert runtime.host.display_log == EXPECTED


def test_one_hardware_batch_of_many_ticks(service):
    """``$time`` advances inside a ``RunTicks`` batch, not after it."""
    runtime = Runtime(CLOCK, compiler=service)
    runtime.tick(1)
    runtime.attach(DirectBoardBackend(DE10, compiler=service))
    runtime.transition_to_hardware()
    runtime.tick(TICKS - 1)             # one request, eleven ticks
    assert runtime.host.display_log == EXPECTED
    assert runtime.engine.time == runtime.ticks == TICKS
