"""Process-restart recovery: kill the serving process, recover, compare.

The durability claim of the serving layer: a frontend hard-stopped
mid-flight and rebuilt from nothing but its on-disk artifact directory
and tenant journal restores every checkpointed tenant bit-identically —
the same ``$display`` trace (exactly once, history included), the same
architectural state, the same tick count as an uninterrupted twin.
"""

import asyncio

import pytest

from repro.compiler import ArtifactStore, CompilerService, DiskArtifactStore
from repro.hypervisor import RecoveryError, TenantJournal
from repro.serve import ServeConfig, ServeFrontend

from serve_helpers import APP, make_fleet

PRIORITIES = ("high", "normal", "low")


def build_frontend(art_dir, jnl_dir, max_running=6):
    """One serving 'process' over the durable directories."""
    service = CompilerService(ArtifactStore(disk=DiskArtifactStore(art_dir)))
    fleet = make_fleet(service, boards=2)
    fleet.supervisor.checkpoint_every = 4
    config = ServeConfig(max_running=max_running, quantum_ticks=5,
                         quiescence_every=64)
    return ServeFrontend(fleet, config, journal=TenantJournal(jnl_dir))


async def submit_mixed(frontend, n):
    handles = {}
    for i in range(n):
        handles[f"job-{i}"] = await frontend.submit(
            APP, ticks=60, priority=PRIORITIES[i % 3],
            tenant=f"team-{i % 4}", name=f"job-{i}")
    return handles


async def kill_mid_flight(frontend, min_ticks=20):
    """Run until some tenant passes *min_ticks*, then die hard."""
    for _ in range(200_000):
        tenants = frontend.fleet.supervisor.tenants.values()
        if any(t.runtime.ticks >= min_ticks for t in tenants):
            break
        await asyncio.sleep(0)
    frontend._task.cancel()
    try:
        await frontend._task
    except asyncio.CancelledError:
        pass
    frontend.journal.close()


class TestKillTheProcess:
    N = 32

    def test_32_tenants_bit_identical_after_restart(self, tmp_path):
        async def interrupted():
            frontend = build_frontend(tmp_path / "art", tmp_path / "jnl")
            await submit_mixed(frontend, self.N)
            await kill_mid_flight(frontend)

            revived = build_frontend(tmp_path / "art", tmp_path / "jnl")
            handles = await revived.recover()
            assert sorted(handles) == [f"job-{i}" for i in
                                       sorted(range(self.N), key=str)]
            assert not revived.recovery_errors
            results = {name: await handle.result()
                       for name, handle in handles.items()}
            stats = revived.stats()
            await revived.close()
            return results, stats

        async def uninterrupted():
            frontend = build_frontend(tmp_path / "art2", tmp_path / "jnl2")
            handles = await submit_mixed(frontend, self.N)
            results = {name: await handle.result()
                       for name, handle in handles.items()}
            await frontend.close()
            return results

        got, stats = asyncio.run(interrupted())
        want = asyncio.run(uninterrupted())
        for name in want:
            assert got[name].display == want[name].display, name
            assert got[name].state == want[name].state, name
            assert got[name].ticks == want[name].ticks, name
            assert got[name].finished == want[name].finished, name
            assert got[name].finish_code == want[name].finish_code, name
        # Books balance: every recovered slot was released.
        admission = stats["admission"]
        assert admission["recovered"] > 0
        placement = stats["placement"]
        assert placement["readmissions"] == admission["recovered"]

    def test_recovered_slots_release_cleanly(self, tmp_path):
        async def main():
            frontend = build_frontend(tmp_path / "art", tmp_path / "jnl")
            await submit_mixed(frontend, 8)
            await kill_mid_flight(frontend, min_ticks=10)

            revived = build_frontend(tmp_path / "art", tmp_path / "jnl")
            handles = await revived.recover()
            for handle in handles.values():
                await handle.result()
            await revived.close()
            admission = revived.admission.stats()
            assert admission["running"] == 0
            assert admission["queued"] == 0
            assert admission["tenants_in_flight"] == 0

        asyncio.run(main())


class TestRecoveryEdges:
    def test_queued_never_started_reruns_from_source(self, tmp_path):
        async def main():
            frontend = build_frontend(tmp_path / "art", tmp_path / "jnl",
                                      max_running=2)
            # Submit without ever letting the scheduler dispatch, then
            # die: the journal holds job records but no admits.
            handles = await submit_mixed(frontend, 4)
            frontend._task.cancel()
            try:
                await frontend._task
            except asyncio.CancelledError:
                pass
            frontend.journal.close()
            del handles

            revived = build_frontend(tmp_path / "art", tmp_path / "jnl")
            recovered = await revived.recover()
            assert len(recovered) == 4
            for name, handle in recovered.items():
                result = await handle.result()
                assert result.finished and result.finish_code == 0
                assert handle.priority == PRIORITIES[int(name[-1]) % 3]
            await revived.close()

        asyncio.run(main())

    def test_unrecoverable_tenant_fails_typed_and_releases_slot(
            self, tmp_path):
        async def main():
            frontend = build_frontend(tmp_path / "art", tmp_path / "jnl")
            await submit_mixed(frontend, 2)
            await kill_mid_flight(frontend, min_ticks=10)

            revived = build_frontend(tmp_path / "art", tmp_path / "jnl")
            # Every snapshot is destroyed: in-flight tenants that were
            # already placed cannot be restored.
            revived.journal.drop_snapshots("job-0")
            revived.journal.drop_snapshots("job-1")
            handles = await revived.recover()
            failed = dict(revived.recovery_errors)
            for name, err in failed.items():
                assert isinstance(err, RecoveryError)
                assert err.tenant == name
                with pytest.raises(RecoveryError):
                    await handles[name].result()
            # Survivors (queued-never-admitted) still complete.
            for name, handle in handles.items():
                if name not in failed:
                    assert (await handle.result()).finished
            await revived.close()
            admission = revived.admission.stats()
            assert admission["running"] == 0
            assert admission["tenants_in_flight"] == 0
            # A second replay must not resurrect the failed tenants:
            # their terminal records were journaled.
            image = revived.journal.replay()
            assert all(t.name not in failed for t in image.in_flight())

        asyncio.run(main())

    def test_failed_recovery_is_counted_once_as_a_failure(self, tmp_path):
        """One tenant's snapshots are all unverifiable: it never takes a
        slot in the new process, so it is neither recovered nor
        released — and readmissions still equal recoveries."""
        async def main():
            frontend = build_frontend(tmp_path / "art", tmp_path / "jnl")
            await submit_mixed(frontend, 6)
            await kill_mid_flight(frontend, min_ticks=10)

            revived = build_frontend(tmp_path / "art", tmp_path / "jnl")
            revived.journal.drop_snapshots("job-0")
            handles = await revived.recover()
            assert list(revived.recovery_errors) == ["job-0"]
            assert handles["job-0"].status() == "failed"
            stats = revived.stats()
            admission, placement = stats["admission"], stats["placement"]
            assert placement["readmissions"] == admission["recovered"] == 5
            assert admission["released"] == 0
            assert admission["failed"] == 1
            with pytest.raises(RecoveryError):
                await handles["job-0"].result()
            for name, handle in handles.items():
                if name != "job-0":
                    await handle.result()
            await revived.close()
            admission = revived.admission.stats()
            assert (admission["failed"], admission["released"]) == (1, 5)

        asyncio.run(main())

    def test_recover_requires_a_journal(self):
        async def main():
            service = CompilerService(ArtifactStore())
            frontend = ServeFrontend(make_fleet(service, boards=1))
            with pytest.raises(ValueError):
                await frontend.recover()

        asyncio.run(main())

    def test_recover_is_idempotent_per_name(self, tmp_path):
        async def main():
            frontend = build_frontend(tmp_path / "art", tmp_path / "jnl")
            await submit_mixed(frontend, 2)
            await kill_mid_flight(frontend, min_ticks=10)

            revived = build_frontend(tmp_path / "art", tmp_path / "jnl")
            first = await revived.recover()
            second = await revived.recover()
            assert second == {}  # every name already known
            for handle in first.values():
                await handle.result()
            await revived.close()

        asyncio.run(main())
