"""Preemption correctness: sliced tenants are bit-identical to twins.

The serving layer's core transparency claim: a tenant the slicer
suspends and resumes — on the same engine, on a migrated board, or
re-joined into a vector cohort — produces exactly the ``$display``
output and architectural state of an unpreempted solo run.
"""

import asyncio

import pytest

from repro.compiler.service import CompilerService
from repro.fuzz.oracle import state_names
from repro.interp.compile.batch import HAVE_NUMPY
from repro.runtime.runtime import Runtime
from repro.serve import ServeConfig, ServeFrontend

from serve_helpers import APP, make_fleet


def solo_run(source, ticks=None):
    """The unpreempted twin: one private runtime, run to the end."""
    runtime = Runtime(source, name="twin", compiler=CompilerService())
    while not runtime.finished and (ticks is None or runtime.ticks < ticks):
        budget = 64 if ticks is None else min(64, ticks - runtime.ticks)
        runtime.tick(budget)
    return (
        tuple(runtime.host.display_log),
        runtime.engine.snapshot(state_names(runtime.program.flat)),
        runtime.ticks,
    )


def assert_twin(result, twin):
    display, state, ticks = twin
    assert result.display == display
    assert result.state == state
    assert result.ticks == ticks


class TestPreemptionBitIdentity:
    def test_sliced_software_tenant_matches_twin(self, service):
        """Suspend/resume on the same engine under a tiny quantum."""
        fleet = make_fleet(service, boards=1, board_capacity=0,
                           cohorts=False)
        config = ServeConfig(max_running=8, quantum_ticks=2,
                             priorities={"normal": 1.0})
        twin = solo_run(APP)

        async def main():
            async with ServeFrontend(fleet, config) as fe:
                handles = [await fe.submit(APP, name=f"job-{i}")
                           for i in range(4)]
                results = [await h.result() for h in handles]
            for result in results:
                assert result.status == "finished"
                assert result.preemptions > 0
                assert_twin(result, twin)

        asyncio.run(main())

    def test_sliced_hardware_tenant_matches_twin(self, service):
        """Preemption across the software→hardware transition."""
        fleet = make_fleet(service, boards=2, board_capacity=2,
                           cohorts=False)
        config = ServeConfig(max_running=4, quantum_ticks=4)
        twin = solo_run(APP)

        async def main():
            async with ServeFrontend(fleet, config) as fe:
                handles = [await fe.submit(APP, name=f"hw-{i}")
                           for i in range(4)]
                results = [await h.result() for h in handles]
            assert any(r.preemptions > 0 for r in results)
            for result in results:
                assert_twin(result, twin)

        asyncio.run(main())

    def test_migrated_tenant_matches_twin(self, service):
        """A tenant rebalanced onto a board added mid-run."""
        fleet = make_fleet(service, boards=1, board_capacity=4,
                           rebalance_threshold=1, cohorts=False)
        config = ServeConfig(max_running=4, quantum_ticks=4,
                             quiescence_every=1)
        twin = solo_run(APP)

        async def main():
            async with ServeFrontend(fleet, config) as fe:
                handles = [await fe.submit(APP, name=f"mig-{i}")
                           for i in range(3)]
                # Grow the fleet while the jobs are mid-flight; the
                # next quiescence sweep rebalances onto the new board.
                from repro.hypervisor import Hypervisor

                from serve_helpers import FAST

                fleet.add_board(Hypervisor(FAST, compiler=service))
                results = [await h.result() for h in handles]
            assert sum(r.migrations for r in results) >= 1
            assert fleet.supervisor.migrations
            for result in results:
                assert_twin(result, twin)

        asyncio.run(main())

    @pytest.mark.skipif(not HAVE_NUMPY, reason="cohorts need NumPy")
    def test_cohort_joined_tenant_matches_twin(self, service, monkeypatch):
        """Same-digest tenants vectorized mid-run, then extracted."""
        # Asserts a cohort formed: the vector licence needs the
        # two-state grant, which the ambient O0 CI leg would deny.
        monkeypatch.setenv("REPRO_OPT_LEVEL", "2")
        fleet = make_fleet(service, boards=1, board_capacity=0,
                           cohorts=True, cohort_min_size=2)
        config = ServeConfig(max_running=8, quantum_ticks=4,
                             quiescence_every=1,
                             priorities={"normal": 1.0})
        twin = solo_run(APP)

        async def main():
            async with ServeFrontend(fleet, config) as fe:
                handles = [await fe.submit(APP, name=f"coh-{i}")
                           for i in range(4)]
                results = [await h.result() for h in handles]
                formed = fe.stats()["fleet"]["cohorts"]["formed"]
            assert formed >= 1
            for result in results:
                assert result.status == "finished"
                assert_twin(result, twin)

        asyncio.run(main())

    @pytest.mark.skipif(not HAVE_NUMPY, reason="cohorts need NumPy")
    def test_cohort_member_extracted_by_cancel_leaves_rest_identical(
            self, service):
        """Cancelling one member never perturbs the survivors."""
        fleet = make_fleet(service, boards=1, board_capacity=0,
                           cohorts=True)
        config = ServeConfig(max_running=8, quantum_ticks=4,
                             quiescence_every=1,
                             priorities={"normal": 1.0})
        twin = solo_run(APP)

        async def main():
            async with ServeFrontend(fleet, config) as fe:
                handles = [await fe.submit(APP, name=f"cx-{i}")
                           for i in range(4)]
                # Let the cohort form, then cancel one member.
                for _ in range(20):
                    await asyncio.sleep(0)
                handles[0].cancel()
                results = [await h.result() for h in handles[1:]]
                try:
                    await handles[0].result()
                except asyncio.CancelledError:
                    pass
            for result in results:
                assert_twin(result, twin)

        asyncio.run(main())

    def test_checkpoint_on_preempt_keeps_ring_fresh(self, service):
        """Every preemption leaves a restore point at the turn boundary."""
        fleet = make_fleet(service, boards=1, board_capacity=0,
                           cohorts=False)
        config = ServeConfig(max_running=2, quantum_ticks=4,
                             checkpoint_on_preempt=True,
                             priorities={"normal": 1.0})

        async def main():
            async with ServeFrontend(fleet, config) as fe:
                handles = [await fe.submit(APP, name=f"ck-{i}")
                           for i in range(2)]
                for h in handles:
                    await h.result()
                ring = fleet.supervisor.ring.stats()
            assert ring["saved"] >= 4  # baselines + preemption points

        asyncio.run(main())
