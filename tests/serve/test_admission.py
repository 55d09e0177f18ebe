"""Admission control and backpressure: budgets, ordering, cancellation."""

import asyncio
import os

import pytest

from repro.serve import (
    AdmissionError, QueueFullError, ServeConfig, ServeFrontend,
    TenantBudgetError, UnknownDigestError,
)

from serve_helpers import APP, APP_FOREVER, make_fleet

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


def serve(service, **cfg):
    cfg.setdefault("max_running", 4)
    return ServeFrontend(make_fleet(service, boards=1, cohorts=False),
                         ServeConfig(**cfg))


class TestBudgets:
    def test_queue_full_rejects_typed(self, service):
        async def main():
            async with serve(service, max_running=1, max_queue=2) as fe:
                await fe.submit(APP, ticks=2, name="a")
                await fe.submit(APP, ticks=2, name="b")
                with pytest.raises(QueueFullError):
                    await fe.submit(APP, ticks=2, name="c")
                assert fe.admission.stats()["rejected"] == 1

        asyncio.run(main())

    def test_per_tenant_budget_rejects_typed(self, service):
        async def main():
            async with serve(service, per_tenant=2, max_queue=16) as fe:
                await fe.submit(APP, ticks=2, tenant="alice", name="a1")
                await fe.submit(APP, ticks=2, tenant="alice", name="a2")
                with pytest.raises(TenantBudgetError):
                    await fe.submit(APP, ticks=2, tenant="alice", name="a3")
                # Another principal is unaffected by alice's budget.
                await fe.submit(APP, ticks=2, tenant="bob", name="b1")

        asyncio.run(main())

    def test_admission_error_is_a_policy_decision(self):
        from repro.fabric.errors import (
            FabricError, PersistentFabricError, TransientFabricError,
        )

        assert issubclass(AdmissionError, FabricError)
        assert not issubclass(AdmissionError, TransientFabricError)
        assert not issubclass(AdmissionError, PersistentFabricError)

    def test_rejected_submission_takes_no_slots(self, service):
        async def main():
            async with serve(service, per_tenant=1) as fe:
                await fe.submit(APP, ticks=2, tenant="t", name="ok")
                with pytest.raises(AdmissionError):
                    await fe.submit(APP, ticks=2, tenant="t", name="no")
                stats = fe.admission.stats()
                assert stats["admitted"] == 1
                assert stats["queued"] + stats["running"] <= 1

        asyncio.run(main())


class TestOrdering:
    def test_queued_jobs_start_in_priority_order(self, service):
        async def main():
            async with serve(service, max_running=1, max_queue=16) as fe:
                # submit() never awaits after validation, so all four
                # jobs are queued before the scheduler's first turn.
                first = await fe.submit(APP, ticks=2, priority="normal",
                                        name="first")
                low = await fe.submit(APP, ticks=2, priority="low", name="lo")
                norm = await fe.submit(APP, ticks=2, priority="normal",
                                       name="mid")
                high = await fe.submit(APP, ticks=2, priority="high",
                                       name="hi")
                await asyncio.gather(first.result(), low.result(),
                                     norm.result(), high.result())
                assert fe.started_order == ["hi", "first", "mid", "lo"]

        asyncio.run(main())

    def test_fifo_within_one_class(self, service):
        async def main():
            async with serve(service, max_running=1, max_queue=16) as fe:
                handles = [await fe.submit(APP, ticks=2, name=f"j{i}")
                           for i in range(4)]
                await asyncio.gather(*(h.result() for h in handles))
                assert fe.started_order == ["j0", "j1", "j2", "j3"]

        asyncio.run(main())


class TestCancellation:
    def test_cancel_queued_releases_slots(self, service):
        async def main():
            async with serve(service, max_running=1, per_tenant=1,
                             max_queue=16) as fe:
                blocker = await fe.submit(APP, ticks=30, tenant="z",
                                          name="blocker")
                queued = await fe.submit(APP, ticks=2, tenant="t", name="q")
                assert queued.status() == "queued"
                assert queued.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await queued.result()
                assert queued.status() == "cancelled"
                # The released per-tenant slot admits a resubmission.
                retry = await fe.submit(APP, ticks=2, tenant="t", name="q2")
                result = await retry.result()
                assert result.status == "completed"
                await blocker.result()

        asyncio.run(main())

    def test_cancel_running_releases_at_quiescence(self, service):
        async def main():
            async with serve(service, max_running=1, quantum_ticks=4,
                             max_queue=16) as fe:
                victim = await fe.submit(APP_FOREVER, ticks=10_000,
                                         name="victim")
                # Let the scheduler start (and run a few turns of) it.
                for _ in range(6):
                    await asyncio.sleep(0)
                assert victim.status() in ("running", "preempted")
                assert victim.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await victim.result()
                # Its running slot came back: a new job starts and ends.
                after = await fe.submit(APP, ticks=2, name="after")
                assert (await after.result()).status == "completed"
                assert fe.admission.stats()["running"] == 0

        asyncio.run(main())

    def test_cancel_after_done_returns_false(self, service):
        async def main():
            async with serve(service) as fe:
                handle = await fe.submit(APP, ticks=2, name="done")
                await handle.result()
                assert not handle.cancel()

        asyncio.run(main())


class TestSubmitSurface:
    def test_unknown_digest_rejected(self, service):
        async def main():
            async with serve(service) as fe:
                with pytest.raises(UnknownDigestError):
                    await fe.submit(digest="feedfacecafe", name="nope")

        asyncio.run(main())

    def test_submit_by_registered_digest(self, service):
        async def main():
            async with serve(service) as fe:
                digest = fe.register(APP)
                handle = await fe.submit(digest=digest, ticks=3, name="byd")
                result = await handle.result()
                assert result.status == "completed"
                assert result.ticks == 3

        asyncio.run(main())

    def test_dispatch_failure_is_a_failure_not_a_cancel(self, service):
        """A registered program that no longer compiles fails its job
        at dispatch; the books must not call that a cancellation."""
        async def main():
            async with serve(service) as fe:
                fe._programs["stale"] = "module broken("
                handle = await fe.submit(digest="stale", ticks=3, name="bad")
                with pytest.raises(Exception, match="expected identifier"):
                    await handle.result()
                assert handle.status() == "failed"
                stats = fe.admission.stats()
                assert stats["cancelled"] == 0
                assert stats["failed"] == 1
                assert stats["queued"] == stats["running"] == 0
                assert stats["tenants_in_flight"] == 0

        asyncio.run(main())

    def test_run_until_finish(self, service):
        async def main():
            async with serve(service) as fe:
                handle = await fe.submit(APP, name="runout")
                result = await handle.result()
                assert result.status == "finished"
                assert result.finished
                assert result.ticks == 41  # $finish fires when n==40

        asyncio.run(main())

    def test_finish_at_boot_ends_the_tenant_not_its_cotenant(self, service):
        """A ``$finish`` in an ``initial`` block ends the run at time 0,
        after the boot ``$display``: the tenant is finished, not failed,
        and takes no tick; its co-tenant runs to completion."""
        with open(os.path.join(CORPUS, "finish_at_boot.v")) as handle:
            boot = handle.read()

        async def main():
            async with serve(service) as fe:
                early = await fe.submit(boot, ticks=4, name="boot")
                other = await fe.submit(APP, ticks=5, name="other")
                result = await early.result()
                assert (result.status, result.finished, result.ticks) == \
                    ("finished", True, 0)
                assert result.display == ("boot 5",)
                assert (await other.result()).status == "completed"

        asyncio.run(main())

    def test_display_streams_while_running(self, service):
        async def main():
            async with serve(service, quantum_ticks=4) as fe:
                handle = await fe.submit(APP, name="streamer")
                streamed = [line async for line in handle]
                result = await handle.result()
                assert tuple(streamed) == result.display
                assert streamed[0] == "n=0 acc=1"

        asyncio.run(main())

    def test_status_lifecycle(self, service):
        async def main():
            async with serve(service, max_running=1, quantum_ticks=2,
                             max_queue=16) as fe:
                first = await fe.submit(APP, ticks=12, name="one")
                second = await fe.submit(APP, ticks=2, name="two")
                assert first.status() == "queued"
                assert second.status() == "queued"
                seen = set()
                while not first.done:
                    seen.add(first.status())
                    await asyncio.sleep(0)
                # "running" only exists inside a scheduler turn; between
                # turns a sliced job is observably "preempted".
                assert "preempted" in seen  # quantum 2 < 12 ticks
                assert (await first.result()).status == "completed"

        asyncio.run(main())
