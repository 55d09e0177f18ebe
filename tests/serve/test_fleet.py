"""Fleet placement, pooling, rebalancing, recovery and telemetry."""

import asyncio

from repro.compiler.service import KIND_CODEGEN, CompilerService
from repro.fabric.errors import FabricError
from repro.hypervisor import Hypervisor, telemetry_snapshot
from repro.interp.compile.batch import HAVE_NUMPY
from repro.serve import Fleet, FleetConfig, ServeConfig, ServeFrontend

from serve_helpers import APP, APP_FOREVER, FAST, make_fleet
from test_preemption import assert_twin, solo_run


def two_board_fleet(**config):
    """Two FAST boards with *private* compiler services, so warmth
    stays per-board."""
    from repro.compiler.artifacts import ArtifactStore

    boards = [Hypervisor(FAST, compiler=CompilerService(ArtifactStore()))
              for _ in range(2)]
    return Fleet(boards, FleetConfig(**config))


class TestPlacement:
    def test_warm_board_wins_placement(self):
        fleet = two_board_fleet(board_capacity=2, cohorts=False)
        cold, warm = fleet.supervisor.hypervisors
        # Pre-build the full artifact chain on one board's service.
        program = warm.compiler.compile_program(APP)
        warm.compiler.codegen(program.flat, digest=program.digest)
        assert warm.compiler.store.count(KIND_CODEGEN) == 1
        assert cold.compiler.store.count(KIND_CODEGEN) == 0
        assert warm.compiler.warmth(program.digest)["codegen"]
        assert not cold.compiler.warmth(program.digest)["codegen"]

        fleet.admit_job("hot", APP, program.digest)
        assert fleet.supervisor.tenants["hot"].host is warm

    def test_equal_warmth_tie_breaks_to_least_loaded(self, service):
        # One shared service: every board is equally warm, so load
        # decides and consecutive jobs spread across the fleet.
        fleet = make_fleet(service, boards=2, board_capacity=4,
                           cohorts=False)
        digest = service.compile_program(APP).digest
        fleet.admit_job("a", APP, digest)
        first = fleet.supervisor.tenants["a"].host
        fleet.admit_job("b", APP, digest)
        assert fleet.supervisor.tenants["b"].host is not first

    def test_capacity_overflow_goes_to_software(self, service):
        fleet = make_fleet(service, boards=1, board_capacity=1,
                           cohorts=False)
        digest = service.compile_program(APP).digest
        assert fleet.admit_job("one", APP, digest) == "de10"
        assert fleet.admit_job("two", APP, digest) == "software"
        assert fleet.stats()["placement"]["software"] == 1

    def test_same_digest_pools_onto_software(self, service):
        """A live software tenant of the digest beats a free board slot."""
        if not HAVE_NUMPY:
            import pytest

            pytest.skip("pooling is a cohort optimization")
        fleet = make_fleet(service, boards=1, board_capacity=1,
                           cohorts=True)
        digest = service.compile_program(APP).digest
        assert fleet.admit_job("one", APP, digest) == "de10"
        assert fleet.admit_job("two", APP, digest) == "software"
        fleet.release("one")  # the board slot is free again...
        # ...but the third same-digest job pools with "two" instead.
        assert fleet.admit_job("three", APP, digest) == "software"


class TestCohortFormation:
    def test_refused_digest_is_asked_once(self, service, monkeypatch):
        """Two designs, one inside the vector subset and one not: the
        refused one costs one formation attempt, ever — later sweeps
        read ``Supervisor.cohorts_refused`` instead of building (and
        failing to build) its cohort engine again."""
        import pytest

        if not HAVE_NUMPY:
            pytest.skip("cohorts need NumPy")
        monkeypatch.setenv("REPRO_OPT_LEVEL", "2")  # the vector licence
        wide = APP.replace("reg [31:0] acc;", "reg [95:0] acc;")
        fleet = make_fleet(service, boards=1, board_capacity=0)
        attempts, form = [], fleet.form_cohorts
        monkeypatch.setattr(
            fleet, "form_cohorts",
            lambda names: attempts.append(list(names)) or form(names))
        config = ServeConfig(max_running=8, quantum_ticks=4,
                             priorities={"normal": 1.0})

        async def main():
            async with ServeFrontend(fleet, config) as fe:
                handles = [await fe.submit(source, name=name)
                           for name, source in [
                               ("w0", wide), ("w1", wide),
                               ("a0", APP), ("a1", APP)]]
                fe._dispatch_queued()  # before the scheduler's first turn
                for _ in range(3):
                    fe._quiescence_sweep()
                assert attempts == [["w0", "w1"], ["a0", "a1"]]
                assert list(fleet.supervisor.cohorts_refused) == [
                    fe._jobs["w0"].digest[:12]]
                assert fleet.in_cohort("a0") and not fleet.in_cohort("w0")
                for handle in handles:
                    assert (await handle.result()).status == "finished"
            assert [names for names in attempts if "w0" in names] == [
                ["w0", "w1"]]

        asyncio.run(main())


    def test_a_job_already_at_its_target_does_not_tick_in_a_cohort(
            self, service, monkeypatch):
        """A ``ticks=0`` job swept into a cohort unit before a turn of
        its own retires where it stands, as it does with cohorts off."""
        import pytest

        if not HAVE_NUMPY:
            pytest.skip("cohorts need NumPy")
        monkeypatch.setenv("REPRO_OPT_LEVEL", "2")  # the vector licence
        config = ServeConfig(max_running=8, quantum_ticks=4,
                             quiescence_every=1, priorities={"normal": 1.0})
        seen = {}
        for cohorts in (True, False):
            fleet = make_fleet(service, boards=1, board_capacity=0,
                               cohorts=cohorts)

            async def main():
                async with ServeFrontend(fleet, config) as fe:
                    handles = [await fe.submit(APP_FOREVER, ticks=ticks)
                               for ticks in (50, 50, 0, 0, 3)]
                    return [await handle.result() for handle in handles]

            seen[cohorts] = [(r.status, r.ticks, r.state, r.display)
                             for r in asyncio.run(main())]
            assert (fleet.stats()["fleet"]["cohorts"]["formed"] > 0) == cohorts
        assert [ticks for _, ticks, _, _ in seen[True]] == [50, 50, 0, 0, 3]
        assert seen[True] == seen[False]


class TestRebalance:
    def test_rebalance_moves_one_hot_tenant(self, service):
        fleet = make_fleet(service, boards=2, board_capacity=4,
                           rebalance_threshold=2, cohorts=False)
        digest = service.compile_program(APP).digest
        hot, cool = fleet.supervisor.hypervisors
        for i in range(3):
            fleet.supervisor.admit(f"t{i}", APP, host=hot)
        assert (fleet.board_load(hot), fleet.board_load(cool)) == (3, 0)

        moved = fleet.rebalance()
        assert len(moved) == 1
        assert (fleet.board_load(hot), fleet.board_load(cool)) == (2, 1)
        assert fleet.supervisor.migrations
        del digest

    def test_balanced_fleet_stays_put(self, service):
        fleet = make_fleet(service, boards=2, board_capacity=4,
                           rebalance_threshold=2, cohorts=False)
        a, b = fleet.supervisor.hypervisors
        fleet.supervisor.admit("a", APP, host=a)
        fleet.supervisor.admit("b", APP, host=b)
        assert fleet.rebalance() == []


class TestRecovery:
    def test_board_death_mid_serve_recovers_tenants(self, service):
        """A dying board's tenants finish bit-identically elsewhere."""
        fleet = make_fleet(service, boards=2, board_capacity=2,
                           cohorts=False, faults=("board_death@2",))
        config = ServeConfig(max_running=4, quantum_ticks=4)
        twin = solo_run(APP)

        async def main():
            async with ServeFrontend(fleet, config) as fe:
                handles = [await fe.submit(APP, name=f"rv-{i}")
                           for i in range(4)]
                results = [await h.result() for h in handles]
            assert fleet.supervisor.stats()["quarantines"] >= 1
            assert sum(r.recoveries for r in results) >= 1
            for result in results:
                assert result.status == "finished"
                assert_twin(result, twin)

        asyncio.run(main())


class TestTelemetry:
    def test_frontend_stats_shape(self, service):
        fleet = make_fleet(service, boards=2)
        config = ServeConfig(max_running=4)

        async def main():
            async with ServeFrontend(fleet, config) as fe:
                handle = await fe.submit(APP, ticks=4, name="t")
                await handle.result()
                return fe.stats()

        stats = asyncio.run(main())
        assert set(stats) >= {"admission", "slicer", "fleet", "hypervisors",
                              "artifacts", "placement", "retired"}
        assert stats["fleet"]["hypervisors"] == 2
        assert len(stats["hypervisors"]) == 2
        assert stats["retired"] == 1
        assert stats["placement"]["hardware"] \
            + stats["placement"]["software"] == 1

    def test_telemetry_snapshot_unifies_layers(self, service):
        fleet = make_fleet(service, boards=2)
        digest = service.compile_program(APP).digest
        fleet.admit_job("x", APP, digest)
        snap = telemetry_snapshot(supervisor=fleet.supervisor,
                                  store=service.store)
        assert set(snap) == {"fleet", "hypervisors", "artifacts"}
        assert snap["fleet"]["tenants"] == 1
        assert len(snap["hypervisors"]) == 2
        # One shared store reported once; per-kind rows all carry the
        # derived hit rate.
        assert len(snap["artifacts"]) == 1
        for row in snap["artifacts"][0].values():
            assert set(row) >= {"entries", "hits", "misses", "evictions",
                                "hit_rate"}

    def test_dead_board_does_not_block_stats(self, service):
        fleet = make_fleet(service, boards=2, board_capacity=2,
                           cohorts=False, faults=("board_death@1",))
        digest = service.compile_program(APP).digest
        fleet.admit_job("v", APP, digest)
        try:
            for _ in range(8):
                fleet.advance("v", 4)
        except FabricError:
            pass  # stats below must still work
        stats = fleet.stats()
        assert stats["fleet"]["hypervisors"] == 2
