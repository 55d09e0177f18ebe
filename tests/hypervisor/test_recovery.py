"""Supervised recovery: checkpoints, quarantine, restore, replay."""

import dataclasses
import gc
import weakref

import pytest

from repro.compiler.service import CompilerService
from repro.fabric import DE10, BoardDeadError, FaultPlan, PersistentFabricError
from repro.hypervisor import Hypervisor, Supervisor

#: DE10 with a fast compile/reconfig so tenants reach hardware within a
#: test-sized run (the reliability machinery is compile-latency-agnostic).
FAST = dataclasses.replace(DE10, compile_seconds=0.5, reconfig_seconds=0.01)

APP = """
module app(input wire clock);
  reg [31:0] n;
  initial n = 0;
  always @(posedge clock) begin
    n <= n + 1;
    if (n % 7 == 0) $display("n=%0d", n);
    if (n == 40) $finish;
  end
endmodule
"""


def fleet(service, n=2, specs=()):
    hypervisors = [Hypervisor(FAST, compiler=service) for _ in range(n)]
    for hv, spec in zip(hypervisors, specs):
        if spec:
            hv.board.faults = FaultPlan(spec, seed=1)
    return hypervisors


@pytest.fixture(scope="module")
def service():
    """Shared artifact store: restores are digest-keyed cache hits."""
    svc = CompilerService()
    # Warm the store so every test's tenant reaches hardware quickly.
    sup = Supervisor(fleet(svc))
    sup.admit("warmup", APP)
    sup.run("warmup", 60)
    return svc


@pytest.fixture(scope="module")
def reference(service):
    """Display log and final state of a fault-free supervised run."""
    sup = Supervisor(fleet(service))
    tenant = sup.admit("app", APP)
    sup.run("app", 60)
    assert tenant.runtime.mode == "hardware"
    return (list(tenant.runtime.host.display_log),
            tenant.runtime.engine.get("n"),
            tenant.runtime.finished)


def outcome(tenant):
    return (list(tenant.runtime.host.display_log),
            tenant.runtime.engine.get("n"),
            tenant.runtime.finished)


class TestTenantCheckpoint:
    """Each tenant's newest checkpoint lives on its own record."""

    def test_checkpoints_are_per_tenant(self, service):
        sup = Supervisor(fleet(service))
        a = sup.admit("a", APP)
        b = sup.admit("b", APP)
        a.runtime.tick(5)
        b.runtime.tick(9)
        sup.checkpoint("a")
        sup.checkpoint("b")
        assert (a.checkpoint.ticks, b.checkpoint.ticks) == (5, 9)
        kept = b.checkpoint
        dropped = weakref.ref(a.checkpoint)
        del a
        sup.release("a")
        gc.collect()
        assert "a" not in sup.tenants and dropped() is None
        assert sup.tenants["b"].checkpoint is kept

    def test_stats_count_checkpoints_taken(self, service):
        sup = Supervisor(fleet(service))
        tenant = sup.admit("app", APP)  # the baseline is the first
        for _ in range(3):
            tenant.runtime.tick(2)
            sup.checkpoint("app")
        assert sup.stats()["checkpoints"] == 4
        sup.release("app")
        assert sup.stats()["checkpoints"] == 4  # taken, not held


class TestTransparentRetry:
    """Transient faults never reach the tenant: retried, bit-identical."""

    @pytest.mark.parametrize("spec", [
        "lockup:0.1", "abi_drop:0.1", "abi_dup:0.1", "hang:0.05",
        "lockup:0.05,abi_drop:0.05,abi_dup:0.05,hang:0.02",
    ])
    def test_transient_faults_invisible(self, service, reference, spec):
        sup = Supervisor(fleet(service, specs=(spec, spec)))
        tenant = sup.admit("app", APP)
        sup.run("app", 60)
        assert outcome(tenant) == reference
        assert len(sup.recoveries) == 0

    def test_retries_surface_in_health_counters(self, service, reference):
        sup = Supervisor(fleet(service, specs=("abi_drop:0.2",)))
        tenant = sup.admit("app", APP)
        sup.run("app", 60)
        assert outcome(tenant) == reference
        stats = sup.stats()
        assert sum(r["retries"] for r in stats["retry"]) > 0
        assert stats["recoveries"] == 0


class TestQuarantineAndRestore:
    def test_board_death_recovers_onto_healthy_board(self, service, reference):
        sup = Supervisor(fleet(service, specs=("board_death@6",)))
        tenant = sup.admit("app", APP)
        sup.run("app", 60)
        assert outcome(tenant) == reference
        assert len(sup.recoveries) == 1
        assert sup.quarantines == 1
        report = sup.recoveries[0]
        assert report.destination == FAST.name  # re-hosted on hardware
        assert report.checkpoint_ticks <= report.crash_ticks
        assert report.restore_seconds > 0
        assert tenant.host is sup.hypervisors[1]
        assert not sup.hypervisors[0].healthy

    def test_a_tenant_holds_one_checkpoint(self, service, reference):
        """Each checkpoint replaces the one before it on the tenant's
        record, and a board death restores from the newest."""
        sup = Supervisor(fleet(service))
        tenant = sup.admit("app", APP)
        taken = []
        for _ in range(3):
            tenant.runtime.tick(4)
            taken.append(weakref.ref(sup.checkpoint("app")))
        tenant.runtime.tick(3)  # past the newest: restore must replay
        gc.collect()
        held = [ref() for ref in taken if ref() is not None]
        assert len(held) == 1 and held[0] is tenant.checkpoint
        sup.recover_from("app", BoardDeadError("board killed"))
        report = sup.recoveries[-1]
        assert (report.checkpoint_ticks, report.crash_ticks) == (12, 15)
        assert tenant.runtime.ticks == held[0].ticks == 12
        assert tenant.host is sup.hypervisors[1]
        sup.run("app", 60)
        assert outcome(tenant) == reference

    def test_quarantined_hypervisor_rejects_admission(self, service):
        hypervisors = fleet(service)
        hypervisors[0].quarantine()
        with pytest.raises(BoardDeadError):
            hypervisors[0].place_subprogram("x", None)
        # The supervisor simply places on the healthy sibling instead.
        sup = Supervisor(hypervisors)
        tenant = sup.admit("app", APP)
        sup.run("app", 16)
        assert tenant.host is hypervisors[1]

    def test_exhausted_retries_escalate_to_recovery(self, service, reference):
        # Every control op locks up: retry budgets exhaust on both
        # boards, and the tenant still finishes — in software.
        sup = Supervisor(fleet(service, specs=("lockup:1.0", "lockup:1.0")))
        tenant = sup.admit("app", APP)
        sup.run("app", 60)
        assert outcome(tenant) == reference
        assert sup.quarantines == 2
        assert sup.recoveries[-1].destination == "software"
        assert tenant.host is None
        assert all(h.retry.exhausted >= 1 for h in sup.hypervisors)

    def test_no_fallback_raises_when_fleet_is_gone(self, service):
        sup = Supervisor(fleet(service, specs=("lockup:1.0", "lockup:1.0")),
                         software_fallback=False)
        sup.admit("app", APP)
        with pytest.raises(PersistentFabricError):
            sup.run("app", 60)

    def test_replay_is_exactly_once(self, service, reference):
        """Output emitted between the checkpoint and the crash is
        discarded with the crashed host and re-emitted by the replay —
        never duplicated, never lost."""
        sup = Supervisor(fleet(service, specs=("board_death@8",)),
                         checkpoint_every=4)
        tenant = sup.admit("app", APP)
        sup.run("app", 60)
        log = outcome(tenant)[0]
        assert log == reference[0]
        assert len(log) == len(set(log))  # no duplicated $display lines


class TestCotenantRecovery:
    def test_all_victims_restored(self, service):
        other = APP.replace('"n=%0d"', '"m=%0d"')
        sup = Supervisor(fleet(service, specs=("board_death@12",)))
        a = sup.admit("a", APP)
        b = sup.admit("b", other)
        sup.run("a", 60)
        sup.run("b", 60)
        assert len(sup.recoveries) == 2  # both co-residents restored
        assert {r.tenant for r in sup.recoveries} == {"a", "b"}
        assert a.runtime.finished and b.runtime.finished
        assert [l for l in b.runtime.host.display_log] == \
               [l.replace("n=", "m=") for l in a.runtime.host.display_log]
