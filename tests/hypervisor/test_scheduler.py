"""Scheduler tests: round-robin IO sharing and ABI serialization."""

import pytest

from repro.hypervisor import AbiSerializer, RoundRobinIoScheduler
from repro.hypervisor.engine_table import EngineTable
from repro.hypervisor.handshake import state_safe_reprogram
from repro.amorphos import ProtectionDomain
from repro.core import compile_program


class TestRoundRobin:
    def test_solo_stream_runs_at_own_period(self):
        sched = RoundRobinIoScheduler()
        sched.register(1, 2e-6)
        assert sched.effective_period(1) == 2e-6
        assert sched.throughput_fraction(1) == 1.0

    def test_contention_sums_periods(self):
        sched = RoundRobinIoScheduler()
        sched.register(1, 2e-6)
        sched.register(2, 3e-6)
        assert sched.effective_period(1) == pytest.approx(5e-6)
        assert sched.effective_period(2) == pytest.approx(5e-6)

    def test_short_ops_lose_more_than_half(self):
        """Figure 11: regex (short reads) drops below 50% against nw."""
        sched = RoundRobinIoScheduler()
        sched.register(1, 2e-6)   # regex-like
        sched.register(2, 3e-6)   # nw-like
        assert sched.throughput_fraction(1) < 0.5
        assert sched.throughput_fraction(2) > 0.5

    def test_inactive_stream_does_not_contend(self):
        sched = RoundRobinIoScheduler()
        sched.register(1, 2e-6)
        sched.register(2, 3e-6)
        sched.set_active(2, False)
        assert sched.effective_period(1) == 2e-6

    def test_unregister(self):
        sched = RoundRobinIoScheduler()
        sched.register(1, 2e-6)
        sched.register(2, 3e-6)
        sched.unregister(2)
        assert sched.effective_period(1) == 2e-6

    def test_extra_wait(self):
        sched = RoundRobinIoScheduler()
        sched.register(1, 2e-6)
        sched.register(2, 3e-6)
        assert sched.extra_wait(1) == pytest.approx(3e-6)

    def test_three_way_contention(self):
        sched = RoundRobinIoScheduler()
        for engine_id in (1, 2, 3):
            sched.register(engine_id, 1e-6)
        assert sched.throughput_fraction(1) == pytest.approx(1 / 3)


class TestSerializer:
    def test_requests_accumulate(self):
        ser = AbiSerializer(service_seconds=1e-6)
        for _ in range(5):
            ser.admit()
        assert ser.requests == 5
        assert ser.busy_seconds == pytest.approx(5e-6)


class TestChannelContention:
    def test_channel_latency_includes_io_wait(self):
        """A hypervisor channel's per-message latency stretches when the
        engine's IO stream is contended (§4.3)."""
        from repro.fabric import F1
        from repro.hypervisor import Hypervisor
        from repro.runtime import Runtime

        hv = Hypervisor(F1)
        rt = Runtime("""
            module c(input wire clock);
              reg [31:0] n = 0;
              always @(posedge clock) n <= n + 1;
            endmodule
        """)
        client = hv.connect("one")
        rt.attach(client)
        rt._hw_ready_at = rt.sim_time
        rt.tick(1)
        engine_id = rt.placement.engine_id
        channel = hv.channel(engine_id)
        base = channel.current_latency()
        hv.io_scheduler.register(engine_id, 2e-6)
        hv.io_scheduler.register(999, 5e-6)
        contended = channel.current_latency()
        assert contended == pytest.approx(base + 5e-6)
        hv.io_scheduler.set_active(999, False)
        assert channel.current_latency() == pytest.approx(base)


class TestEngineTable:
    def test_register_assigns_unique_ids(self):
        table = EngineTable()
        program = compile_program(
            "module a(input wire clock); endmodule"
        )
        domain = ProtectionDomain("d")
        r1 = table.register("i1", domain, program)
        r2 = table.register("i2", domain, program)
        assert r1.engine_id != r2.engine_id
        assert len(table) == 2

    def test_retire_and_sweep(self):
        table = EngineTable()
        program = compile_program("module a(input wire clock); endmodule")
        domain = ProtectionDomain("d")
        r1 = table.register("i1", domain, program)
        r2 = table.register("i2", domain, program)
        table.retire(r1.engine_id)
        assert len(table.active) == 1
        survivors = table.sweep()
        assert [r.engine_id for r in survivors] == [r2.engine_id]
        assert r1.engine_id not in table

    def test_owned_by(self):
        table = EngineTable()
        program = compile_program("module a(input wire clock); endmodule")
        alice, bob = ProtectionDomain("a"), ProtectionDomain("b")
        table.register("i1", alice, program)
        table.register("i2", bob, program)
        table.register("i3", alice, program)
        assert len(table.owned_by(alice)) == 2

    def test_lookup_unknown(self):
        with pytest.raises(KeyError):
            EngineTable().lookup(42)


class TestDeficitRoundRobin:
    def _shares(self, weights, rounds=400):
        """Simulate greedy consumers; returns per-class tick totals."""
        from repro.hypervisor import DeficitRoundRobin

        drr = DeficitRoundRobin(quantum=8, classes=weights)
        for name in weights:
            drr.enqueue(name, f"job-{name}")
        consumed = {name: 0 for name in weights}
        for _ in range(rounds):
            name, item, budget = drr.next_turn()
            consumed[name] += budget
            drr.charge(name, budget)
            drr.requeue(name, item)  # still running: back of the queue
        return consumed

    def test_weighted_shares_converge(self):
        consumed = self._shares({"high": 4.0, "low": 1.0})
        ratio = consumed["high"] / consumed["low"]
        assert 3.5 <= ratio <= 4.5

    def test_no_starvation(self):
        """Every backlogged class gets turns, however light its weight."""
        consumed = self._shares({"heavy": 16.0, "light": 0.25})
        assert consumed["light"] > 0

    def test_budget_floor_is_one_tick(self):
        from repro.hypervisor import DeficitRoundRobin

        drr = DeficitRoundRobin(quantum=1, classes={"tiny": 0.1})
        drr.enqueue("tiny", "job")
        name, item, budget = drr.next_turn()
        assert budget >= 1

    def test_deficit_resets_when_queue_empties(self):
        from repro.hypervisor import DeficitRoundRobin

        drr = DeficitRoundRobin(quantum=8, classes={"a": 1.0, "b": 1.0})
        drr.enqueue("a", "j1")
        name, item, budget = drr.next_turn()
        drr.charge(name, 1)  # retire without requeue: queue now empty
        assert drr.stats()["classes"]["a"]["deficit"] == 0.0
        # An idle class cannot bank credit while empty.
        drr.enqueue("b", "j2")
        drr.enqueue("a", "j3")
        turns = []
        for _ in range(4):
            n, i, b = drr.next_turn()
            turns.append(n)
            drr.charge(n, b)
            drr.requeue(n, i)
        assert set(turns) == {"a", "b"}

    def test_withdraw_removes_queued_item(self):
        from repro.hypervisor import DeficitRoundRobin

        drr = DeficitRoundRobin(quantum=4, classes={"a": 1.0})
        drr.enqueue("a", "j1")
        assert drr.withdraw("a", "j1")
        assert not drr.withdraw("a", "j1")
        assert drr.backlog == 0
        assert drr.next_turn() is None

    def test_withdraw_of_unqueued_item_leaves_deficit_alone(self):
        from repro.hypervisor import DeficitRoundRobin

        drr = DeficitRoundRobin(quantum=8, classes={"a": 1.0})
        for item in ("j1", "j2", "j3"):
            drr.enqueue("a", item)
        name, item, budget = drr.next_turn()   # pops j1 with 8 ticks of credit
        drr.charge(name, 3)
        deficit = drr.stats()["classes"]["a"]["deficit"]
        assert deficit == 5.0
        assert not drr.withdraw("a", item)          # popped, not queued
        assert not drr.withdraw("a", "stranger")
        assert not drr.withdraw("no-such-class", "j2")
        assert drr.stats()["classes"]["a"]["deficit"] == deficit
        assert drr.stats()["classes"]["a"]["queued"] == 2
        assert drr.withdraw("a", "j3")              # tail goes, order kept
        assert drr.next_turn()[1] == "j2"
