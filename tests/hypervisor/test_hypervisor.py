"""Hypervisor tests: coalescing, handshake, multitenancy, nesting."""

import pytest

from repro.compiler.service import CompilerService, KIND_SYNTH
from repro.core import compile_program
from repro.fabric import DE10, F1, Device
from repro.hypervisor import (
    CapacityError, Hypervisor, ProtectionError, coalesce, engine_module_name,
)
from repro.hypervisor.hypervisor import NETWORK_LATENCY_S
from repro.runtime import DirectBoardBackend, Get, Runtime, Snapshot


def counter_src(name, step=1):
    return f"""
module {name}(input wire clock, output wire [31:0] out);
  reg [31:0] n = 0;
  always @(posedge clock) n <= n + {step};
  assign out = n;
endmodule
"""


def attach(runtime, client):
    runtime.attach(client)
    runtime._hw_ready_at = runtime.sim_time
    runtime.tick(1)
    return runtime


class TestCoalesce:
    def test_engine_modules_named_by_id(self):
        programs = {
            3: compile_program(counter_src("a")),
            7: compile_program(counter_src("b")),
        }
        design = coalesce(programs, F1)
        assert engine_module_name(3) in design.text
        assert engine_module_name(7) in design.text

    def test_resources_accumulate(self):
        one = coalesce({1: compile_program(counter_src("a"))}, F1)
        two = coalesce({
            1: compile_program(counter_src("a")),
            2: compile_program(counter_src("b")),
        }, F1)
        assert two.resources.luts > one.resources.luts

    def test_digest_changes_with_membership(self):
        p = compile_program(counter_src("a"))
        assert (coalesce({1: p}, F1).digest
                != coalesce({1: p, 2: p}, F1).digest)

    def test_empty_design(self):
        design = coalesce({}, F1)
        assert design.engine_ids == []


class TestMultitenancy:
    def test_two_tenants_run_concurrently(self):
        hv = Hypervisor(F1)
        rt1 = attach(Runtime(counter_src("a", 1)), hv.connect("one"))
        rt2 = attach(Runtime(counter_src("b", 3)), hv.connect("two"))
        rt1.tick(9)
        rt2.tick(9)
        assert rt1.engine.get("n") == 10
        assert rt2.engine.get("n") == 30

    def test_state_survives_new_tenant_arrival(self):
        hv = Hypervisor(F1)
        rt1 = attach(Runtime(counter_src("a")), hv.connect("one"))
        rt1.tick(5)
        n_before = rt1.engine.get("n")
        attach(Runtime(counter_src("b")), hv.connect("two"))
        # The arrival reprogrammed the device; rt1's state was replayed.
        assert rt1.engine.get("n") == n_before
        rt1.tick(1)
        assert rt1.engine.get("n") == n_before + 1

    def test_handshake_reports(self):
        hv = Hypervisor(F1)
        attach(Runtime(counter_src("a")), hv.connect("one"))
        attach(Runtime(counter_src("b")), hv.connect("two"))
        assert len(hv.handshakes) == 2
        assert hv.handshakes[1].engines_paused == 1
        assert hv.handshakes[1].bits_saved > 0

    def test_channel_isolation(self):
        hv = Hypervisor(F1)
        client_a = hv.connect("one")
        client_b = hv.connect("two")
        rt1 = attach(Runtime(counter_src("a")), client_a)
        rt2 = attach(Runtime(counter_src("b")), client_b)
        with pytest.raises(ProtectionError):
            client_a.channel(rt2.placement.engine_id)

    def test_same_instance_name_is_not_ownership(self):
        """Clients are principals, not names: two connections under one
        instance name still cannot open each other's channels."""
        hv = Hypervisor(F1)
        first, second = hv.connect("alice"), hv.connect("alice")
        rt1 = attach(Runtime(counter_src("a")), first)
        rt2 = attach(Runtime(counter_src("b")), second)
        with pytest.raises(ProtectionError):
            first.channel(rt2.placement.engine_id)
        with pytest.raises(ProtectionError):
            second.channel(rt1.placement.engine_id)
        assert first.channel(rt1.placement.engine_id) is not None

    def test_placement_makes_one_synthesis_estimate(self):
        """Fit is decided by the coalescer's estimate alone: one cold
        placement interns exactly one synthesis artifact."""
        compiler = CompilerService()
        hv = Hypervisor(F1, compiler=compiler)
        hv.connect("one").place(compiler.compile_program(counter_src("a")))
        assert compiler.store.count(KIND_SYNTH) == 1

    def test_each_new_tenant_adds_one_estimate(self):
        """Re-coalescing a resident sub-program reuses its estimate: a
        second placement interns one more synthesis artifact, not two."""
        compiler = CompilerService()
        hv = Hypervisor(F1, compiler=compiler)
        hv.connect("one").place(compiler.compile_program(counter_src("a")))
        hv.connect("two").place(compiler.compile_program(counter_src("b")))
        assert compiler.store.count(KIND_SYNTH) == 2

    def test_channel_latency_is_device_plus_network(self):
        hv = Hypervisor(F1)
        rt = attach(Runtime(counter_src("a")), hv.connect("one"))
        channel = hv.channel(rt.placement.engine_id)
        assert channel.current_latency() == pytest.approx(
            F1.abi_latency_s + NETWORK_LATENCY_S)

    def test_board_utilization_follows_membership(self):
        hv = Hypervisor(F1)
        rt1 = attach(Runtime(counter_src("a")), hv.connect("one"))
        client_b = hv.connect("two")
        rt2 = attach(Runtime(counter_src("b")), client_b)
        both = hv.board.utilization()["luts"]
        assert both == pytest.approx(hv.design.resources.luts / F1.luts)
        client_b.release(rt2.placement.engine_id)
        assert 0 < hv.board.utilization()["luts"] < both
        assert rt1.placement.engine_id in hv.design.engine_ids

    def test_release_recompiles_without_tenant(self):
        hv = Hypervisor(F1)
        client_a = hv.connect("one")
        client_b = hv.connect("two")
        rt1 = attach(Runtime(counter_src("a")), client_a)
        rt2 = attach(Runtime(counter_src("b")), client_b)
        client_b.release(rt2.placement.engine_id)
        assert len(hv.table.active) == 1
        rt1.tick(2)
        assert rt1.engine.get("n") == 3

    def test_release_all_clears_board(self):
        hv = Hypervisor(F1)
        client = hv.connect("one")
        rt = attach(Runtime(counter_src("a")), client)
        client.release(rt.placement.engine_id)
        assert hv.design is None
        assert not hv.board.slots


class TestIsolation:
    """Isolation is each client's list of the engines it placed."""

    def test_owner_opens_its_own_channel(self):
        hv = Hypervisor(F1)
        client = hv.connect("one")
        rt = attach(Runtime(counter_src("a")), client)
        rt.tick(2)
        channel = client.channel(rt.placement.engine_id)
        assert channel.send(Get("n")) == rt.engine.get("n") == 3

    def test_released_engine_cannot_be_reopened(self):
        hv = Hypervisor(F1)
        client = hv.connect("one")
        rt = attach(Runtime(counter_src("a")), client)
        engine_id = rt.placement.engine_id
        client.release(engine_id)
        assert engine_id not in hv.table
        with pytest.raises(ProtectionError):
            client.channel(engine_id)
        with pytest.raises(KeyError):
            hv.handle(engine_id, Get("n"))

    def test_releasing_a_foreign_engine_does_nothing(self):
        hv = Hypervisor(F1)
        owner, other = hv.connect("one"), hv.connect("two")
        rt = attach(Runtime(counter_src("a")), owner)
        engine_id = rt.placement.engine_id
        other.release(engine_id)
        assert [rec.engine_id for rec in hv.table.active] == [engine_id]
        rt.tick(2)
        assert rt.engine.get("n") == 3

    def test_delegated_engine_stays_private(self):
        parent = Hypervisor(F1)
        child = Hypervisor(TestCapacityAndNesting.tiny_device(), parent=parent)
        clients = []
        while not child._remote:
            client = child.connect(f"inst{len(clients)}")
            attach(Runtime(counter_src(f"c{len(clients)}")), client)
            clients.append(client)
        delegated = next(iter(child._remote))
        assert delegated in clients[-1]._owned
        for client in clients[:-1]:
            with pytest.raises(ProtectionError):
                client.channel(delegated)
        assert clients[-1].channel(delegated) is not None


class TestCaptureSets:
    """The handshake's capture set is the program's own state report."""

    YIELDING = """
module y(input wire clock);
  (* non_volatile *) reg [31:0] keep = 0;
  reg [31:0] scratch = 0;
  always @(posedge clock) begin
    keep <= keep + 1;
    scratch <= keep;
    $yield;
  end
endmodule
"""

    def test_without_yield_every_variable_survives(self):
        hv = Hypervisor(F1)
        client = hv.connect("one")
        rt = attach(Runtime("""
module app(input wire clock);
  reg [63:0] a = 0;
  reg [127:0] b = 0;
  reg [7:0] mem [0:7];
  always @(posedge clock) begin
    a <= a + 1;
    b <= b + 2;
    mem[a[2:0]] <= a[7:0] + 8'd1;
  end
endmodule
"""), client)
        rt.tick(4)
        names = tuple(rt.program.state.captured_names())
        assert set(names) == {"a", "b", "mem"}
        channel = client.channel(rt.placement.engine_id)
        before = channel.send(Snapshot(names))
        attach(Runtime(counter_src("b")), hv.connect("two"))
        assert hv.handshakes[-1].bits_saved >= rt.program.state.total_bits
        assert channel.send(Snapshot(names)) == before
        assert (rt.engine.get("a"), rt.engine.get("b")) == (5, 10)

    def test_with_yield_only_nonvolatile_state_survives(self):
        hv = Hypervisor(F1)
        rt = attach(Runtime(self.YIELDING), hv.connect("one"))
        rt.tick(3)
        assert (rt.engine.get("keep"), rt.engine.get("scratch")) == (4, 3)
        attach(Runtime(counter_src("b")), hv.connect("two"))
        assert hv.handshakes[-1].bits_saved == rt.program.state.captured_bits
        assert rt.program.state.captured_names() == ["keep"]
        assert (rt.engine.get("keep"), rt.engine.get("scratch")) == (4, 0)


class TestGlobalClock:
    def test_single_tenant_clock(self):
        hv = Hypervisor(F1)
        attach(Runtime(counter_src("a")), hv.connect("one"))
        assert hv.clock_hz in F1.clock_steps_hz

    def test_more_tenants_never_raise_clock(self):
        hv = Hypervisor(F1)
        attach(Runtime(counter_src("a")), hv.connect("one"))
        clock1 = hv.clock_hz
        attach(Runtime(counter_src("b")), hv.connect("two"))
        assert hv.clock_hz <= clock1


class TestBackendChoice:
    """An unknown simulation backend fails when the board is built, not
    at the first placement — whose reprogram would already have dropped
    every co-resident slot."""

    def test_named_backend_fails_at_construction(self):
        with pytest.raises(ValueError, match="'batched'"):
            Hypervisor(F1, sim_backend="batched")
        with pytest.raises(ValueError, match="'batched'"):
            DirectBoardBackend(F1, sim_backend="batched")

    def test_ambient_backend_fails_at_construction(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "batched")
        with pytest.raises(ValueError, match="'batched'"):
            Hypervisor(F1)


class TestCapacityAndNesting:
    @staticmethod
    def tiny_device():
        return Device(
            name="tiny", family="toy", luts=2_000, ffs=4_000, bram_kbits=10,
            max_clock_hz=50e6, clock_steps_hz=(50e6, 25e6),
            reconfig_seconds=0.1, abi_latency_s=1e-6, lut_delay_ns=1.0,
            compile_seconds=1.0,
        )

    def test_capacity_error_without_parent(self):
        hv = Hypervisor(self.tiny_device())
        client = hv.connect("one")
        big = compile_program(counter_src("a"))
        # Fill the tiny device until it overflows.
        with pytest.raises(CapacityError):
            for i in range(50):
                rt = Runtime(counter_src(f"c{i}"))
                rt.attach(hv.connect(f"inst{i}"))

    def test_delegation_to_parent(self):
        parent = Hypervisor(F1)
        child = Hypervisor(self.tiny_device(), parent=parent)
        placed = 0
        runtimes = []
        for i in range(8):
            rt = Runtime(counter_src(f"c{i}", step=i + 1))
            rt.attach(child.connect(f"inst{i}"))
            rt._hw_ready_at = rt.sim_time
            rt.tick(1)
            runtimes.append(rt)
            placed += 1
        # Some engines were delegated to the parent hypervisor...
        assert child._remote, "expected delegation to the parent"
        assert len(parent.table.active) == len(child._remote)
        # ...and they still execute correctly through the child.
        for i, rt in enumerate(runtimes):
            rt.tick(4)
            assert rt.engine.get("n") == 5 * (i + 1)

    def fill(self, hv):
        """Place counters until the device refuses one."""
        runtimes = []
        with pytest.raises(CapacityError):
            for i in range(50):
                client = hv.connect(f"inst{i}")
                rt = Runtime(counter_src(f"c{i}"))
                rt.attach(client)
                runtimes.append((rt, client))
        return runtimes

    def test_refused_placement_leaves_no_engine(self):
        hv = Hypervisor(self.tiny_device())
        placed = self.fill(hv)
        assert len(hv.table) == len(placed)
        assert sorted(hv.board.slots) == sorted(
            rt.placement.engine_id for rt, _ in placed)

    def test_release_frees_capacity(self):
        hv = Hypervisor(self.tiny_device())
        placed = self.fill(hv)
        rt, client = placed[0]
        client.release(rt.placement.engine_id)
        late = attach(Runtime(counter_src("late")), hv.connect("late"))
        assert late.mode == "hardware"
        assert len(hv.table) == len(placed)
