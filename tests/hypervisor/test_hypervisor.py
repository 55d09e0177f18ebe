"""Hypervisor tests: coalescing, handshake, multitenancy, nesting."""

import pytest

from repro.amorphos import ProtectionError
from repro.core import compile_program
from repro.fabric import DE10, F1, Device
from repro.hypervisor import CapacityError, Hypervisor, coalesce, engine_module_name
from repro.runtime import DirectBoardBackend, Runtime


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
    def tiny_device(self):
        return Device(
            name="tiny", family="toy", luts=2_000, ffs=4_000, bram_kbits=10,
            max_clock_hz=50e6, clock_steps_hz=(50e6, 25e6),
            reconfig_seconds=0.1, abi_latency_s=1e-6, lut_delay_ns=1.0,
            compile_seconds=1.0,
        )

    def test_capacity_error_without_parent(self):
        hv = Hypervisor(self.tiny_device(), use_hull=False)
        client = hv.connect("one")
        big = compile_program(counter_src("a"))
        # Fill the tiny device until it overflows.
        with pytest.raises(CapacityError):
            for i in range(50):
                rt = Runtime(counter_src(f"c{i}"))
                rt.attach(hv.connect(f"inst{i}"))

    def test_delegation_to_parent(self):
        parent = Hypervisor(F1)
        child = Hypervisor(self.tiny_device(), use_hull=False, parent=parent)
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
