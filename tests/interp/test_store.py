"""Store tests: the change record, capture accounting, selective snapshots."""

import pytest

from repro.interp import Simulator, TaskHost
from repro.interp.store import Store
from repro.verilog import WidthEnv, flatten, parse, parse_module

MOD = parse_module("""
module m(input wire clock);
  reg [7:0] a;
  reg [31:0] b;
  reg [15:0] mem [2:5];
endmodule
""")


@pytest.fixture
def store():
    return Store(WidthEnv(MOD))


class TestDirty:
    def test_recorded_on_change(self, store):
        store.set("a", 1)
        assert list(store.dirty) == ["a"]

    def test_not_recorded_on_same_value(self, store):
        store.set("a", 5)
        store.dirty.clear()
        store.set("a", 5)
        assert not store.dirty

    def test_memory_changes_recorded(self, store):
        store.mem_set("mem", 3, 9)
        assert list(store.dirty) == ["mem"]

    def test_notify_suppressed(self, store):
        store.set("a", 7, notify=False)
        assert not store.dirty
        assert store.get("a") == 7


class TestMemoryAddressing:
    def test_base_offset(self, store):
        """Memory declared [2:5]: address 2 is the first element."""
        store.mem_set("mem", 2, 11)
        assert store.mem_get("mem", 2) == 11
        assert store.memories["mem"][0] == 11

    def test_out_of_range_read_is_zero(self, store):
        assert store.mem_get("mem", 99) == 0
        assert store.mem_get("mem", 0) == 0

    def test_out_of_range_write_dropped(self, store):
        assert store.mem_set("mem", 99, 5) is False

    def test_width_masked(self, store):
        store.mem_set("mem", 2, 0x1FFFF)
        assert store.mem_get("mem", 2) == 0xFFFF


class TestSnapshots:
    def test_selective_snapshot(self, store):
        store.set("a", 1)
        store.set("b", 2)
        snap = store.snapshot(["a"])
        assert set(snap) == {"a"}

    def test_state_bits_full(self, store):
        assert store.state_bits() == 8 + 32 + 16 * 4 + 1  # + clock wire

    def test_state_bits_selective(self, store):
        assert store.state_bits(["b"]) == 32
        assert store.state_bits(["mem"]) == 64

    def test_restore_ignores_unknown_names(self, store):
        store.restore({"ghost": 1, "a": 9})
        assert store.get("a") == 9

    def test_restore_memory_truncates_to_depth(self, store):
        store.restore({"mem": [1, 2, 3, 4, 5, 6, 7]})
        assert store.memories["mem"] == [1, 2, 3, 4]

    @pytest.mark.parametrize("backend", ["interp", "compiled"])
    def test_restore_masks_memory_words(self, backend):
        source = parse("""
            module m(input wire clock);
              reg [3:0] mem [0:1];
              reg [7:0] out = 0;
              always @(posedge clock) out <= mem[0] + 0;
            endmodule
        """)
        sim = Simulator(flatten(source, "m"), TaskHost(), backend=backend)
        sim.restore_store({"mem": [0x1F, 3]})
        sim.tick()
        assert sim.store.memories["mem"] == [0xF, 3]
        assert sim.get("out") == 0xF


class TestScalars:
    def test_set_returns_changed(self, store):
        assert store.set("a", 1) is True
        assert store.set("a", 1) is False

    def test_masking(self, store):
        store.set("a", 0x123)
        assert store.get("a") == 0x23

    def test_parameter_read_through(self):
        mod = parse_module(
            "module p(); parameter K = 7; reg [7:0] x; endmodule"
        )
        store = Store(WidthEnv(mod))
        assert store.get("K") == 7

    def test_unknown_name(self, store):
        with pytest.raises(KeyError):
            store.get("nope")
