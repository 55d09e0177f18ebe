"""The hand-rolled VCD dumper: claim discipline, waveform round trip."""

import os

import pytest

from repro.interp import TaskHost, VirtualFS
from repro.interp.compile import CompiledModuleCode
from repro.interp.compile.simulator import CompiledSimulator
from repro.interp.vcd import (
    VCDWriter, claim_vcd, read_vcd, reset_vcd_claim,
)
from repro.verilog import flatten, parse

COUNTER = """
module counter(input wire clock, input wire en);
  reg [7:0] n = 0;
  wire [7:0] next;
  assign next = n + 8'd1;
  always @(posedge clock) begin
    if (en) n <= next;
  end
endmodule
"""


@pytest.fixture(autouse=True)
def fresh_claim():
    reset_vcd_claim()
    yield
    reset_vcd_claim()


def dump_run(tmp_path, monkeypatch, ticks=6):
    path = tmp_path / "wave.vcd"
    monkeypatch.setenv("REPRO_VCD", str(path))
    flat = flatten(parse(COUNTER), "counter")
    sim = CompiledSimulator(flat, TaskHost(VirtualFS()),
                            code=CompiledModuleCode(flat))
    sim.set("en", 1)
    sim.tick(cycles=ticks)
    return path, sim


class TestClaim:
    def test_first_claim_wins(self):
        assert claim_vcd()
        assert not claim_vcd()
        reset_vcd_claim()
        assert claim_vcd()

    def test_no_env_no_writer(self, monkeypatch):
        monkeypatch.delenv("REPRO_VCD", raising=False)
        flat = flatten(parse(COUNTER), "counter")
        sim = CompiledSimulator(flat, TaskHost(VirtualFS()),
                                code=CompiledModuleCode(flat))
        assert sim._vcd is None


class TestRoundTrip:
    def test_dump_and_read_back(self, tmp_path, monkeypatch):
        path, sim = dump_run(tmp_path, monkeypatch, ticks=6)
        assert path.exists() and path.stat().st_size > 0
        timescale, waves = read_vcd(str(path))
        assert timescale == "1ns"
        assert "n" in waves and "clock" in waves
        # The counter increments once per tick; the last sample must
        # hold the live value and the history must be monotone.
        values = [v for _, v in waves["n"]]
        assert values[-1] == sim.get("n") == 6
        assert values == sorted(values)

    def test_times_monotone_and_changes_only(self, tmp_path, monkeypatch):
        path, _ = dump_run(tmp_path, monkeypatch, ticks=5)
        _, waves = read_vcd(str(path))
        for name, samples in waves.items():
            times = [t for t, _ in samples]
            assert times == sorted(times), name
            # Diff-scan dumping: consecutive samples always differ.
            for (_, a), (_, b) in zip(samples, samples[1:]):
                assert a != b, name

    def test_quiescent_ticks_emit_no_value_changes(self, tmp_path,
                                                   monkeypatch):
        path = tmp_path / "idle.vcd"
        monkeypatch.setenv("REPRO_VCD", str(path))
        flat = flatten(parse(COUNTER), "counter")
        sim = CompiledSimulator(flat, TaskHost(VirtualFS()),
                                code=CompiledModuleCode(flat))
        sim.set("en", 0)
        sim.tick(cycles=3)
        _, before = read_vcd(str(path))
        sim.tick(cycles=50)
        _, after = read_vcd(str(path))
        assert {k: v for k, v in after.items() if k != "clock"} == \
               {k: v for k, v in before.items() if k != "clock"}
