"""The hand-rolled VCD dumper: claim discipline, waveform round trip,
one timeline per tenant across its software engines."""

import os

import pytest

from repro.compiler import ArtifactStore, CompilerService
from repro.interp import TaskHost, VirtualFS
from repro.interp.compile import CompiledModuleCode
from repro.interp.compile.simulator import CompiledSimulator
from repro.interp.vcd import (
    VCDWriter, claim_vcd, read_vcd, reset_vcd_claim,
)
from repro.runtime import Runtime, SoftwareEngine
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


#: counts to 9 and parks: the rest of a long span is an idle span
SLEEPER = """
module sleeper(input wire clock, input wire [7:0] tag);
  reg [7:0] n = 0;
  wire go;
  assign go = (n != 9);
  always @(posedge clock) if (go) n <= n + 1;
endmodule
"""


class TestMeteredDump:
    def _dump(self, tmp_path, monkeypatch, name, drive):
        reset_vcd_claim()
        path = tmp_path / name
        monkeypatch.setenv("REPRO_VCD", str(path))
        monkeypatch.setenv("REPRO_OPT_LEVEL", "2")  # the idle proof
        engine = SoftwareEngine(CompilerService().compile_program(SLEEPER),
                                TaskHost(VirtualFS()), backend="compiled")
        drive(engine)
        engine.sim._vcd.close()
        return path.read_bytes(), engine

    def test_run_chunk_dump_equals_per_period_tick(self, tmp_path,
                                                   monkeypatch):
        """A dump is the same however the periods were driven: metered
        ``run_chunk`` — which retires the idle span inside the simulator,
        sampling as it goes — writes the bytes that one ``tick()`` per
        period writes, a poke during the idle span included."""
        def chunked(engine):
            first = engine.run_chunk("clock", 30, now=0.0)
            engine.set("tag", 5)
            second = engine.run_chunk("clock", 30, now=first.now)
            assert first.idle_ticks and second.idle_ticks == 30

        def stepped(engine):
            for _ in range(30):
                engine.sim.tick()
            engine.set("tag", 5)
            for _ in range(30):
                engine.sim.tick()

        chunk_dump, chunk = self._dump(tmp_path, monkeypatch, "chunk.vcd",
                                       chunked)
        step_dump, step = self._dump(tmp_path, monkeypatch, "step.vcd",
                                     stepped)
        assert chunk_dump == step_dump
        assert chunk.time == step.time == 60
        _, waves = read_vcd(str(tmp_path / "chunk.vcd"))
        assert waves["n"][-1] == (9, 9) and waves["tag"][-1] == (31, 5)


#: ``c`` counts periods; ``twice`` is a continuous assign over it
TALLY = """
module tally(input wire clock);
  reg [7:0] c = 0;
  wire [8:0] twice;
  assign twice = c + c;
  always @(posedge clock) c <= c + 1;
endmodule
"""


class TestWaveformFollowsItsTenant:
    @pytest.fixture(autouse=True)
    def unchosen_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)

    def _dump(self, tmp_path, monkeypatch, name, ticks, **kwargs):
        """Run a fresh tenant of TALLY with the dump on; its waves."""
        reset_vcd_claim()
        path = tmp_path / name
        monkeypatch.setenv("REPRO_VCD", str(path))
        runtime = Runtime(TALLY, compiler=CompilerService(ArtifactStore()),
                          **kwargs)
        for chunk, horizon in ticks:
            runtime.tick(chunk, horizon=horizon)
        return read_vcd(str(path))[1], runtime

    def test_an_interpreted_tenant_writes_a_waveform(self, tmp_path,
                                                     monkeypatch):
        waves, runtime = self._dump(tmp_path, monkeypatch, "interp.vcd",
                                    [(5, None)], sim_backend="interp")
        assert runtime.engine.sim.backend == "interp"
        assert waves["c"] == [(t, t) for t in range(6)]
        assert waves["twice"][-1] == (5, 10)

    def test_tier_up_keeps_one_timeline(self, tmp_path, monkeypatch):
        """Three interpreted ticks, then the compiled engine adopted at
        tier-up carries on the same dump: no boot state re-dumped, no
        jump, and every signal both dumps hold equals a compiled run."""
        waves, runtime = self._dump(tmp_path, monkeypatch, "tiered.vcd",
                                    [(3, 3), (4, None)])
        tiers = [e.value for e in runtime.telemetry if e.tag == "tier_up"]
        assert len(tiers) == 1 and runtime.engine.sim.backend == "compiled"
        assert waves["c"] == [(t, t) for t in range(8)]
        reference, _ = self._dump(tmp_path, monkeypatch, "compiled.vcd",
                                  [(7, None)], sim_backend="compiled")
        shared = waves.keys() & reference.keys()
        assert {"c", "clock"} <= shared
        assert ({name: waves[name] for name in shared}
                == {name: reference[name] for name in shared})
