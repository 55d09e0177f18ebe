"""Tests for the implemented future-work features: clock domains (§6.2)
and speculative compilation (§7)."""

import pytest

from repro.core import compile_program
from repro.compiler.service import KIND_BITSTREAM, CompilerService
from repro.fabric import F1
from repro.fabric.speculative import SpeculativeCompiler
from repro.hypervisor import Hypervisor, coalesce
from repro.runtime import Runtime
from repro.harness.common import bench_program, bench_source_kwargs, bench_vfs


def counter_src(name):
    return f"""
module {name}(input wire clock, output wire [31:0] out);
  reg [31:0] n = 0;
  always @(posedge clock) n <= n + 1;
  assign out = n;
endmodule
"""


def attach(runtime, client):
    runtime.tick(1)
    runtime.attach(client)
    runtime._hw_ready_at = runtime.sim_time
    runtime.tick(1)
    return runtime


class TestClockDomains:
    def test_domains_decouple_slow_arrivals(self):
        """With clock domains, adpcm's arrival leaves bitcoin's clock
        alone — the exact fix Figure 12's discussion proposes."""
        global_hv = Hypervisor(F1, clock_domains=False)
        cdc_hv = Hypervisor(F1, clock_domains=True)
        outcomes = {}
        for tag, hv in (("global", global_hv), ("cdc", cdc_hv)):
            rt_b = Runtime(bench_program("bitcoin", **bench_source_kwargs("bitcoin")),
                           name="bitcoin")
            attach(rt_b, hv.connect("bitcoin"))
            clock_before = rt_b.placement.clock_hz
            rt_a = Runtime(bench_program("adpcm"), vfs=bench_vfs("adpcm"),
                           name="adpcm")
            attach(rt_a, hv.connect("adpcm"))
            clock_after = hv.design.clock_for(rt_b.placement.engine_id)
            outcomes[tag] = (clock_before, clock_after)
        g_before, g_after = outcomes["global"]
        c_before, c_after = outcomes["cdc"]
        assert g_after < g_before          # the Figure 12 collapse...
        assert c_after == c_before         # ...gone with clock domains

    def test_domains_cost_cdc_logic(self):
        programs = {
            1: compile_program(counter_src("a")),
            2: compile_program(counter_src("b")),
        }
        plain = coalesce(programs, F1, clock_domains=False)
        domains = coalesce(programs, F1, clock_domains=True)
        assert domains.resources.luts > plain.resources.luts
        assert domains.resources.ffs > plain.resources.ffs

    def test_per_engine_clock_lookup(self):
        programs = {1: compile_program(counter_src("a"))}
        design = coalesce(programs, F1, clock_domains=True)
        assert design.clock_for(1) == design.engine_clocks_hz[1]
        assert design.clock_for(99) == design.clock_hz  # fallback


class TestSpeculativeCompilation:
    def test_builds_land_after_latency(self):
        service = CompilerService()
        spec = SpeculativeCompiler(service, "f1", "hypervisor")
        program = compile_program(counter_src("a"))
        design = coalesce({1: program}, F1)
        hv = Hypervisor(F1, compiler=service)
        bitstream = hv._make_bitstream(design)
        spec.enqueue(bitstream, now=0.0)
        assert spec.settle(now=1.0) == 0            # still building
        assert spec.settle(now=bitstream.compile_seconds + 1) == 1
        assert service.peek_bitstream("f1", "hypervisor",
                                      design.digest) is not None

    def test_duplicate_enqueue_ignored(self):
        service = CompilerService()
        spec = SpeculativeCompiler(service, "f1")
        program = compile_program(counter_src("a"))
        hv = Hypervisor(F1, compiler=service)
        bitstream = hv._make_bitstream(coalesce({1: program}, F1))
        spec.enqueue(bitstream, 0.0)
        spec.enqueue(bitstream, 0.0)
        assert len(spec.in_flight) == 1

    def test_parallelism_queues_excess(self):
        service = CompilerService()
        spec = SpeculativeCompiler(service, "f1", parallelism=1)
        hv = Hypervisor(F1, compiler=service)
        bitstreams = [
            hv._make_bitstream(coalesce({1: compile_program(counter_src(f"m{i}"))}, F1))
            for i in range(3)
        ]
        for bs in bitstreams:
            spec.enqueue(bs, 0.0)
        ready = sorted(b.ready_at for b in spec.in_flight)
        assert ready[1] > ready[0]  # serialized behind lane 0

    def test_departure_speculation_warms_cache(self):
        """The headline scenario: a tenant leaves, and the design
        without it was already compiled in the background."""
        hv = Hypervisor(F1)
        hv.enable_speculation()
        rt1 = attach(Runtime(counter_src("a")), hv.connect("one"))
        client_b = hv.connect("two")
        rt2 = attach(Runtime(counter_src("b")), client_b)

        hv.speculate_departures(now=0.0)
        assert hv.speculator.in_flight
        # Let the background builds finish...
        horizon = max(b.ready_at for b in hv.speculator.in_flight) + 1
        hv.speculator.settle(now=horizon)

        bitstreams = hv.compiler.stats(KIND_BITSTREAM)  # live counters
        misses_before = bitstreams.misses
        n_before = rt1.engine.get("n")
        client_b.release(rt2.placement.engine_id)  # triggers recompile
        assert bitstreams.misses == misses_before  # pure cache hit
        rt1.tick(2)
        assert rt1.engine.get("n") == n_before + 2  # state preserved
