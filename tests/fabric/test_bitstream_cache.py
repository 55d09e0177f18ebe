"""Bitstream compilation and cache tests (§5.1, §7)."""

from repro.compiler import ArtifactStore, CompilerService
from repro.compiler.service import KIND_BITSTREAM
from repro.core import compile_program
from repro.fabric import DE10, F1, BitstreamCompiler, text_digest

SRC = """
module m(input wire clock);
  reg [31:0] n = 0;
  always @(posedge clock) n <= n + 1;
endmodule
"""


class TestDigest:
    def test_stable(self):
        assert text_digest("abc") == text_digest("abc")

    def test_discriminates(self):
        assert text_digest("abc") != text_digest("abd")


class TestCompiler:
    def test_compile_produces_bitstream(self):
        program = compile_program(SRC)
        bs = BitstreamCompiler(DE10).compile(
            program.transform.module, program.hardware_text
        )
        assert bs.device_name == "de10"
        assert bs.clock_hz in DE10.clock_steps_hz
        assert bs.compile_seconds > 0

    def test_latency_scales_with_size(self):
        compiler = BitstreamCompiler(F1)
        from repro.fabric.synth import ResourceEstimate

        small = compiler.compile_latency(ResourceEstimate(luts=1_000))
        big = compiler.compile_latency(ResourceEstimate(luts=800_000))
        assert big > small

    def test_f1_builds_slower_than_de10(self):
        """Artifact appendix: ~20min Quartus vs ~2h Vivado."""
        from repro.fabric.synth import ResourceEstimate

        est = ResourceEstimate(luts=10_000)
        assert (BitstreamCompiler(F1).compile_latency(est)
                > BitstreamCompiler(DE10).compile_latency(est))

    def test_target_hz_clamps(self):
        program = compile_program(SRC)
        bs = BitstreamCompiler(F1).compile(
            program.transform.module, program.hardware_text, target_hz=125e6
        )
        assert bs.clock_hz <= 125e6


def bitstreams(service):
    """The service's live bitstream-kind counters."""
    return service.stats(KIND_BITSTREAM)


class TestCache:
    def test_miss_then_hit(self):
        program = compile_program(SRC)
        bs = BitstreamCompiler(DE10).compile(
            program.transform.module, program.hardware_text
        )
        service = CompilerService(ArtifactStore())
        assert service.lookup_bitstream("de10", "opts", bs.digest) is None
        service.insert_bitstream("de10", "opts", bs)
        assert service.lookup_bitstream("de10", "opts", bs.digest) is bs
        assert bitstreams(service).hits == 1
        assert bitstreams(service).misses == 1

    def test_keyed_by_device_and_options(self):
        program = compile_program(SRC)
        bs = BitstreamCompiler(DE10).compile(
            program.transform.module, program.hardware_text
        )
        service = CompilerService(ArtifactStore())
        service.insert_bitstream("de10", "optsA", bs)
        assert service.lookup_bitstream("f1", "optsA", bs.digest) is None
        assert service.lookup_bitstream("de10", "optsB", bs.digest) is None

    def test_seconds_saved_accumulates(self):
        program = compile_program(SRC)
        bs = BitstreamCompiler(DE10).compile(
            program.transform.module, program.hardware_text
        )
        service = CompilerService(ArtifactStore())
        service.insert_bitstream("de10", "o", bs)
        service.lookup_bitstream("de10", "o", bs.digest)
        service.lookup_bitstream("de10", "o", bs.digest)
        assert bitstreams(service).seconds_saved == 2 * bs.compile_seconds

    def test_hit_rate(self):
        service = CompilerService(ArtifactStore())
        assert bitstreams(service).hit_rate == 0.0
        service.lookup_bitstream("de10", "o", "nope")
        assert bitstreams(service).hit_rate == 0.0

    def test_peek_is_quiet(self):
        """Speculation looks without moving the hit/miss counters."""
        program = compile_program(SRC)
        bs = BitstreamCompiler(DE10).compile(
            program.transform.module, program.hardware_text
        )
        service = CompilerService(ArtifactStore())
        assert service.peek_bitstream("de10", "o", bs.digest) is None
        service.insert_bitstream("de10", "o", bs)
        assert service.peek_bitstream("de10", "o", bs.digest) is bs
        assert bitstreams(service).hits == bitstreams(service).misses == 0

    def test_clear(self):
        service = CompilerService(ArtifactStore())
        service.lookup_bitstream("de10", "o", "x")
        service.store.clear(KIND_BITSTREAM)
        assert service.store.count(KIND_BITSTREAM) == 0
        assert bitstreams(service).misses == 0
