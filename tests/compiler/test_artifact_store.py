"""Artifact store and compiler-service unit tests."""

from repro.compiler import (
    ArtifactStore, CompilerService, default_service,
    text_digest,
)
from repro.fabric import DE10, SynthOptions
from repro.fabric.bitstream import BitstreamCompiler
from repro.verilog import parse

SRC = """
module helper(input wire c, output wire o);
  assign o = ~c;
endmodule
module top(input wire clock);
  wire inv;
  reg [7:0] n = 0;
  helper h(.c(clock), .o(inv));
  always @(posedge clock) n <= n + 1;
endmodule
"""


class TestArtifactStore:
    def test_miss_then_hit(self):
        store = ArtifactStore()
        assert store.get("k", "a") is None
        store.put("k", "a", 42)
        assert store.get("k", "a") == 42
        stats = store.stats("k")
        assert stats.hits == 1 and stats.misses == 1

    def test_peek_is_silent(self):
        store = ArtifactStore()
        store.put("k", "a", 1)
        assert store.peek("k", "a") == 1
        assert store.peek("k", "b") is None
        assert store.stats().hits == 0 and store.stats().misses == 0

    def test_kinds_are_disjoint(self):
        store = ArtifactStore()
        store.put("x", "same-key", 1)
        store.put("y", "same-key", 2)
        assert store.get("x", "same-key") == 1
        assert store.get("y", "same-key") == 2
        assert store.count("x") == 1 and len(store) == 2

    def test_get_or_build_builds_once(self):
        store = ArtifactStore()
        calls = []
        build = lambda: calls.append(1) or "artifact"
        assert store.get_or_build("k", "a", build) == "artifact"
        assert store.get_or_build("k", "a", build) == "artifact"
        assert len(calls) == 1

    def test_aggregate_stats_sum_kinds(self):
        store = ArtifactStore()
        store.get("a", "miss")
        store.put("b", "x", 1, seconds=2.5)
        store.get("b", "x")
        total = store.stats()
        assert total.hits == 1 and total.misses == 1
        assert total.seconds_saved == 2.5

    def test_lru_eviction_bounds_growth(self):
        store = ArtifactStore(max_entries=2)
        store.put("k", "a", 1)
        store.put("k", "b", 2)
        store.get("k", "a")        # touch: "b" is now least recent
        store.put("k", "c", 3)     # evicts "b"
        assert store.peek("k", "b") is None
        assert store.peek("k", "a") == 1 and store.peek("k", "c") == 3
        assert store.stats("k").evictions == 1
        assert len(store) == 2

    def test_clear_kind_resets_only_that_kind(self):
        store = ArtifactStore()
        store.put("a", "x", 1)
        store.put("b", "y", 2)
        store.get("a", "x")
        store.clear("a")
        assert store.peek("a", "x") is None
        assert store.peek("b", "y") == 2
        assert store.stats("a").hits == 0


class TestArtifactStoreEvictionOrder:
    """LRU order and counters under interleaved hit/miss/evict traffic."""

    def test_gets_refresh_recency_puts_evict_oldest(self):
        store = ArtifactStore(max_entries=3)
        store.put("k", "a", 1)
        store.put("k", "b", 2)
        store.put("k", "c", 3)
        store.get("k", "a")        # order now b, c, a
        store.put("k", "d", 4)     # evicts b
        store.get("k", "c")        # order now a, d, c (a oldest)
        store.put("k", "e", 5)     # evicts a
        assert store.peek("k", "b") is None
        assert store.peek("k", "a") is None
        assert [key for key in ("c", "d", "e")
                if store.peek("k", key) is not None] == ["c", "d", "e"]
        assert store.stats("k").evictions == 2

    def test_peek_does_not_refresh_recency(self):
        store = ArtifactStore(max_entries=2)
        store.put("k", "a", 1)
        store.put("k", "b", 2)
        store.peek("k", "a")       # silent: "a" stays oldest
        store.put("k", "c", 3)     # evicts "a", not "b"
        assert store.peek("k", "a") is None
        assert store.peek("k", "b") == 2

    def test_put_over_existing_key_does_not_evict(self):
        store = ArtifactStore(max_entries=2)
        store.put("k", "a", 1)
        store.put("k", "b", 2)
        store.put("k", "a", 10)    # replace, not insert
        assert len(store) == 2
        assert store.stats("k").evictions == 0
        assert store.get("k", "a") == 10
        assert store.get("k", "b") == 2

    def test_interleaved_hit_miss_evict_counters(self):
        store = ArtifactStore(max_entries=2)
        sequence = [
            ("get", "x", None),    # miss
            ("put", "x", 1),
            ("get", "x", 1),       # hit
            ("put", "y", 2),
            ("get", "y", 2),       # hit
            ("put", "z", 3),       # evicts x (oldest)
            ("get", "x", None),    # miss again after eviction
            ("get", "z", 3),       # hit
        ]
        for op, key, expected in sequence:
            if op == "put":
                store.put("k", key, expected)
            else:
                assert store.get("k", key) == expected
        stats = store.stats("k")
        assert (stats.hits, stats.misses, stats.evictions) == (3, 2, 1)
        # The all-kinds aggregate sees the same single-kind traffic.
        total = store.stats()
        assert (total.hits, total.misses, total.evictions) == (3, 2, 1)

    def test_eviction_attributes_to_the_evicted_kind(self):
        store = ArtifactStore(max_entries=2)
        store.put("old", "a", 1)
        store.put("new", "b", 2)
        store.put("new", "c", 3)   # evicts ("old", "a")
        assert store.stats("old").evictions == 1
        assert store.stats("new").evictions == 0
        assert store.count("old") == 0 and store.count("new") == 2

    def test_get_or_build_rebuilds_after_eviction(self):
        store = ArtifactStore(max_entries=1)
        builds = []
        build = lambda: builds.append(1) or len(builds)
        assert store.get_or_build("k", "a", build) == 1
        store.put("k", "b", 99)    # evicts "a"
        assert store.get_or_build("k", "a", build) == 2
        assert len(builds) == 2
        stats = store.stats("k")
        assert stats.misses == 2 and stats.evictions == 2

    def test_seconds_saved_accumulates_per_hit(self):
        store = ArtifactStore()
        store.put("k", "a", 1, seconds=1.5)
        store.get("k", "a")
        store.get("k", "a")
        assert store.stats("k").seconds_saved == 3.0


class TestBitstreamsInTheStore:
    def test_bitstreams_share_the_store_with_every_other_stage(self):
        store = ArtifactStore()
        service = CompilerService(store)
        program = service.compile_program(SRC)
        bs = BitstreamCompiler(DE10).compile(
            program.transform.module, program.hardware_text
        )
        service.insert_bitstream("de10", "o", bs)
        assert store.count("bitstream") == 1
        assert service.lookup_bitstream("de10", "o", bs.digest) is bs
        assert service.stats("bitstream").hits == 1
        # The store aggregate sees the same traffic.
        assert store.stats().hits >= 1

    def test_bounded_store_counts_bitstream_evictions(self):
        program = CompilerService().compile_program(SRC)
        bs = BitstreamCompiler(DE10).compile(
            program.transform.module, program.hardware_text
        )
        service = CompilerService(ArtifactStore(max_entries=1))
        service.insert_bitstream("de10", "a", bs)
        service.insert_bitstream("f1", "b", bs)
        assert service.store.count("bitstream") == 1
        assert service.stats("bitstream").evictions == 1
        assert service.lookup_bitstream("de10", "a", bs.digest) is None


class TestCompilerService:
    def test_program_cached_by_content(self):
        service = CompilerService(ArtifactStore())
        assert service.compile_program(SRC) is service.compile_program(SRC)

    def test_text_and_parsed_input_converge(self):
        service = CompilerService(ArtifactStore())
        from_text = service.compile_program(SRC)
        from_parsed = service.compile_program(parse(SRC))
        assert from_parsed is from_text

    def test_module_input_has_canonical_source(self):
        # A flattened module and the text it came from canonicalize to
        # the same printed source (and therefore the same digest), even
        # though they enter the pipeline as different kinds.
        service = CompilerService(ArtifactStore())
        from_text = service.compile_program(SRC)
        from_module = service.compile_program(from_text.flat)
        assert from_module.source == from_text.source
        assert from_module.digest == from_text.digest

    def test_source_is_printer_canonical_for_all_kinds(self):
        # Reformatting the raw text misses the raw-digest alias but
        # converges on the printer-canonical program key: one artifact.
        service = CompilerService(ArtifactStore())
        reformatted = SRC.replace("  ", "      ")
        a = service.compile_program(SRC)
        b = service.compile_program(reformatted)
        assert a is b
        assert a.digest == text_digest(a.source)

    def test_top_selects_distinct_programs(self):
        service = CompilerService(ArtifactStore())
        assert service.compile_program(SRC).name == "top"
        assert service.compile_program(SRC, top="helper").name == "helper"

    def test_codegen_shared_by_digest(self):
        service = CompilerService(ArtifactStore())
        program = service.compile_program(SRC)
        code_a = service.codegen(program.flat, env=program.env,
                                 digest=program.digest)
        code_b = service.codegen(program.flat, env=program.env,
                                 digest=program.digest)
        assert code_a is code_b

    def test_estimate_cached_and_env_tagged(self):
        service = CompilerService(ArtifactStore())
        program = service.compile_program(SRC)
        options = SynthOptions()
        hw = service.estimate(program.transform.module, program.hardware_env,
                              options, digest=program.hardware_digest,
                              env_tag="hw")
        again = service.estimate(program.transform.module,
                                 program.hardware_env, options,
                                 digest=program.hardware_digest, env_tag="hw")
        assert hw is again
        flat_env = service.estimate(program.transform.module, program.env,
                                    options, digest=program.hardware_digest,
                                    env_tag="flatenv")
        assert flat_env is not hw  # different env, different artifact

    def test_default_service_is_private(self):
        assert default_service().store is not default_service().store


class TestSynthOptionsKey:
    def test_key_deterministic_and_discriminating(self):
        base = SynthOptions()
        assert base.key == SynthOptions().key
        assert SynthOptions(anti_congestion=True).key != base.key
        assert SynthOptions(state_access_bits=8).key != base.key

    def test_captured_names_order_stable(self):
        a = SynthOptions(captured_names=frozenset(["x", "y", "z"]))
        b = SynthOptions(captured_names=frozenset(["z", "y", "x"]))
        assert a.key == b.key
        assert a.key != SynthOptions(captured_names=frozenset(["x"])).key
        assert a.key != SynthOptions().key  # capture-all is distinct


class TestDigests:
    def test_text_digest_stable(self):
        assert text_digest("abc") == text_digest("abc")
        assert text_digest("abc") != text_digest("abd")

    def test_program_digests(self):
        service = CompilerService(ArtifactStore())
        program = service.compile_program(SRC)
        assert program.digest == text_digest(program.source)
        assert program.hardware_digest == text_digest(program.hardware_text)
        assert program.digest != program.hardware_digest
