"""Disk artifact tier: frames, codecs, eviction, faults, warm restarts."""

import os
import shutil

import pytest

from repro.compiler import (
    KIND_CODEGEN, ArtifactStore, CompilerService, DiskArtifactStore,
)
from repro.compiler.artifacts import resolve_store
from repro.compiler.service import KIND_OPT
from repro.compiler.diskstore import (
    frame_payload, unframe_payload,
)
from repro.fabric.faults import FaultPlan
from repro.interp import Simulator, TaskHost
from repro.interp.compile.batch import HAVE_NUMPY

SRC = """
module app(input wire clock);
  reg [31:0] n;
  reg [31:0] acc;
  wire [31:0] twist;
  assign twist = acc ^ (n << 3);
  initial n = 0;
  initial acc = 1;
  always @(posedge clock) begin
    n <= n + 1;
    acc <= acc + (acc << 1) + n + (twist & 32'h f);
    if (n % 7 == 0) $display("n=%0d acc=%0d", n, acc);
  end
endmodule
"""


class TestFrame:
    def test_roundtrip(self):
        assert unframe_payload(frame_payload(b"hello")) == b"hello"

    def test_truncation_is_a_miss(self):
        data = frame_payload(b"payload bytes")
        for cut in (0, 3, len(data) // 2, len(data) - 1):
            assert unframe_payload(data[:cut]) is None

    def test_bitflip_is_a_miss(self):
        data = bytearray(frame_payload(b"payload bytes"))
        data[len(data) // 2] ^= 0xFF
        assert unframe_payload(bytes(data)) is None

    def test_foreign_interpreter_tag_is_a_miss(self, monkeypatch):
        data = frame_payload(b"payload")
        monkeypatch.setattr("repro.compiler.diskstore._cache_tag",
                            lambda: b"other-python-tag")
        assert unframe_payload(data) is None


class TestDiskArtifactStore:
    def test_store_load_roundtrip(self, tmp_path):
        disk = DiskArtifactStore(tmp_path)
        assert disk.load("k", "key") is None
        assert disk.store("k", "key", {"a": 1}, seconds=2.5)
        assert disk.load("k", "key") == ({"a": 1}, 2.5)
        assert disk.contains("k", "key")
        assert disk.stats()["entries"] == 1

    def test_kinds_are_disjoint_directories(self, tmp_path):
        disk = DiskArtifactStore(tmp_path)
        disk.store("x", "same-key", 1)
        disk.store("y", "same-key", 2)
        assert disk.load("x", "same-key")[0] == 1
        assert disk.load("y", "same-key")[0] == 2
        assert disk.count("x") == 1 and disk.count() == 2

    def test_corrupt_file_is_dropped_and_missed(self, tmp_path):
        disk = DiskArtifactStore(tmp_path)
        disk.store("k", "key", [1, 2, 3])
        path = disk.path_for("k", "key")
        with open(path, "r+b") as fh:
            fh.seek(os.path.getsize(path) // 2)
            fh.write(b"\xff\xff\xff\xff")
        assert disk.load("k", "key") is None
        assert disk.corrupt == 1
        assert not os.path.exists(path), "corrupt artifacts are unlinked"

    def test_unserializable_value_is_skipped(self, tmp_path):
        disk = DiskArtifactStore(tmp_path)
        assert not disk.store("k", "key", lambda: None)  # local closure
        assert disk.stats()["unserializable"] == 1
        assert disk.load("k", "key") is None

    def test_lru_eviction_by_mtime(self, tmp_path):
        disk = DiskArtifactStore(tmp_path, max_entries=3)
        for i in range(3):
            disk.store("k", f"key-{i}", i)
            # Explicit, strictly increasing mtimes: filesystem clocks
            # are too coarse to order writes this close together.
            os.utime(disk.path_for("k", f"key-{i}"), (i, i))
        # A hit on the oldest bumps it to "now", so key-1 is now LRU.
        assert disk.load("k", "key-0") is not None
        disk.store("k", "key-3", 3)
        assert disk.evictions == 1
        assert disk.load("k", "key-1") is None
        assert disk.load("k", "key-0") is not None
        assert disk.load("k", "key-3") is not None

    def test_injected_torn_write_reads_as_miss(self, tmp_path):
        disk = DiskArtifactStore(tmp_path, faults=FaultPlan("disk_torn@0"))
        assert disk.store("k", "key", "value")  # lands, but truncated
        assert disk.load("k", "key") is None
        assert disk.corrupt == 1

    def test_injected_bitrot_reads_as_miss(self, tmp_path):
        disk = DiskArtifactStore(tmp_path, faults=FaultPlan("disk_bitrot@0"))
        assert disk.store("k", "key", "value")
        assert disk.load("k", "key") is None
        assert disk.corrupt == 1

    def test_injected_enospc_skips_the_write(self, tmp_path):
        disk = DiskArtifactStore(tmp_path, faults=FaultPlan("disk_enospc@0"))
        assert not disk.store("k", "key", "value")
        assert disk.write_errors == 1
        assert not disk.contains("k", "key")
        assert disk.store("k", "key", "value")  # next opportunity is clean
        assert disk.load("k", "key") == ("value", 0.0)


class TestWriteThroughTier:
    def test_put_writes_through_and_get_promotes(self, tmp_path):
        disk = DiskArtifactStore(tmp_path)
        store = ArtifactStore(disk=disk)
        store.put("k", "key", 42, seconds=1.5)
        assert disk.contains("k", "key")

        fresh = ArtifactStore(disk=disk)  # "new process", same directory
        assert fresh.get("k", "key") == 42
        stats = fresh.stats("k")
        assert stats.hits == 1 and stats.disk_hits == 1
        assert stats.seconds_saved == 1.5
        # Promoted into memory: the next get never touches the disk.
        before = disk.hits
        assert fresh.get("k", "key") == 42
        assert disk.hits == before
        assert fresh.stats("k").disk_hits == 1

    def test_contains_spans_both_tiers(self, tmp_path):
        disk = DiskArtifactStore(tmp_path)
        disk.store("k", "cold", 1)
        store = ArtifactStore(disk=disk)
        assert store.contains("k", "cold")
        assert not store.contains("k", "absent")
        assert store.stats("k").hits == 0  # probes are stats-free

    def test_resolve_store_mounts_the_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        resolved = resolve_store(None)
        assert resolved.disk is not None
        assert resolved.disk.root == str(tmp_path)
        # An explicitly constructed store stays memory-only.
        explicit = ArtifactStore()
        assert resolve_store(explicit) is explicit
        assert explicit.disk is None


class TestCrossProcessWarmth:
    def _run(self, code):
        host = TaskHost()
        service = CompilerService(ArtifactStore())
        program = service.compile_program(SRC)
        sim = Simulator(program.flat, host, env=program.env,
                        backend="compiled", code=code)
        sim.tick(cycles=20)
        return tuple(host.display_log), sim.store.snapshot(["n", "acc"])

    def test_codegen_artifacts_survive_restart_bit_identically(self, tmp_path):
        service = CompilerService(ArtifactStore(disk=DiskArtifactStore(tmp_path)))
        program = service.compile_program(SRC)
        code = service.codegen(program.flat, env=program.env,
                               digest=program.digest)
        want = self._run(code)

        # A fresh process: new memory store, same directory.
        service2 = CompilerService(
            ArtifactStore(disk=DiskArtifactStore(tmp_path)))
        program2 = service2.compile_program(SRC)
        code2 = service2.codegen(program2.flat, env=program2.env,
                                 digest=program2.digest)
        assert service2.store.stats().disk_hits > 0
        assert code2.source == code.source
        assert self._run(code2) == want

    def test_warm_opt_artifact_rebuilds_codegen_identically(self, tmp_path):
        """A disk tier holding only the ``opt`` frame: codegen rebuilds
        from the unpickled ``OptResult`` and lays out the same schedule."""
        service = CompilerService(ArtifactStore(disk=DiskArtifactStore(tmp_path)))
        program = service.compile_program(SRC)
        code = service.codegen(program.flat, env=program.env,
                               digest=program.digest)
        for entry in tmp_path.iterdir():
            if entry.is_dir() and entry.name != KIND_OPT:
                shutil.rmtree(entry)

        service2 = CompilerService(
            ArtifactStore(disk=DiskArtifactStore(tmp_path)))
        program2 = service2.compile_program(SRC)
        code2 = service2.codegen(program2.flat, env=program2.env,
                                 digest=program2.digest)
        assert service2.store.stats(KIND_OPT).disk_hits == 1
        assert service2.store.stats(KIND_CODEGEN).disk_hits == 0
        assert code2.schedule is not code.schedule
        assert code2.source == code.source
        assert code2.schedule == code.schedule

    def test_old_codegen_revision_frames_read_as_a_miss(
            self, tmp_path, monkeypatch):
        """A build that emits differently bumps ``_CODEGEN_REV``; frames
        the previous revision persisted stay on disk but are never
        handed to an engine of the new one."""
        from repro.opt import pipeline

        def codegen():
            service = CompilerService(
                ArtifactStore(disk=DiskArtifactStore(tmp_path)))
            program = service.compile_program(SRC)
            code = service.codegen(program.flat, env=program.env,
                                   digest=program.digest)
            return code, service.store.stats

        monkeypatch.setattr(pipeline, "_CODEGEN_REV",
                            pipeline._CODEGEN_REV - 1)
        codegen()
        monkeypatch.undo()
        code, stats = codegen()
        assert code.fingerprint.endswith(f"cg{pipeline._CODEGEN_REV}")
        assert stats(KIND_CODEGEN).disk_hits == 0
        _, stats = codegen()                    # this revision's own frame
        assert stats(KIND_CODEGEN).disk_hits == 1

    def test_warmth_probe_sees_disk_artifacts(self, tmp_path):
        service = CompilerService(ArtifactStore(disk=DiskArtifactStore(tmp_path)))
        program = service.compile_program(SRC)
        service.codegen(program.flat, env=program.env, digest=program.digest)
        service2 = CompilerService(
            ArtifactStore(disk=DiskArtifactStore(tmp_path)))
        warmth = service2.warmth(program.digest)
        assert warmth["codegen"], "disk tier must count as warmth"

    @pytest.mark.skipif(not HAVE_NUMPY, reason="batch backend needs NumPy")
    def test_batch_codec_rebuilds_vector_closures(self, tmp_path):
        from repro.interp.compile.batch import BatchedModuleCode, BatchUnsupported

        service = CompilerService(ArtifactStore(disk=DiskArtifactStore(tmp_path)))
        program = service.compile_program(SRC)
        try:
            service.batch(program.flat, env=program.env, digest=program.digest)
        except BatchUnsupported as exc:
            pytest.skip(f"module not batch-licensed here: {exc}")
        assert service.store.stats("batch").disk_hits == 0

        service2 = CompilerService(
            ArtifactStore(disk=DiskArtifactStore(tmp_path)))
        program2 = service2.compile_program(SRC)
        rebuilt = service2.batch(program2.flat, env=program2.env,
                                 digest=program2.digest)
        assert isinstance(rebuilt, BatchedModuleCode)
        assert service2.store.stats("batch").disk_hits == 1
