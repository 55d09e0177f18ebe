"""Write-ahead tenant journal + durable checkpoint store."""

import os

import pytest

from repro.fabric import DE10
from repro.fabric.faults import FaultPlan
from repro.hypervisor import (
    Checkpoint, Hypervisor, JournalError, Supervisor, TenantJournal,
)
from repro.runtime.runtime import Context


def make_checkpoint(ticks=8, digest="d" * 16, display=()):
    context = Context(program_source="module m(input wire clock); endmodule",
                      state={"n": ticks}, vfs_state={}, vfs_files={},
                      ticks=ticks, display_log=list(display))
    return Checkpoint(engine_id=1, digest=digest, ticks=ticks,
                      sim_time=float(ticks) * 1e-8, context=context)


class TestJournalRecords:
    def test_lifecycle_replay(self, tmp_path):
        journal = TenantJournal(tmp_path)
        journal.job("t1", digest="d1", source="src1", priority="high",
                    principal="alice", target=60, clock="clk", seq=1)
        journal.admit("t1", digest="d1", source="src1", clock="clk")
        journal.job("t2", digest="d2", source="src2", priority="normal",
                    principal="bob", target=None, clock="clock", seq=2)
        journal.terminal("t1", "released")
        image = journal.replay()
        assert image.records == 4 and image.skipped == 0
        assert image.tenants["t1"].terminal == "released"
        t2 = image.tenants["t2"]
        assert t2.terminal is None and not t2.admitted
        assert (t2.digest, t2.source, t2.priority, t2.principal,
                t2.target, t2.seq) == ("d2", "src2", "normal", "bob",
                                       None, 2)
        assert [t.name for t in image.in_flight()] == ["t2"]

    def test_name_reuse_supersedes_retired_lifecycle(self, tmp_path):
        journal = TenantJournal(tmp_path)
        journal.job("t", digest="d1", source="s1", priority="normal",
                    principal="p", target=None, clock="clock", seq=1)
        journal.terminal("t", "released")
        journal.job("t", digest="d2", source="s2", priority="high",
                    principal="p", target=9, clock="clock", seq=2)
        image = journal.replay()
        entry = image.tenants["t"]
        assert entry.terminal is None and entry.digest == "d2"
        assert entry.seq == 2

    def test_torn_tail_is_truncated(self, tmp_path):
        journal = TenantJournal(tmp_path)
        journal.admit("t", digest="d", source="s", clock="clock")
        journal.close()
        with open(journal.path, "ab") as fh:
            fh.write(b"RPJ1 00000000 {\"t\": \"done\"")  # no newline: torn
        size_before = os.path.getsize(journal.path)
        image = journal.replay()
        assert image.records == 1 and image.truncated_bytes > 0
        assert os.path.getsize(journal.path) < size_before
        assert image.tenants["t"].admitted

    def test_mid_log_corruption_is_skipped_not_fatal(self, tmp_path):
        journal = TenantJournal(tmp_path)
        journal.admit("t1", digest="d", source="s", clock="clock")
        journal.admit("t2", digest="d", source="s", clock="clock")
        journal.close()
        data = open(journal.path, "rb").read().split(b"\n")
        data[0] = data[0][:-4] + b"XXXX"  # flip bytes inside record 1
        with open(journal.path, "wb") as fh:
            fh.write(b"\n".join(data))
        image = journal.replay()
        assert image.skipped == 1 and image.records == 1
        assert "t2" in image.tenants and "t1" not in image.tenants


class TestJournalFaults:
    def test_critical_record_retries_through_torn_writes(self, tmp_path):
        journal = TenantJournal(
            tmp_path, faults=FaultPlan("disk_torn@0,disk_torn@1"))
        assert journal.admit("t", digest="d", source="s", clock="clock")
        assert journal.corrupt_writes == 2
        image = journal.replay()
        # Two torn attempts left garbage lines; replay skips them and
        # still finds the clean third attempt.
        assert image.tenants["t"].admitted
        assert image.skipped == 2

    def test_critical_record_exhaustion_raises(self, tmp_path):
        journal = TenantJournal(tmp_path, write_retries=2,
                                faults=FaultPlan("disk_enospc:1.0"))
        with pytest.raises(JournalError):
            journal.admit("t", digest="d", source="s", clock="clock")

    def test_lossy_checkpoint_record_gives_up_quietly(self, tmp_path):
        journal = TenantJournal(tmp_path)
        assert journal.checkpoint("t", make_checkpoint())
        # enospc on every write: the snapshot itself cannot land.
        bad = TenantJournal(tmp_path / "bad", write_retries=2,
                            faults=FaultPlan("disk_enospc:1.0"))
        assert not bad.checkpoint("t", make_checkpoint())
        assert bad.snapshots_written == 0


class TestSnapshots:
    def test_checkpoint_roundtrip(self, tmp_path):
        journal = TenantJournal(tmp_path)
        ckpt = make_checkpoint(ticks=12, display=["a", "b"])
        # ckpt records only fold onto tenants the log knows about.
        journal.admit("t", digest=ckpt.digest, source="s", clock="clock")
        assert journal.checkpoint("t", ckpt)
        image = journal.replay()
        snaps = image.tenants["t"].snapshots
        assert snaps
        loaded = journal.load_snapshot(snaps[-1])
        assert loaded["ticks"] == 12 and loaded["digest"] == ckpt.digest
        assert loaded["context"].display_log == ["a", "b"]
        assert loaded["context"].state == {"n": 12}

    def test_snapshot_verified_before_recorded(self, tmp_path):
        journal = TenantJournal(tmp_path)
        journal.admit("t", digest="d", source="s", clock="clock")
        # First two snapshot write attempts land corrupted; the
        # write-verify loop must retry until a readable one is on disk.
        journal.faults = FaultPlan("disk_bitrot@0,disk_torn@1")
        assert journal.checkpoint("t", make_checkpoint())
        journal.faults = None
        image = journal.replay()
        fname = image.tenants["t"].snapshots[-1]
        assert journal.load_snapshot(fname) is not None
        assert journal.snapshot_retries >= 1

    def test_prune_keeps_newest(self, tmp_path):
        journal = TenantJournal(tmp_path, keep_snapshots=2)
        journal.admit("t", digest="d", source="s", clock="clock")
        for ticks in (4, 8, 12, 16):
            journal.checkpoint("t", make_checkpoint(ticks=ticks))
        image = journal.replay()
        snaps = image.tenants["t"].snapshots
        assert len(snaps) == 4  # the journal remembers all of them...
        survivors = [s for s in snaps
                     if journal.load_snapshot(s) is not None]
        # ...but only the newest two files survive pruning.
        assert survivors == snaps[-2:]

    def test_drop_snapshots_releases_files(self, tmp_path):
        journal = TenantJournal(tmp_path)
        journal.admit("t", digest="d", source="s", clock="clock")
        journal.checkpoint("t", make_checkpoint())
        assert any(os.scandir(journal.snapshot_dir))
        journal.drop_snapshots("t")
        assert not any(f.name.endswith(".ckpt")
                       for f in os.scandir(journal.snapshot_dir))


COUNTER = """
module counter(input wire clock);
  reg [7:0] n = 0;
  always @(posedge clock) n <= n + 1;
endmodule
"""


def test_snapshot_and_admit_record_name_the_same_program(tmp_path):
    """A snapshot carries the software digest — the key the ``admit``
    record beside it carries — wherever the tenant lives."""
    journal = TenantJournal(tmp_path)
    sup = Supervisor([Hypervisor(DE10)], checkpoint_every=2, journal=journal)
    sup.admit("sw", COUNTER, software=True)
    assert sup.admit("hw", COUNTER).host is not None
    for name in ("sw", "hw"):
        sup.run(name, 4)
    image = journal.replay()
    for name in ("sw", "hw"):
        entry = image.tenants[name]
        snapshot = journal.load_snapshot(entry.snapshots[-1])
        assert (entry.digest == snapshot["digest"]
                == sup.tenants[name].runtime.program.digest)
