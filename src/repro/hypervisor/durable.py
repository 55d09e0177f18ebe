"""Durable tenancy: the write-ahead journal + checkpoint store.

The supervisor's checkpoint (the newest
:class:`~repro.hypervisor.checkpoint.Checkpoint`, on each tenant's
record) survives board deaths; this module survives *process* deaths.
Two artifacts on disk, both built from the same self-verifying frame
discipline as the :mod:`~repro.compiler.diskstore` tier:

* **The tenant journal** (``journal.wal``): an append-only,
  fsync-per-record log of tenant lifecycle facts — ``job`` (a
  submission accepted by the serve frontend), ``admit`` (the
  supervisor placed it), ``ckpt`` (a quiescence checkpoint landed,
  naming its snapshot file), ``done`` (retired, with status).  Each
  record is one line: ``RPJ1 <crc32> <json>``.  Replay truncates a
  torn tail (the classic half-written last record of a crash),
  *skips* mid-log records whose CRC fails (latent corruption), and
  folds the survivors into per-tenant images.
* **The checkpoint store** (``snapshots/``): one file per retained
  checkpoint, holding the pickled quiescence context in the
  digest-keyed shape of :class:`~repro.hypervisor.checkpoint.Checkpoint`.
  Snapshots are written to a temp file and atomically renamed, then
  *read back and verified* before the journal records them — an
  injected (or real) torn/bit-rotted write is detected immediately and
  retried, so a recorded snapshot is one that was actually durable.
  Retention keeps the newest few per tenant (a bounded on-disk ring).

Write criticality is two-tier, mirroring what recovery can tolerate:
``admit``/``job``/``done`` records are **critical** (verified, retried
— losing one silently strands or resurrects a tenant), while ``ckpt``
records and snapshot files are **lossy-OK** (a failed checkpoint write
just means recovery replays from the previous one).

:class:`RecoveryError` is the typed verdict for a tenant the journal
knows about but cannot restore — the serving layer fails its handle
with it instead of silently dropping the tenant.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..compiler.diskstore import (
    corrupt_for_fault, dumps_artifact, durable_write, frame_payload,
    loads_artifact, unframe_payload,
)
from ..fabric.errors import PersistentFabricError
from ..fabric.faults import FaultPlan, default_fault_plan
from .checkpoint import Checkpoint

#: Journal line magic; bump on record-format changes.
JOURNAL_MAGIC = b"RPJ1"
#: On-disk checkpoints retained per tenant (newest first wins).
DEFAULT_KEEP_SNAPSHOTS = 4


class JournalError(PersistentFabricError):
    """A critical journal write could not be made durable."""


class RecoveryError(PersistentFabricError):
    """A journaled tenant could not be restored after a restart.

    Raised (or, in the serving layer, set on the tenant's handle) when
    replay finds a tenant in flight but no verifiable checkpoint — or
    re-admission itself fails.  Persistent by design: retrying recovery
    without new information cannot succeed.
    """

    def __init__(self, message: str, tenant: Optional[str] = None):
        super().__init__(message)
        self.tenant = tenant


@dataclass
class RecoveredTenant:
    """One tenant's journal image after replay."""

    name: str
    digest: str = ""
    source: str = ""
    clock: str = "clock"
    priority: str = "normal"
    principal: str = "default"
    target: Optional[int] = None
    seq: int = 0
    #: the supervisor placed it (an ``admit`` record survived)
    admitted: bool = False
    #: recorded snapshot filenames, oldest first
    snapshots: List[str] = field(default_factory=list)
    #: retirement status, or ``None`` while in flight
    terminal: Optional[str] = None


@dataclass
class JournalImage:
    """Everything one replay recovered, plus its damage report."""

    tenants: "OrderedDict[str, RecoveredTenant]" = field(
        default_factory=OrderedDict)
    records: int = 0
    #: mid-log records dropped by CRC/parse failure
    skipped: int = 0
    #: bytes of torn tail physically truncated
    truncated_bytes: int = 0

    def in_flight(self) -> List[RecoveredTenant]:
        """Tenants the crash caught mid-lifecycle, in admission order."""
        return [t for t in self.tenants.values() if t.terminal is None]


class TenantJournal:
    """Write-ahead journal + durable checkpoint store for one fleet.

    One journal belongs to one serving process at a time (single
    writer); recovery opens the same directory from the next process.
    All writes are fsync'd; critical records and snapshots are
    additionally write-verified and retried under injected disk faults.
    """

    def __init__(self, root, faults: Optional[FaultPlan] = None,
                 write_retries: int = 8,
                 keep_snapshots: int = DEFAULT_KEEP_SNAPSHOTS):
        self.root = os.fspath(root)
        self.snapshot_dir = os.path.join(self.root, "snapshots")
        os.makedirs(self.snapshot_dir, exist_ok=True)
        self.path = os.path.join(self.root, "journal.wal")
        self.faults = faults if faults is not None else default_fault_plan()
        self.write_retries = write_retries
        self.keep_snapshots = keep_snapshots
        self._fh = None
        self._snap_seq = sum(1 for f in os.scandir(self.snapshot_dir)
                             if f.name.endswith(".ckpt"))
        #: appends that landed corrupted (injected or real) and were
        #: either retried (critical) or abandoned (lossy)
        self.corrupt_writes = 0
        self.write_errors = 0
        self.records_written = 0
        self.snapshots_written = 0
        self.snapshot_retries = 0

    # -- the append path ---------------------------------------------------

    def _handle(self):
        if self._fh is None or self._fh.closed:
            self._fh = open(self.path, "ab")
        return self._fh

    @staticmethod
    def _encode(record: Dict[str, object]) -> bytes:
        body = json.dumps(record, sort_keys=True,
                          separators=(",", ":")).encode()
        return b"%s %08x %s\n" % (JOURNAL_MAGIC, zlib.crc32(body), body)

    def _append(self, record: Dict[str, object], critical: bool) -> bool:
        """Append one record, fsync'd.

        A *critical* record is retried until a clean copy lands (the
        fault plan redraws per attempt); a lossy record gets exactly
        one attempt.  Torn attempts are closed with a bare newline so
        one damaged record can never mis-frame its successors — replay
        skips the garbage line and stays aligned.
        """
        data = self._encode(record)
        plan = self.faults
        for _attempt in range(self.write_retries):
            mode = (plan.disk_write()
                    if plan is not None and plan.active else None)
            if mode == "enospc":
                self.write_errors += 1
                if critical:
                    continue
                return False
            blob = corrupt_for_fault(data, mode)
            fh = self._handle()
            try:
                fh.write(blob)
                if mode == "torn":  # keep the line framing aligned
                    fh.write(b"\n")
                fh.flush()
                os.fsync(fh.fileno())
            except OSError:
                self.write_errors += 1
                if critical:
                    continue
                return False
            if mode is None:
                self.records_written += 1
                return True
            self.corrupt_writes += 1
            if not critical:
                return False
        raise JournalError(
            f"journal record {record.get('t')!r} for "
            f"{record.get('name')!r} could not be made durable after "
            f"{self.write_retries} attempts")

    # -- lifecycle records -------------------------------------------------

    def job(self, name: str, *, digest: str, source: str, priority: str,
            principal: str, target: Optional[int], clock: str,
            seq: int) -> bool:
        """The serve frontend accepted a submission (pre-placement)."""
        return self._append({"t": "job", "name": name, "digest": digest,
                             "source": source, "priority": priority,
                             "principal": principal, "target": target,
                             "clock": clock, "seq": seq}, critical=True)

    def admit(self, name: str, *, digest: str, source: str,
              clock: str) -> bool:
        """The supervisor placed a tenant (write-ahead of execution)."""
        return self._append({"t": "admit", "name": name, "digest": digest,
                             "source": source, "clock": clock},
                            critical=True)

    def terminal(self, name: str, status: str) -> bool:
        """A tenant retired (released/finished/failed/cancelled)."""
        return self._append({"t": "done", "name": name, "status": status},
                            critical=True)

    # -- checkpoints -------------------------------------------------------

    def _snapshot_name(self, name: str, ticks: int) -> str:
        prefix = hashlib.sha256(name.encode()).hexdigest()[:12]
        self._snap_seq += 1
        return f"{prefix}-{ticks:08d}-{self._snap_seq:06d}.ckpt"

    def checkpoint(self, name: str, checkpoint: Checkpoint) -> bool:
        """Persist one quiescence checkpoint; records it on success.

        The snapshot file is written atomically, read back, and
        verified before the journal points at it — so every recorded
        snapshot was durable at record time.  Failure is lossy-OK:
        recovery falls back to the previous recorded snapshot.
        """
        payload = frame_payload(dumps_artifact({
            "context": checkpoint.context,
            "digest": checkpoint.digest,
            "ticks": checkpoint.ticks,
            "sim_time": checkpoint.sim_time,
        }))
        fname = self._snapshot_name(name, checkpoint.ticks)
        path = os.path.join(self.snapshot_dir, fname)
        landed = False
        for attempt in range(self.write_retries):
            try:
                durable_write(path, payload, self.faults)
            except OSError:
                self.write_errors += 1
                continue
            if self._read_snapshot(path) is not None:
                landed = True
                if attempt:
                    self.snapshot_retries += attempt
                break
            self.corrupt_writes += 1
        if not landed:
            try:
                os.unlink(path)
            except OSError:
                pass
            return False
        self.snapshots_written += 1
        recorded = self._append({"t": "ckpt", "name": name, "snap": fname,
                                 "ticks": checkpoint.ticks}, critical=False)
        self._prune_snapshots(name)
        return recorded

    def _read_snapshot(self, path: str) -> Optional[Dict[str, object]]:
        try:
            with open(path, "rb") as fh:
                payload = unframe_payload(fh.read())
            if payload is None:
                return None
            return loads_artifact(payload)
        except Exception:
            return None

    def load_snapshot(self, fname: str) -> Optional[Dict[str, object]]:
        """A recorded snapshot, verified; ``None`` if it did not survive."""
        return self._read_snapshot(
            os.path.join(self.snapshot_dir, os.path.basename(fname)))

    def _prune_snapshots(self, name: str) -> None:
        prefix = hashlib.sha256(name.encode()).hexdigest()[:12]
        mine = sorted(f.name for f in os.scandir(self.snapshot_dir)
                      if f.name.startswith(prefix))
        for stale in mine[:-self.keep_snapshots or None]:
            try:
                os.unlink(os.path.join(self.snapshot_dir, stale))
            except OSError:
                pass

    def drop_snapshots(self, name: str) -> None:
        """Release a retired tenant's snapshot files."""
        prefix = hashlib.sha256(name.encode()).hexdigest()[:12]
        for entry in os.scandir(self.snapshot_dir):
            if entry.name.startswith(prefix):
                try:
                    os.unlink(entry.path)
                except OSError:
                    pass

    # -- replay ------------------------------------------------------------

    def replay(self) -> JournalImage:
        """Fold the journal into per-tenant images, repairing as it goes.

        The torn tail (no trailing newline — the crash interrupted the
        final append) is physically truncated so later appends start on
        a clean line; complete lines that fail the magic/CRC check are
        skipped and counted, never fatal.
        """
        image = JournalImage()
        if self._fh is not None and not self._fh.closed:
            self._fh.flush()
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except OSError:
            return image
        if data and not data.endswith(b"\n"):
            cut = data.rfind(b"\n") + 1
            image.truncated_bytes = len(data) - cut
            data = data[:cut]
            try:
                with open(self.path, "r+b") as fh:
                    fh.truncate(len(data))
            except OSError:
                pass
        for line in data.split(b"\n"):
            if not line:
                continue
            record = self._parse_line(line)
            if record is None:
                image.skipped += 1
                continue
            image.records += 1
            self._fold(image, record)
        return image

    @staticmethod
    def _parse_line(line: bytes) -> Optional[Dict[str, object]]:
        parts = line.split(b" ", 2)
        if len(parts) != 3 or parts[0] != JOURNAL_MAGIC:
            return None
        magic_crc, body = parts[1], parts[2]
        try:
            if int(magic_crc, 16) != zlib.crc32(body):
                return None
            record = json.loads(body)
        except (ValueError, UnicodeDecodeError):
            return None
        return record if isinstance(record, dict) else None

    @staticmethod
    def _fold(image: JournalImage, record: Dict[str, object]) -> None:
        kind = record.get("t")
        name = record.get("name")
        if not isinstance(name, str):
            return
        entry = image.tenants.get(name)
        if kind == "job":
            # A fresh submission supersedes any retired lifecycle that
            # used the same name.
            entry = RecoveredTenant(
                name=name,
                digest=str(record.get("digest", "")),
                source=str(record.get("source", "")),
                clock=str(record.get("clock", "clock")),
                priority=str(record.get("priority", "normal")),
                principal=str(record.get("principal", "default")),
                target=record.get("target"),
                seq=int(record.get("seq", 0) or 0),
            )
            image.tenants[name] = entry
        elif kind == "admit":
            if entry is None or entry.terminal is not None:
                entry = RecoveredTenant(name=name)
                image.tenants[name] = entry
            entry.admitted = True
            entry.terminal = None
            if record.get("digest"):
                entry.digest = str(record["digest"])
            if record.get("source"):
                entry.source = str(record["source"])
            if record.get("clock"):
                entry.clock = str(record["clock"])
        elif kind == "ckpt":
            if entry is not None and isinstance(record.get("snap"), str):
                entry.snapshots.append(record["snap"])
        elif kind == "done":
            if entry is not None:
                entry.terminal = str(record.get("status", "released"))

    # -- housekeeping ------------------------------------------------------

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._fh.close()

    def stats(self) -> Dict[str, int]:
        return {
            "records_written": self.records_written,
            "snapshots_written": self.snapshots_written,
            "snapshot_retries": self.snapshot_retries,
            "corrupt_writes": self.corrupt_writes,
            "write_errors": self.write_errors,
        }
