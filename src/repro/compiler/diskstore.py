"""The on-disk artifact tier: crash-safe, cross-process warm starts.

The in-memory :class:`~repro.compiler.artifacts.ArtifactStore` dies
with the Python process, so every worker in a multi-process deployment
pays cold compiles.  :class:`DiskArtifactStore` is the durable tier
underneath it: a content-addressed directory of serialized artifacts,
keyed by the *same* ``digest + pipeline-fingerprint`` discipline as the
memory tier (one file per ``(kind, key)``), so a fresh process mounting
a populated directory warm-starts every stage — parse through codegen,
including the event-scheduled and batched kinds.

Design points, in the order they matter:

* **Self-verifying frames.**  Every file is ``magic · format version ·
  interpreter cache tag · CRC32 · length · payload``.  Anything that
  fails any check — torn write, flipped bit, a marshal payload from a
  different Python — is a *miss*, never an error: the file is unlinked
  and the artifact rebuilt.  Corruption can cost a recompile; it can
  never poison a simulation.
* **Marshal-aware pickling.**  ``CompiledModuleCode`` carries a real
  code object; pickle refuses those, so a ``reducer_override`` routes
  :class:`types.CodeType` through :mod:`marshal`.  Marshal bytes are
  interpreter-version-specific, hence the cache tag in the frame.
  Values that still refuse to serialize (per-kind exceptions like live
  closures) are silently skipped — the disk tier is an accelerator,
  not a contract.
* **Per-kind codecs.**  ``batch`` artifacts
  (:class:`~repro.interp.compile.batch.BatchedModuleCode`) hold
  dynamically-built NumPy closures that cannot be serialized at all;
  their codec persists the underlying scalar code artifact and rebuilds
  the vector closures on load.
* **Atomic writes, advisory locking, mtime LRU.**  Writers stage to a
  temp file, ``fsync``, then ``os.replace`` — readers see old-or-new,
  never partial.  A directory-wide ``flock`` serializes writers and
  eviction across processes; reads are lock-free.  Eviction drops the
  oldest-``mtime`` files past ``max_entries`` (hits bump mtime, making
  it a cross-process LRU clock).
* **Seeded fault injection.**  Writes consult the ambient
  :class:`~repro.fabric.faults.FaultPlan` (``disk_torn`` /
  ``disk_bitrot`` / ``disk_enospc``), so the corruption-handling above
  is exercised by the same deterministic chaos discipline as the
  fabric.

``REPRO_ARTIFACT_DIR`` mounts one of these under every default-resolved
:class:`~repro.compiler.artifacts.ArtifactStore` (write-through on
``put``, probe-and-promote on ``get``) — see
:func:`~repro.compiler.artifacts.resolve_store`.
"""

from __future__ import annotations

import errno
import hashlib
import io
import marshal
import os
import pickle
import struct
import sys
import types
import zlib
from typing import Dict, Optional, Tuple

from ..fabric.faults import FaultPlan, default_fault_plan

try:  # POSIX advisory locking; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

#: Frame magic for artifact files ("RePro ARtifact").
ARTIFACT_MAGIC = b"RPRA"
#: Bump on any incompatible layout change; mismatches are misses.
FRAME_FORMAT = 1
#: Default entry bound (``max_entries=None``).
DEFAULT_MAX_ENTRIES = 4096

_HEADER = struct.Struct(">4sHH")   # magic, format, tag length
_TRAILER = struct.Struct(">IQ")    # crc32(payload), payload length


def _cache_tag() -> bytes:
    """The interpreter tag marshal bytes are only valid under."""
    return (sys.implementation.cache_tag or sys.version[:32]).encode()


class _ArtifactPickler(pickle.Pickler):
    """Protocol-5 pickler that routes code objects through marshal.

    The inverse needs no custom class: the reduction is
    ``marshal.loads(marshal.dumps(code))``, and ``marshal.loads`` is an
    importable callable, so plain :func:`pickle.loads` reads it back.
    """

    def reducer_override(self, obj):
        if isinstance(obj, types.CodeType):
            return (marshal.loads, (marshal.dumps(obj),))
        return NotImplemented


def dumps_artifact(value: object) -> bytes:
    """Serialize *value* (code objects included) to payload bytes."""
    buf = io.BytesIO()
    _ArtifactPickler(buf, protocol=5).dump(value)
    return buf.getvalue()


loads_artifact = pickle.loads


def frame_payload(payload: bytes) -> bytes:
    """Wrap payload bytes in the self-verifying on-disk frame."""
    tag = _cache_tag()
    return (_HEADER.pack(ARTIFACT_MAGIC, FRAME_FORMAT, len(tag)) + tag
            + _TRAILER.pack(zlib.crc32(payload), len(payload)) + payload)


def unframe_payload(data: bytes) -> Optional[bytes]:
    """Verify a frame; the payload, or ``None`` on *any* mismatch."""
    if len(data) < _HEADER.size:
        return None
    magic, fmt, tag_len = _HEADER.unpack_from(data)
    if magic != ARTIFACT_MAGIC or fmt != FRAME_FORMAT:
        return None
    offset = _HEADER.size + tag_len
    if len(data) < offset + _TRAILER.size:
        return None
    if data[_HEADER.size:offset] != _cache_tag():
        return None
    crc, length = _TRAILER.unpack_from(data, offset)
    payload = data[offset + _TRAILER.size:]
    if len(payload) != length or zlib.crc32(payload) != crc:
        return None
    return payload


def corrupt_for_fault(data: bytes, mode: Optional[str]) -> bytes:
    """Apply an injected write fault to the bytes about to land.

    ``torn`` keeps the first half (a write interrupted mid-stream);
    ``bitrot`` flips one mid-payload byte.  Deterministic by
    construction — the damage is a pure function of the data — so
    fault schedules replay exactly.
    """
    if mode == "torn":
        return data[:max(1, len(data) // 2)]
    if mode == "bitrot":
        i = len(data) // 2
        return data[:i] + bytes([data[i] ^ 0xFF]) + data[i + 1:]
    return data


def durable_write(path: str, data: bytes,
                  faults: Optional[FaultPlan] = None) -> None:
    """Atomically write *data* to *path*: temp file, fsync, rename.

    Injected disk faults apply here: ``enospc`` raises ``OSError``
    before anything lands; ``torn``/``bitrot`` land damaged bytes
    *atomically* (the rename still happens — the frame CRC, not the
    rename, is what detects them, exactly like real latent corruption).
    """
    mode = faults.disk_write() if faults is not None and faults.active else None
    if mode == "enospc":
        raise OSError(errno.ENOSPC, "injected: no space left on device", path)
    blob = corrupt_for_fault(data, mode)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # a failed write never leaves litter
            try:
                os.unlink(tmp)
            except OSError:
                pass


class FileLock:
    """Advisory exclusive lock on one lock file (no-op without fcntl)."""

    def __init__(self, path: str):
        self.path = path
        self._fh = None

    def __enter__(self) -> "FileLock":
        if fcntl is not None:
            self._fh = open(self.path, "a+b")
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._fh is not None:
            try:
                fcntl.flock(self._fh.fileno(), fcntl.LOCK_UN)
            finally:
                self._fh.close()
                self._fh = None


class DiskArtifactStore:
    """A content-addressed artifact directory: the durable cache tier.

    One file per ``(kind, key)`` at ``root/<kind>/<sha256(key)>.art``.
    All failure handling is miss-shaped: unreadable, unverifiable, or
    undeserializable files are unlinked and reported as absent, and
    values that refuse to serialize are skipped — callers never see an
    exception from this class, only ``None`` / ``False``.
    """

    def __init__(self, root, max_entries: Optional[int] = None,
                 faults: Optional[FaultPlan] = None):
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.max_entries = (DEFAULT_MAX_ENTRIES if max_entries is None
                            else max_entries if max_entries > 0 else None)
        #: injected-fault plan for durable writes (ambient by default)
        self.faults = faults if faults is not None else default_fault_plan()
        self._lock = FileLock(os.path.join(self.root, ".lock"))
        self.hits = 0
        self.misses = 0
        #: frames that failed verification (and were unlinked)
        self.corrupt = 0
        #: values skipped because they refuse to serialize
        self.unserializable = 0
        #: writes abandoned on OSError (e.g. disk full)
        self.write_errors = 0
        self.evictions = 0

    # -- paths -------------------------------------------------------------

    def path_for(self, kind: str, key: str) -> str:
        name = hashlib.sha256(key.encode()).hexdigest()
        return os.path.join(self.root, kind, f"{name}.art")

    # -- per-kind codecs ---------------------------------------------------

    @staticmethod
    def _encode(kind: str, value: object) -> Tuple[str, object]:
        if kind == "batch":
            # BatchedModuleCode holds dynamically-built vector closures
            # (unpicklable); persist the scalar code artifact it layers
            # on and rebuild the closures at load time.
            return ("batch", value.code)
        return ("obj", value)

    @staticmethod
    def _decode(tag: str, obj: object) -> object:
        if tag == "batch":
            from ..interp.compile.batch import BatchedModuleCode

            return BatchedModuleCode(obj)  # may raise → treated as miss
        return obj

    # -- the store surface -------------------------------------------------

    def load(self, kind: str, key: str) -> Optional[Tuple[object, float]]:
        """``(value, build_seconds)`` if a verifiable artifact exists.

        A hit bumps the file's mtime — the cross-process LRU clock
        eviction sorts by.
        """
        path = self.path_for(kind, key)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            self.misses += 1
            return None
        payload = unframe_payload(data)
        if payload is None:
            return self._drop_corrupt(path)
        try:
            tag, obj, seconds = loads_artifact(payload)
            value = self._decode(tag, obj)
        except Exception:
            # Undeserializable ≡ corrupt: unpickling, marshal, or codec
            # rebuild failed.  Treat as a miss and rebuild upstream.
            return self._drop_corrupt(path)
        try:
            os.utime(path)
        except OSError:
            pass
        self.hits += 1
        return value, float(seconds)

    def _drop_corrupt(self, path: str) -> None:
        self.corrupt += 1
        self.misses += 1
        try:
            os.unlink(path)
        except OSError:
            pass
        return None

    def store(self, kind: str, key: str, value: object,
              seconds: float = 0.0) -> bool:
        """Persist one artifact; False when skipped (never raises)."""
        try:
            tag, obj = self._encode(kind, value)
            payload = dumps_artifact((tag, obj, float(seconds)))
        except Exception:
            self.unserializable += 1
            return False
        path = self.path_for(kind, key)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with self._lock:
                durable_write(path, frame_payload(payload), self.faults)
                self._evict_locked()
        except OSError:
            self.write_errors += 1
            return False
        return True

    def contains(self, kind: str, key: str) -> bool:
        """Existence probe (no verification, no stats) for warmth scoring."""
        return os.path.exists(self.path_for(kind, key))

    # -- maintenance -------------------------------------------------------

    def _entries(self):
        for entry in os.scandir(self.root):
            if not entry.is_dir():
                continue
            for file in os.scandir(entry.path):
                if file.name.endswith(".art"):
                    yield file

    def _evict_locked(self) -> None:
        if self.max_entries is None:
            return
        files = list(self._entries())
        excess = len(files) - self.max_entries
        if excess <= 0:
            return
        def mtime(entry):
            try:
                return entry.stat().st_mtime
            except OSError:
                return 0.0
        for entry in sorted(files, key=mtime)[:excess]:
            try:
                os.unlink(entry.path)
                self.evictions += 1
            except OSError:
                pass

    def count(self, kind: Optional[str] = None) -> int:
        if kind is not None:
            root = os.path.join(self.root, kind)
            if not os.path.isdir(root):
                return 0
            return sum(1 for f in os.scandir(root) if f.name.endswith(".art"))
        return sum(1 for _ in self._entries())

    def clear(self) -> None:
        with self._lock:
            for entry in list(self._entries()):
                try:
                    os.unlink(entry.path)
                except OSError:
                    pass

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "unserializable": self.unserializable,
            "write_errors": self.write_errors,
            "evictions": self.evictions,
            "entries": self.count(),
        }
