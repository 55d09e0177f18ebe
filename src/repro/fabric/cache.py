"""Compilation cache (paper §5.1, §7) — a view over the artifact store.

Synergy's backends rely on compilation caches to avoid waiting through
recompilation on virtualization events.  Deterministic code generation
(our printer) makes the cache key a simple digest of the generated
Verilog plus the device name and synthesis options.

Since the compiler-service refactor the bitstream cache is one *kind*
in a content-addressed :class:`~repro.compiler.artifacts.ArtifactStore`
shared with every other compiler stage; this class keeps the historical
``lookup``/``insert`` surface as a view over that store (statistics are
the store's per-kind counters, shared by every view over that store).  Constructing a cache without a store gives it a
private one — the pre-refactor behaviour — while the hypervisor and
direct backend hand their caches the store their compiler service uses,
so bitstreams, codegen and estimates share one bound and one stats API.
"""

from __future__ import annotations

from typing import Optional

from ..compiler.artifacts import ArtifactStore, KindStats
from .bitstream import Bitstream

#: Artifact kind bitstreams are stored under (see repro.compiler.service).
KIND_BITSTREAM = "bitstream"


def bitstream_key(device_name: str, options_key: str, digest: str) -> str:
    """Store key for one compiled design: device + options + text digest."""
    return f"{device_name}\x00{options_key}\x00{digest}"


class CompilationCache:
    """Maps (device, options, text digest) → compiled bitstream.

    *max_entries* bounds the backing store (LRU eviction, counted in
    ``stats.evictions``) so long-lived hypervisors don't grow without
    bound; it applies only to the private store created when *store*
    is not supplied — a shared store's bound belongs to its owner, not
    to any one view over it.
    """

    def __init__(self, store: Optional[ArtifactStore] = None,
                 max_entries: Optional[int] = None):
        if store is None:
            store = ArtifactStore(max_entries=max_entries)
        self.store = store

    @property
    def stats(self) -> KindStats:
        """The backing store's ``bitstream``-kind counters.

        Counters live on the store, so every view over one shared store
        reads the same (merged) numbers — per-backend attribution needs
        per-backend stores.
        """
        return self.store.stats(KIND_BITSTREAM)

    def lookup(self, device_name: str, options_key: str,
               digest: str) -> Optional[Bitstream]:
        entry = self.store.get(
            KIND_BITSTREAM, bitstream_key(device_name, options_key, digest)
        )
        return entry  # type: ignore[return-value]

    def lookup_quiet(self, device_name: str, options_key: str,
                     digest: str) -> Optional[Bitstream]:
        """Peek without perturbing hit/miss statistics (speculation)."""
        return self.store.peek(
            KIND_BITSTREAM, bitstream_key(device_name, options_key, digest)
        )  # type: ignore[return-value]

    def insert(self, device_name: str, options_key: str,
               bitstream: Bitstream) -> None:
        self.store.put(
            KIND_BITSTREAM,
            bitstream_key(device_name, options_key, bitstream.digest),
            bitstream,
            seconds=bitstream.compile_seconds,
        )

    def __len__(self) -> int:
        return self.store.count(KIND_BITSTREAM)

    def clear(self) -> None:
        self.store.clear(KIND_BITSTREAM)
