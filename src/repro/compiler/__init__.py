"""Content-addressed compiler service (paper §4 one-compiler, §7 caching).

* :class:`ArtifactStore` — content-addressed cache over every compiler
  stage (parse, program, simulator codegen, synthesis estimate,
  bitstream) with unified hit/miss/eviction statistics and bounded-LRU
  growth.
* :class:`CompilerService` — the pass pipeline the runtime, fabric
  backends, hypervisor and harness all share; stages intern their
  results in one store so N instances of one workload compile once.
"""

from .artifacts import (
    ArtifactStore, KindStats, default_disk_store, resolve_store, text_digest,
)

_LAZY = ("CompilerService", "default_service",
         "KIND_PARSE", "KIND_SOURCE", "KIND_PROGRAM", "KIND_CODEGEN",
         "KIND_SYNTH", "KIND_BITSTREAM")


def __getattr__(name):
    # Lazy re-export: the service pulls in the verilog front end and the
    # core pipeline; loading it here eagerly would cycle with
    # repro.fabric (whose bitstreams import this package's digests).
    # DiskArtifactStore is lazy for the same reason (it consults the
    # fabric fault plan).
    if name in _LAZY:
        from . import service as _service

        return getattr(_service, name)
    if name == "DiskArtifactStore":
        from .diskstore import DiskArtifactStore

        return DiskArtifactStore
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ArtifactStore", "DiskArtifactStore", "KindStats",
    "default_disk_store", "resolve_store", "text_digest",
    "CompilerService", "default_service",
    "KIND_PARSE", "KIND_SOURCE", "KIND_PROGRAM", "KIND_CODEGEN",
    "KIND_SYNTH", "KIND_BITSTREAM",
]
