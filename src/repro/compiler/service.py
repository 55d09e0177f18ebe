"""The pass-based compiler service: one compiler, many instances.

SYNERGY's hypervisor exists so that *one* compiler can serve every
connected runtime (§4); deterministic code generation (§7) makes each
of its stages cacheable by content address.  :class:`CompilerService`
is that compiler: a thin pass pipeline where every stage result —
parsed :class:`~repro.verilog.ast_nodes.SourceFile`, compiled
:class:`~repro.core.pipeline.CompiledProgram`, generated simulator
code (:class:`~repro.interp.compile.CompiledModuleCode`), synthesis
estimate — is interned in an :class:`~repro.compiler.artifacts.ArtifactStore`
under a digest of the stage's deterministic inputs.

Layers share artifacts by sharing a service (or just a store): the
hypervisor hands its service to its board so N tenants running the
same workload build simulator code once; bitstreams are one more kind
in the same store; the harness keeps a module-wide service.  A service
built without an explicit store gets a private one
(:func:`~repro.compiler.artifacts.resolve_store`).
"""

from __future__ import annotations

from typing import Optional, Union

from ..core.pipeline import CompiledProgram, build_program
from ..verilog import ast_nodes as ast
from ..verilog.parser import parse
from ..verilog.printer import print_module, print_source
from .artifacts import ArtifactStore, resolve_store, text_digest

#: Artifact kinds, one per compiler stage.
KIND_PARSE = "parse"
KIND_SOURCE = "source"      # raw-text alias → compiled program
KIND_PROGRAM = "program"
KIND_OPT = "opt"            # mid-end pipeline output (OptResult)
KIND_CODEGEN = "codegen"    # baseline configuration (the oracle's)
KIND_EVENT = "event"        # event-driven activity scheduling
KIND_BATCH = "batch"        # vectorized cohort closures (BatchedModuleCode)
KIND_SYNTH = "synth"
KIND_BITSTREAM = "bitstream"


def bitstream_key(device_name: str, options_key: str, digest: str) -> str:
    """Store key for one compiled design: device + options + text digest."""
    return f"{device_name}\x00{options_key}\x00{digest}"


class CompilerService:
    """Content-addressed pass pipeline over one artifact store."""

    def __init__(self, store: Optional[ArtifactStore] = None):
        self.store = resolve_store(store)

    # -- front end ---------------------------------------------------------

    def parse(self, text: str) -> ast.SourceFile:
        """Parse Verilog text (cached by raw-text digest)."""
        return self.store.get_or_build(
            KIND_PARSE, text_digest(text), lambda: parse(text)
        )

    def compile_program(
        self,
        source: Union[str, ast.SourceFile, ast.Module, CompiledProgram],
        top: Optional[str] = None,
    ) -> CompiledProgram:
        """Run (or reuse) the full §3 pipeline over *source*.

        All three input kinds are canonicalized through the
        deterministic printer, so text, its parse, and its flattened
        module converge on stable digests; raw text additionally gets
        a cheap alias entry so the hot warm path is one digest plus a
        dictionary hit.
        """
        if isinstance(source, CompiledProgram):
            return source
        alias_key: Optional[str] = None
        if isinstance(source, str):
            alias_key = f"{text_digest(source)}\x00top={top or ''}"
            program = self.store.get(KIND_SOURCE, alias_key)
            if program is not None:
                return program
            parsed = self.parse(source)
        elif isinstance(source, ast.SourceFile):
            parsed = source
        else:
            parsed = ast.SourceFile((source,))
        top_name = top if top is not None else parsed.modules[-1].name
        key = text_digest(print_source(parsed) + f"\x00top={top_name}")
        program = self.store.get_or_build(
            KIND_PROGRAM, key, lambda: build_program(parsed, top_name)
        )
        if alias_key is not None:
            self.store.put(KIND_SOURCE, alias_key, program)
        return program

    # -- mid-end optimization ----------------------------------------------

    def optimize(self, module: ast.Module, env=None,
                 digest: Optional[str] = None,
                 opt_level: Optional[int] = None,
                 keep: "frozenset[str]" = frozenset()):
        """Cached mid-end pipeline output for (module text, level).

        Keyed by ``(digest, pipeline fingerprint)`` — the fingerprint
        names the pass schedule and codegen revision, so one store can
        hold several optimization levels of one program side by side
        (the fuzz oracle's O0-vs-O2 cross-check relies on this).
        *keep* is a deterministic function of the module's provenance
        (e.g. the transform's trap table), so it needs no key component.
        """
        from ..opt import optimize_module, pipeline_fingerprint, resolve_opt_level

        level = resolve_opt_level(opt_level)
        if digest is None:
            digest = text_digest(print_module(module))
        key = f"{digest}\x00{pipeline_fingerprint(level)}"
        return self.store.get_or_build(
            KIND_OPT, key,
            lambda: optimize_module(module, env=env, level=level, keep=keep),
        )

    # -- simulator code generation ----------------------------------------

    def codegen(self, module: ast.Module, env=None,
                digest: Optional[str] = None,
                opt_level: Optional[int] = None,
                keep: "frozenset[str]" = frozenset(),
                event: Optional[bool] = None):
        """Shareable compiled-simulator code for *module*.

        *digest* must content-address the module's deterministic text;
        callers holding a :class:`CompiledProgram` pass ``.digest``
        (flat module) or ``.hardware_digest`` (transformed module) so
        nothing is re-printed.  The artifact key pairs the digest with
        the mid-end pipeline fingerprint of the effective
        ``opt_level``, so differently-optimized code objects of one
        program coexist and are shared independently.  *event* selects
        the scheduling configuration (default: ``REPRO_SIM_EVENT``);
        event-scheduled code is a distinct artifact kind under the same
        key discipline, so both configurations of one program coexist —
        the differential oracle compares exactly those two artifacts.  The
        returned :class:`~repro.interp.compile.CompiledModuleCode` is
        immutable and shared: each engine instantiates its own state
        against it.
        """
        from ..interp.compile import CompiledModuleCode, resolve_sim_event
        from ..opt import pipeline_fingerprint, resolve_opt_level

        level = resolve_opt_level(opt_level)
        use_event = resolve_sim_event(event)
        if digest is None:
            digest = text_digest(print_module(module))
        key = f"{digest}\x00{pipeline_fingerprint(level)}"
        return self.store.get_or_build(
            KIND_EVENT if use_event else KIND_CODEGEN, key,
            lambda: CompiledModuleCode(
                module, env=env, event=use_event,
                opt=self.optimize(module, env=env, digest=digest,
                                  opt_level=level, keep=keep)),
        )

    # -- vectorized (batched) code generation ------------------------------

    def batch(self, module: ast.Module, env=None,
              digest: Optional[str] = None,
              opt_level: Optional[int] = None,
              keep: "frozenset[str]" = frozenset()):
        """Shareable vectorized cohort closures for *module*.

        Layered on :meth:`codegen`: the default scalar code artifact
        supplies the analysis the vector emitter licenses against, so
        the key is the codegen key plus a ``batch`` discriminator.  Raises
        :class:`~repro.interp.compile.batch.UnsupportedBackend` without
        NumPy and :class:`~repro.interp.compile.batch.BatchUnsupported`
        for modules outside the vector subset — only successful builds
        are interned (failures are memoized cheaply per code artifact
        by :func:`~repro.interp.compile.batch.batch_code_for`).
        """
        from ..interp.compile.batch import batch_code_for
        from ..opt import pipeline_fingerprint, resolve_opt_level

        level = resolve_opt_level(opt_level)
        if digest is None:
            digest = text_digest(print_module(module))
        key = f"{digest}\x00{pipeline_fingerprint(level)}\x00batch"
        return self.store.get_or_build(
            KIND_BATCH, key,
            lambda: batch_code_for(
                self.codegen(module, env=env, digest=digest,
                             opt_level=level, keep=keep)),
        )

    # -- synthesis ---------------------------------------------------------

    def estimate(self, module: ast.Module, env, options,
                 digest: Optional[str] = None, env_tag: str = ""):
        """Cached synthesis estimate for (module text, options).

        *env_tag* discriminates call sites that estimate the same
        module under different width environments (the coalescer
        estimates transformed modules against the flat env; the hull
        uses the transformed env) — their numbers differ and must not
        alias.
        """
        from ..fabric.synth import Synthesizer

        if digest is None:
            digest = text_digest(print_module(module))
        key = f"{digest}\x00{options.key}\x00{env_tag}"
        return self.store.get_or_build(
            KIND_SYNTH, key, lambda: Synthesizer(options).estimate(module, env)
        )

    # -- bitstreams (paper §5.1, §7) ---------------------------------------

    def lookup_bitstream(self, device_name: str, options_key: str,
                         digest: str):
        """The cached bitstream for (device, options, text digest), or
        ``None`` — what lets a virtualization event skip recompilation."""
        return self.store.get(
            KIND_BITSTREAM, bitstream_key(device_name, options_key, digest))

    def peek_bitstream(self, device_name: str, options_key: str,
                       digest: str):
        """Look without perturbing hit/miss statistics (speculation)."""
        return self.store.peek(
            KIND_BITSTREAM, bitstream_key(device_name, options_key, digest))

    def insert_bitstream(self, device_name: str, options_key: str,
                         bitstream) -> None:
        self.store.put(
            KIND_BITSTREAM,
            bitstream_key(device_name, options_key, bitstream.digest),
            bitstream, seconds=bitstream.compile_seconds)

    # -- reporting ---------------------------------------------------------

    def stats(self, kind: Optional[str] = None):
        """Aggregate (or per-kind) statistics of the backing store."""
        return self.store.stats(kind)

    def warmth(self, digest: str,
               opt_level: Optional[int] = None) -> "Dict[str, bool]":
        """Which pipeline stages are already interned for *digest*.

        A stats-free probe (:meth:`ArtifactStore.contains`) so placement
        policy can ask "would this program warm-start here?" without
        polluting the hit/miss counters the experiments report.  The
        serving layer's fleet balancer scores candidate hosts by how
        deep their store's artifact chain already reaches — a host whose
        service holds the codegen (or batch) artifact starts a
        same-digest tenant with zero rebuild.  The probe spans both
        tiers: an artifact persisted to the ``REPRO_ARTIFACT_DIR`` disk
        store (possibly by an earlier process) counts as warmth, which
        is exactly what makes recovered placements after a restart land
        where the artifacts already are.
        """
        from ..opt import pipeline_fingerprint, resolve_opt_level

        level = resolve_opt_level(opt_level)
        staged = f"{digest}\x00{pipeline_fingerprint(level)}"
        return {
            "opt": self.store.contains(KIND_OPT, staged),
            "codegen": self.store.contains(KIND_CODEGEN, staged),
            "event": self.store.contains(KIND_EVENT, staged),
            "batch": self.store.contains(KIND_BATCH, staged + "\x00batch"),
        }


def default_service() -> CompilerService:
    """The service un-plumbed call sites get.

    A fresh private store each time — i.e. no caching across calls;
    callers that want sharing pass a service around.  The service
    itself is a stateless wrapper, so a fresh one per call is free.
    """
    return CompilerService()
