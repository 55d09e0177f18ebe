"""The full Synergy compilation pipeline.

``compile_program`` is the front door used by the runtime, the fabric
backends, and the hypervisor.  A program has two halves.  The
*software half* — parse → flatten → analyze state (``build_program``
is the last step) — is all a software engine (with opt → codegen
behind it), a checkpoint or a journal record needs.  The *hardware
half* — machinify → hardware text → synthesis/bitstream → slot code —
is built when a board asks: ``CompiledProgram.transform`` (the
transformed module and the task table for servicing traps) is computed
on first read, once per program object, and shared through the store
exactly as the program is.

Since the compiler-service refactor this module holds only the *build*
step and the result type; caching and content addressing live in
:mod:`repro.compiler`.  ``compile_program`` remains as a thin shim over
the default :class:`~repro.compiler.CompilerService` so existing call
sites keep working.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple, Union

from ..verilog import ast_nodes as ast
from ..verilog.printer import print_module
from ..verilog.width import WidthEnv
from .machinify import TransformResult, machinify
from .statevars import StateReport, analyze_state, task_nesting


@dataclass
class CompiledProgram:
    """Everything the virtualization stack knows about one program.

    ``source`` is the *canonical* text — the deterministic printer's
    rendering of the flattened module — for every input kind, so the
    digests below are stable whether the program arrived as raw
    Verilog text, a parsed source file, or an already-flattened module
    (§7: deterministic code generation increases cache hit rates).

    The fields are the software half.  ``transform``, ``task_nesting``
    and the three ``hardware_*`` properties are the hardware half:
    nothing on the software path (admission, ticking, checkpoints, the
    journal) reads them, so a tenant that never reaches a board never
    builds them.
    """

    source: str
    flat: ast.Module
    env: WidthEnv
    state: StateReport

    @property
    def name(self) -> str:
        return self.flat.name

    @cached_property
    def transform(self) -> TransformResult:
        """The §3 state machine and its task table, built on first read."""
        return machinify(self.flat, self.env)

    @cached_property
    def hardware_text(self) -> str:
        """Deterministic Verilog text of the transformed module.

        Used as the compilation-cache key (§7: deterministic code
        generation increases cache hit rates).
        """
        return print_module(self.transform.module)

    @property
    def software_text(self) -> str:
        return self.source

    @cached_property
    def digest(self) -> str:
        """Content address of the canonical (software) text."""
        from ..compiler.artifacts import text_digest

        return text_digest(self.source)

    @cached_property
    def tick_bound(self) -> Tuple[Optional[int], str]:
        """:func:`~repro.opt.ranges.tick_bound` of the flat module."""
        from ..interp.simulator import _MAX_LOOP_ITERATIONS
        from ..opt.ranges import tick_bound

        return tick_bound(self.flat, self.env, _MAX_LOOP_ITERATIONS)

    @cached_property
    def task_nesting(self) -> int:
        """:func:`~repro.core.statevars.task_nesting` of the flat module,
        which synthesis options read on every placement."""
        return task_nesting(self.flat)

    @cached_property
    def hardware_digest(self) -> str:
        """Content address of the transformed (hardware) text."""
        from ..compiler.artifacts import text_digest

        return text_digest(self.hardware_text)

    @cached_property
    def hardware_env(self) -> WidthEnv:
        """Width environment of the transformed module (memoized —
        synthesis estimation and board slots would otherwise rebuild
        it on every placement)."""
        return WidthEnv(self.transform.module)


def build_program(flat: ast.Module, text: str) -> CompiledProgram:
    """Analyze a flattened module whose deterministic print is *text*:
    the raw build step the compiler service wraps, once it has
    flattened the root module and keyed the program by that text."""
    env = WidthEnv(flat)
    return CompiledProgram(text, flat, env, analyze_state(flat, env))


def compile_program(
    source: Union[str, ast.SourceFile, ast.Module],
    top: Optional[str] = None,
) -> CompiledProgram:
    """Run the full Synergy pipeline over *source*.

    *source* may be Verilog text, a parsed :class:`SourceFile`, or an
    already-flattened :class:`Module`.  Thin shim over the default
    compiler service: private, so uncached across calls.
    """
    from ..compiler import default_service

    return default_service().compile_program(source, top)
