"""Compile-to-closures simulation backend.

Instead of tree-walking the AST every tick, this package compiles a
flattened module *once* at elaboration time:

* :mod:`exprc` / :mod:`stmtc` — expressions and statements become
  generated Python source with widths, masks and sign-extensions baked
  in as constants, ``compile()``d to one function per process.
* :mod:`simulator` — :class:`CompiledModuleCode`, the immutable
  shareable codegen artifact (the mid-end's schedule laid out over
  slots, plus the code object), and
  :class:`CompiledSimulator`, one engine's state bound to such an
  artifact; ABI-compatible with the reference interpreter.
"""

from .simulator import CompiledModuleCode, CompiledSimulator

__all__ = ["CompiledModuleCode", "CompiledSimulator"]
