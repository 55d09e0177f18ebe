"""Compile-to-closures simulation backend.

Instead of tree-walking the AST every tick, this package compiles a
flattened module *once* at elaboration time:

* :mod:`slots` — every signal/memory is interned into an integer slot
  over a flat list; the name-based ``Store`` ABI survives as a thin view.
* :mod:`exprc` / :mod:`stmtc` — expressions and statements become
  generated Python source with widths, masks and sign-extensions baked
  in as constants, ``compile()``d to one function per process.
* :mod:`scheduler` — combinational processes are levelled into
  dependency ranks (silicon-style logic cones) so one sweep settles
  most designs.
* :mod:`simulator` — :class:`CompiledModuleCode`, the immutable
  shareable codegen artifact (analysis + schedule + code object), and
  :class:`CompiledSimulator`, one engine's state bound to such an
  artifact; ABI-compatible with the reference interpreter.
"""

from .slots import SlotLayout, SlotStore
from .simulator import CompiledModuleCode, CompiledSimulator

__all__ = ["SlotLayout", "SlotStore", "CompiledModuleCode",
           "CompiledSimulator"]
