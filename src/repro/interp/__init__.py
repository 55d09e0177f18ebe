"""Software simulation of flattened modules.

Two backends share one ABI surface:

* :class:`InterpSimulator` — the reference tree-walking interpreter;
* :class:`CompiledSimulator` — the compile-to-closures backend
  (ranked combinational scheduling).

Both keep their values in one slot-indexed :class:`Store`.

:func:`Simulator` is the factory that picks between them (compiled by
default; set ``REPRO_SIM_BACKEND=interp`` or pass ``backend="interp"``
for the oracle).
"""

from .store import Store
from .eval_expr import EvalError, Evaluator
from .vfs import VirtualFS, VirtualFile
from .systasks import FinishSignal, TaskHost, verilog_format
from .simulator import (
    DEFAULT_BACKEND, InterpSimulator, SimulationError, Simulator,
)

_LAZY = ("CompiledSimulator",)


def __getattr__(name):
    # Lazy re-export: the codegen machinery only loads when the
    # compiled backend (or these names) is actually used, keeping
    # REPRO_SIM_BACKEND=interp runs free of it.
    if name in _LAZY:
        from . import compile as _compile

        return getattr(_compile, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Store", "EvalError", "Evaluator", "VirtualFS", "VirtualFile",
    "FinishSignal", "TaskHost", "verilog_format",
    "SimulationError", "Simulator", "InterpSimulator", "CompiledSimulator",
    "DEFAULT_BACKEND",
]
