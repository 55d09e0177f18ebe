"""The word-level mid-end: IR, pass pipeline, and codegen licensing.

SYNERGY's premise is *one compiler, many runtime instances*: because
code generation is deterministic and centrally cached, an optimization
performed once in the compiler is amortized across every engine, board
slot, and hypervisor tenant that runs the program.  This package is
that optimization layer for the compiled simulation backend:

* :mod:`repro.opt.ir` — a word-level design IR lowered from the
  elaborated (flattened) module: signals with widths, processes with
  def/use sets, driver maps and combinational cones;
* :mod:`repro.opt.passes` — semantics-preserving rewrites (constant
  folding/propagation, alias forwarding, always-block fusion,
  dead-signal/dead-process elimination, clock-gate detection);
* :mod:`repro.opt.schedule` — how the compiled backend runs the
  optimized design: the process table, logic cones in rank order, the
  tick clock, clock gates and every refusal with its reason;
* :mod:`repro.opt.pipeline` — pass schedules per ``REPRO_OPT_LEVEL``
  (0/1/2, default 2) and the pipeline *fingerprint* that joins the
  program digest in every optimized artifact's cache key.

Every pass must be unobservable under the differential conformance
oracle (``repro.fuzz``): interp vs compiled-O0 vs compiled-O2 vs the
board and lifecycle paths, bit-for-bit.
"""

from .ir import Design
from .pipeline import (
    DEFAULT_OPT_LEVEL,
    OptResult,
    optimize_module,
    pipeline_fingerprint,
    resolve_opt_level,
)

__all__ = [
    "Design",
    "DEFAULT_OPT_LEVEL",
    "OptResult",
    "optimize_module",
    "pipeline_fingerprint",
    "resolve_opt_level",
]
